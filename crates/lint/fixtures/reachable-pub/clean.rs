//# path: crates/core/src/fake_api_clean.rs
// Fixture: items named outside the crate, items that are not public,
// types, trait methods and test code are not checked.

pub fn encode_frame(data: &[u8]) -> Vec<u8> {
    crate_helper(data)
}

pub const FRAME_LIMIT: usize = 1 << 20;

pub(crate) fn crate_helper(data: &[u8]) -> Vec<u8> {
    private_helper(data)
}

fn private_helper(data: &[u8]) -> Vec<u8> {
    data.to_vec()
}

pub struct Frame;

pub enum Kind {
    Raw,
}

impl Encode for Frame {
    fn encode(&self) -> Vec<u8> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    pub fn test_helper() -> u8 {
        1
    }
}
