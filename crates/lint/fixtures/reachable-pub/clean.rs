//# path: crates/core/src/fake_api_clean.rs
// Fixture: items reached from outside the crate (by name, or a type in a
// reached item's interface), items that are not public, trait methods
// and test code are not checked.

pub fn encode_frame(data: &[u8]) -> Frame {
    Frame {
        kind: Kind::Raw,
        bytes: crate_helper(data),
    }
}

pub const FRAME_LIMIT: usize = 1 << 20;

pub(crate) fn crate_helper(data: &[u8]) -> Vec<u8> {
    private_helper(data)
}

fn private_helper(data: &[u8]) -> Vec<u8> {
    data.to_vec()
}

pub struct Frame {
    pub kind: Kind,
    bytes: Vec<u8>,
}

pub enum Kind {
    Raw,
}

pub(crate) struct Scratch;

impl Encode for Frame {
    fn encode(&self) -> Vec<u8> {
        self.bytes.clone()
    }
}

#[cfg(test)]
mod tests {
    pub fn test_helper() -> u8 {
        1
    }

    pub struct TestOnly;
}
