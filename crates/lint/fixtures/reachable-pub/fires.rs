//# path: crates/core/src/fake_api.rs
// Fixture: a public function, constant or static of a library crate that
// no file outside the crate names fires at its name. The fixture context
// has `unreached_helper` spelled only inside crates/core/src/, which does
// not count.

pub fn encode_frame(data: &[u8]) -> Vec<u8> {
    data.to_vec()
}

pub fn unreached_helper() -> u8 { //~ reachable-pub
    7
}

pub const UNREACHED_LIMIT: usize = 64; //~ reachable-pub

pub static UNREACHED_TABLE: [u8; 2] = [0, 1]; //~ reachable-pub

pub const fn unreached_const_fn() -> u8 { //~ reachable-pub
    1
}

pub struct Codec;

impl Codec {
    pub fn unreached_method(&self) -> u8 { //~ reachable-pub
        unreached_helper()
    }
}
