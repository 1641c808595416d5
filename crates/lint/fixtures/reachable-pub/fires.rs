//# path: crates/core/src/fake_api.rs
// Fixture: a public function, constant, static or type of a library
// crate that nothing outside the crate reaches fires at its name. The
// fixture context reaches `encode_frame` alone here; `Codec` is spelled
// only inside this file, and `Header` only in the interface of an item
// that is not reached.

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

pub struct Codec; //~ reachable-pub

impl Codec {
    pub fn unreached_method(&self) -> Header { //~ reachable-pub
        Header(unreached_helper())
    }
}

pub struct Header(pub u8); //~ reachable-pub

pub enum Mode { //~ reachable-pub
    Plain,
}

pub trait Encode { //~ reachable-pub
    fn encode(&self) -> Vec<u8>;
}

pub type Bytes = Vec<u8>; //~ reachable-pub
