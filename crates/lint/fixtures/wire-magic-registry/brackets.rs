//# path: crates/core/src/wire_brackets.rs
// Fixture: braces inside string, char, byte and raw-string literals,
// lifetimes, nested closures and a match arm block do not move where the
// `mod magic { … }` registry ends.

mod magic {
    pub const OPEN: &str = "}";
    pub const BYTE: u8 = b'}';
    pub const RAW: &str = r#"} }"#;
    pub const FRAME: u8 = 0xC4;
    pub fn pick<'a>(x: &'a [u8]) -> u8 {
        match x.first() {
            Some(&b) if b == b'{' => { let f = |y: u8| move || y; f(0xC6)() }
            _ => 0xC7,
        }
    }
}

pub fn encode(out: &mut Vec<u8>) {
    out.push(magic::FRAME);
    out.push(0xC8); //~ wire-magic-registry
    let label = "mod magic { 0xC9 }";
    out.extend(label.bytes().map(|b| if b == b'}' { 0xCA } else { b })); //~ wire-magic-registry
}
