//# path: crates/core/src/fake_brackets.rs
// Fixture: brackets and `;` inside string, char, byte and raw-string
// literals, lifetimes, nested closures and a match arm block do not move
// where a statement or an allocation's length ends.

pub fn decode_labels<'a>(r: &mut Reader<'a>) -> Result<Vec<&'a str>, WireError> {
    let n = r.u32()? as usize;
    let sep = "; ]";
    let open = '[';
    let mark = b';';
    let raw = r#"vec![0; n]"#;
    let out = Vec::with_capacity(n); //~ unchecked-length-prefix
    Ok(out)
}

pub fn decode_grid(r: &mut Reader) -> Result<Vec<Vec<u8>>, WireError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let total = |x: usize| (0..x).map(|i| { let s = "]"; i + s.len() }).count();
    let grid = vec![vec![b']'; 2]; rows]; //~ unchecked-length-prefix
    match r.tag()? {
        0 => {
            let head = b"{ [";
            let empty = vec![0u8; cols]; //~ unchecked-length-prefix
            Ok(empty)
        }
        _ => Ok(grid),
    }
}

pub fn decode_checked(r: &mut Reader) -> Result<Vec<u8>, WireError> {
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(WireError::Truncated);
    }
    let buf = vec![b'['; n];
    Ok(buf)
}
