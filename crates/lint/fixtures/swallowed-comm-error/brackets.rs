//# path: crates/comm/src/fake_brackets.rs
// Fixture: brackets and `;` inside string, char, byte and raw-string
// literals, lifetimes, nested closures and a match arm block do not move
// where a `let _ = …;` statement ends.

impl<'a> Group<'a> {
    pub fn close(&mut self, why: &'a str) -> Result<(), CommError> {
        let _ = self.send(0, format!("{why} ({}) [{}];", '{', "}").into_bytes()); //~ swallowed-comm-error
        let _ = r#"let _ = self.barrier();"#;
        let _ = self.note(b'(', |x: u8| { let y = x; y });
        let _ = match why {
            "}" => { self.log("{"); self.barrier() } //~ swallowed-comm-error
            _ => Ok(()),
        };
        let _ = self.barrier()?;
        Ok(())
    }
}
