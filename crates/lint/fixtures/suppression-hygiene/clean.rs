//# path: crates/comm/src/fake_hygiene_clean.rs
// Fixture: a well-formed allow (known rule, non-empty reason) is clean.

impl Group {
    pub fn annotated(&mut self) -> Result<(), CommError> {
        if self.my_rank == 0 {
            // lint:allow(collective-order): a one-rank group by construction in the only caller
            self.barrier()?;
        }
        Ok(())
    }
}
