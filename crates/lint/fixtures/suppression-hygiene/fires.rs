//# path: crates/comm/src/fake_hygiene.rs
// Fixture: suppressions are part of the invariant surface — a missing
// reason or an unknown rule name is itself a finding.

impl Group {
    pub fn missing_reason(&mut self) -> Result<(), CommError> {
        if self.my_rank == 0 {
            // lint:allow(collective-order) //~ suppression-hygiene
            self.barrier()?;
        }
        Ok(())
    }
}

pub fn unknown_rule(x: Option<u32>) -> u32 {
    // lint:allow(no-such-rule): reason text //~ suppression-hygiene
    x.unwrap_or(0)
}
