//# path: crates/ctrl/src/fake_controller.rs
// Fixture: impurity reachable from a determinism-critical root fires at
// the impurity site (three calls below `observe`), not at the root.

impl Controller {
    pub fn observe(&mut self, s: &Signals) -> Decision {
        let jitter = sample_jitter();
        self.decide_with(s, jitter, now())
    }
}

fn sample_jitter() -> u64 {
    Instant::now().elapsed().as_nanos() as u64 //~ deterministic-state
}

// A helper named like the transport clock's entry point is no one's
// audit outside crates/comm/src/clock.rs.
fn now() -> u64 {
    Instant::now().elapsed().as_nanos() as u64 //~ deterministic-state
}
