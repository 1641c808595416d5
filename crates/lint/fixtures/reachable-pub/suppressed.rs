//# path: crates/core/src/fake_api_suppressed.rs
// Fixture: a justified allow silences the rule.

// lint:allow(reachable-pub): exercising the suppression path
pub fn kept_on_purpose() -> u8 {
    1
}
