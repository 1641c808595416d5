//# path: crates/tensor/src/fake_wide_suppressed.rs
// Fixture: an audited exception carries its reason next to the claim.

pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    // lint:allow(instance-selection): no instance runs this; a reference curve printed beside the table, never on the value path
    (b - a).mul_add(t, a)
}
