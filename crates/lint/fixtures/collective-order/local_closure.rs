//# path: crates/kfac/src/fake_local.rs
// Fixture: a call of a local closure is not a call of the global fn of
// its name. `tile` binds its own `step`, so it is not collective and may
// run under a rank-conditional branch.

fn step(c: &mut Communicator) -> Result<(), CommError> {
    c.allreduce_sum(&mut [0.0f32; 4])
}

fn tile(x: &[f32]) -> f32 {
    let step = |a: f32| a * 2.0;
    step(x[0])
}

pub fn report(c: &mut Communicator, rank: usize, x: &[f32]) -> Result<f32, CommError> {
    step(c)?;
    if rank == 0 {
        return Ok(tile(x));
    }
    Ok(0.0)
}
