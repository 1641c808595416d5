//! The compressor's side of the §4.4 performance model: the chunk tile
//! the codec picks for a workload ([`choose_chunk_elems`]) and the wall
//! clock of a pipelined gather ([`pipelined_wall`]). Pricing a step —
//! Eq. 5, the encoder and aggregation choices, compressor profiles — is
//! `compso-sim`'s job.

/// Wall-clock of a gather whose compression compute (`compute_s`:
/// compress + decompress seconds) is pipelined against its wire time
/// (`comm_s`) in `stages` slots: the longer side hides the shorter
/// except for one slot's worth of pipeline fill,
/// `max + min / stages`. With `stages == 1` this degenerates to the
/// serial `compute + comm` sum; as `stages → ∞` it approaches perfect
/// overlap `max(compute, comm)`.
pub fn pipelined_wall(compute_s: f64, comm_s: f64, stages: usize) -> f64 {
    let g = stages.max(1) as f64;
    compute_s.max(comm_s) + compute_s.min(comm_s) / g
}

/// Modeled parallel width of the chunked-kernel sweep, in workers. This
/// is a **fixed model constant**, deliberately *not* the live thread
/// count: the chunk choice feeds stochastic-rounding RNG forks, so it
/// must be identical on every rank and every machine for replicas to
/// stay bit-identical. 64 is the §4.4 model's saturation point — beyond
/// one chunk per modeled worker, smaller tiles only add per-chunk
/// header + extrema overhead without exposing more parallelism.
pub const MODELED_PARALLEL_WIDTH: usize = 64;

/// Chunk tile size (in elements) the §4.4 overhead model picks for a
/// workload of `total_elems` elements, floored at `floor` (the fixed
/// [`crate::kernels::CHUNK_ELEMS`]).
///
/// The model: per-chunk cost has a fixed part (header records, extrema
/// reduction setup, RNG fork) and a linear part, so throughput rises
/// with chunk size until the chunk count drops below the modeled
/// worker width and load balance collapses. The optimum is therefore
/// "as large as possible while keeping every modeled worker busy":
/// `total / MODELED_PARALLEL_WIDTH`, rounded up to a power of two for
/// alignment, floored at `floor`.
///
/// Pure in `total_elems` — see [`MODELED_PARALLEL_WIDTH`] for why. For
/// any workload below `floor × MODELED_PARALLEL_WIDTH` elements (1 Mi
/// with the defaults) the choice equals `floor`, so small-model
/// training is bit-identical with and without adaptive chunking.
pub fn choose_chunk_elems(total_elems: usize, floor: usize) -> usize {
    assert!(floor > 0, "chunk floor must be positive");
    let target = total_elems.div_ceil(MODELED_PARALLEL_WIDTH).max(1);
    target.next_power_of_two().max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_choice_floors_small_workloads_at_default() {
        let floor = 16 * 1024;
        // Everything up to floor × width collapses to the fixed default,
        // so training-regime buffers chunk identically with and without
        // the adaptive model.
        for total in [
            0usize,
            1,
            1000,
            floor,
            64 * floor,
            floor * MODELED_PARALLEL_WIDTH,
        ] {
            assert_eq!(choose_chunk_elems(total, floor), floor, "total {total}");
        }
    }

    #[test]
    fn chunk_choice_scales_with_large_workloads() {
        let floor = 16 * 1024;
        let big = 64 * 1024 * 1024; // 64 Mi elements
        let chosen = choose_chunk_elems(big, floor);
        assert!(chosen > floor, "chosen {chosen}");
        // Power of two, and the chunk count stays near the modeled width.
        assert!(chosen.is_power_of_two());
        let chunks = big.div_ceil(chosen);
        assert!(
            (MODELED_PARALLEL_WIDTH / 2..=MODELED_PARALLEL_WIDTH).contains(&chunks),
            "chunks {chunks}"
        );
        // Monotone in the workload and deterministic.
        assert!(choose_chunk_elems(2 * big, floor) >= chosen);
        assert_eq!(choose_chunk_elems(big, floor), chosen);
    }

    #[test]
    fn pipelined_wall_interpolates_serial_to_perfect_overlap() {
        // One stage = no overlap at all: compute + comm.
        assert!((pipelined_wall(2.0, 3.0, 1) - 5.0).abs() < 1e-12);
        // Four stages: max + min/4.
        assert!((pipelined_wall(2.0, 3.0, 4) - 3.5).abs() < 1e-12);
        // Many stages approach max(compute, comm).
        assert!(pipelined_wall(2.0, 3.0, 1_000_000) - 3.0 < 1e-5);
        // stages == 0 is clamped to 1, not a division blowup.
        assert!((pipelined_wall(2.0, 3.0, 0) - 5.0).abs() < 1e-12);
        // Symmetric in which side is longer.
        assert!((pipelined_wall(3.0, 2.0, 4) - pipelined_wall(2.0, 3.0, 4)).abs() < 1e-12);
    }
}
