//! The offline-online performance model (§4.4, Eq. 5).
//!
//! The model decides, per system, whether compression pays off end to end
//! and with which encoder and layer-aggregation factor `m`:
//!
//! * **offline**: the communication throughput tables `C^[x]` come from
//!   the network substrate (here, closures over `compso-comm`'s lookup
//!   tables — the crate stays decoupled from the comm layer);
//! * **online**: an [`OnlineProfiler`] records the first `k` warm-up
//!   iterations' compressed sizes and (de)compression throughputs on real
//!   gradients, averaged into a [`CompressorProfile`];
//! * **Eq. 5**: `s = (Σ L_o / C_o) / (L_c / C_c + Σ L_o / T_c + L_c / T_d)`
//!   — estimated original-communication time over estimated
//!   compress+communicate+decompress time;
//! * **end-to-end** (§4.4's closing formula):
//!   `((1 − r) + r / s)⁻¹` for communication fraction `r`.

use crate::encoders::Codec;
use std::time::Instant;

/// Averaged compressor behaviour measured over the warm-up iterations.
#[derive(Clone, Copy, Debug)]
pub struct CompressorProfile {
    /// Mean compression ratio (original bytes / compressed bytes).
    pub ratio: f64,
    /// Compression throughput over *original* bytes, bytes/second
    /// (the paper's `T_o`).
    pub compress_tput: f64,
    /// Decompression throughput over *compressed* bytes, bytes/second
    /// (the paper's `T_c`).
    pub decompress_tput: f64,
}

/// Records warm-up iteration measurements (the "first k iterations" of
/// §4.4).
#[derive(Clone, Debug, Default)]
pub struct OnlineProfiler {
    samples: Vec<(u64, u64, f64, f64)>, // (orig bytes, comp bytes, comp s, decomp s)
}

impl OnlineProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one compression event.
    pub fn record(&mut self, orig_bytes: u64, comp_bytes: u64, comp_secs: f64, decomp_secs: f64) {
        self.samples
            .push((orig_bytes, comp_bytes, comp_secs, decomp_secs));
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Aggregates the samples into a profile.
    ///
    /// Returns `None` until at least one sample exists.
    pub fn profile(&self) -> Option<CompressorProfile> {
        if self.samples.is_empty() {
            return None;
        }
        let (mut orig, mut comp, mut ct, mut dt) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for &(o, c, cs, ds) in &self.samples {
            orig += o as f64;
            comp += c as f64;
            ct += cs;
            dt += ds;
        }
        Some(CompressorProfile {
            ratio: if comp > 0.0 {
                orig / comp
            } else {
                f64::INFINITY
            },
            compress_tput: if ct > 0.0 { orig / ct } else { f64::INFINITY },
            decompress_tput: if dt > 0.0 { comp / dt } else { f64::INFINITY },
        })
    }
}

/// Eq. 5: communication speedup from compressing `l_o` original bytes to
/// `l_c`, given communication throughputs for each size and the measured
/// compressor profile.
pub fn comm_speedup(
    l_o: f64,
    l_c: f64,
    comm_tput_original: f64,
    comm_tput_compressed: f64,
    profile: &CompressorProfile,
) -> f64 {
    let t_original = l_o / comm_tput_original;
    let t_compressed =
        l_c / comm_tput_compressed + l_o / profile.compress_tput + l_c / profile.decompress_tput;
    if t_compressed <= 0.0 {
        return f64::INFINITY;
    }
    t_original / t_compressed
}

/// §4.4's end-to-end estimate: with communication fraction `r` of the
/// iteration and communication speedup `s`, the whole-iteration gain is
/// `((1 − r) + r / s)⁻¹`.
pub fn end_to_end_gain(r: f64, s: f64) -> f64 {
    assert!((0.0..=1.0).contains(&r), "communication fraction {r}");
    assert!(s > 0.0, "speedup must be positive");
    1.0 / ((1.0 - r) + r / s)
}

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

/// Predicted achieved overlap fraction of a pipelined gather:
/// `1 − wait / wall`, where `wait` is the exposed wire time — the
/// steady-state excess of communication over compute plus the fill
/// bubble, `max(comm − compute, 0) + min(comm, compute) / stages`. This
/// is the model-side counterpart of the measured
/// `1 − comm/pipeline/wait ÷ kfac/step/allgather` in `StepReport`.
/// Returns 0 when nothing runs (`wall == 0`) or when there is no compute
/// to hide the wire behind.
pub fn predicted_overlap_frac(compute_s: f64, comm_s: f64, stages: usize) -> f64 {
    let g = stages.max(1) as f64;
    let wall = pipelined_wall(compute_s, comm_s, stages);
    if wall <= 0.0 {
        return 0.0;
    }
    let wait = (comm_s - compute_s).max(0.0) + comm_s.min(compute_s) / g;
    (1.0 - wait / wall).clamp(0.0, 1.0)
}

/// Searches the layer-aggregation factor `m` maximizing the estimated
/// end-to-end gain (§4.4's "we find the m such that the end-to-end
/// speedup is high").
///
/// `layer_bytes` are the per-layer original gradient sizes this rank
/// all-gathers; `comm_tput(bytes)` is the offline lookup-table query; the
/// profile supplies ratio and (de)compression throughput; `overlap_tput`
/// is the rate at which the optimizer *produces* per-layer gradients
/// (bytes/s), which prices the overlap lost to aggregation: a group's
/// communication cannot start until its last member is computed, so on
/// average `(m − 1)/(2m)` of the group's production time becomes a
/// serialization bubble. Aggregation therefore wins on many small layers
/// (per-message latency amortizes) and loses on few large ones — the
/// behaviour COMPSO-p exploits over COMPSO-f in Fig. 9.
pub fn choose_aggregation(
    layer_bytes: &[u64],
    comm_tput: impl Fn(f64) -> f64,
    profile: &CompressorProfile,
    overlap_tput: f64,
    max_m: usize,
) -> usize {
    assert!(max_m >= 1);
    assert!(overlap_tput > 0.0);
    if layer_bytes.is_empty() {
        return 1;
    }
    let mut best_m = 1usize;
    let mut best_time = f64::INFINITY;
    for m in 1..=max_m {
        let mut total = 0.0f64;
        for group in layer_bytes.chunks(m) {
            let l_o: f64 = group.iter().map(|&b| b as f64).sum();
            let l_c = l_o / profile.ratio;
            let t_comm = l_c / comm_tput(l_c).max(1.0);
            let t_comp = l_o / profile.compress_tput + l_c / profile.decompress_tput;
            let g = group.len() as f64;
            let bubble = if g > 1.0 {
                (l_o / overlap_tput) * (g - 1.0) / (2.0 * g)
            } else {
                0.0
            };
            total += t_comm + t_comp + bubble;
        }
        if total < best_time {
            best_time = total;
            best_m = m;
        }
    }
    best_m
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
/// [`crate::kernels::KernelConfig`] default).
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

/// Measured behaviour of one candidate encoder on sampled real data
/// (the §4.4 encoder-selection step).
#[derive(Clone, Copy, Debug)]
pub struct EncoderMeasurement {
    /// The candidate.
    pub codec: Codec,
    /// Sample size fed to the encoder.
    pub original_bytes: u64,
    /// Compressed size over the sample.
    pub compressed_bytes: u64,
    /// Encode throughput, bytes of input/second.
    pub encode_tput: f64,
    /// Decode throughput, bytes of compressed input/second.
    pub decode_tput: f64,
}

/// Benchmarks every codec on a byte sample (quantized gradient data from
/// the warm-up iterations) and returns the measurements, Table 2 style.
pub fn measure_encoders(sample: &[u8]) -> Vec<EncoderMeasurement> {
    Codec::all()
        .into_iter()
        .map(|codec| {
            let t0 = Instant::now();
            let enc = codec.encode(sample);
            let enc_secs = t0.elapsed().as_secs_f64().max(1e-9);
            let t1 = Instant::now();
            let dec = codec.decode(&enc).expect("self-encoded stream must decode");
            let dec_secs = t1.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(dec.len(), sample.len());
            EncoderMeasurement {
                codec,
                original_bytes: sample.len() as u64,
                compressed_bytes: enc.len() as u64,
                encode_tput: sample.len() as f64 / enc_secs,
                decode_tput: enc.len() as f64 / dec_secs,
            }
        })
        .collect()
}

/// Selects the encoder minimizing estimated per-byte pipeline time:
/// communicate the compressed bytes at `comm_tput`, plus encode and
/// decode overheads ("we use the encoder with smaller L_c and low overall
/// compression overhead").
pub fn choose_encoder(measurements: &[EncoderMeasurement], comm_tput: f64) -> Codec {
    assert!(!measurements.is_empty());
    // Time to push the whole sample through the pipeline:
    // encode + transmit compressed + decode compressed.
    let total = |m: &EncoderMeasurement| {
        m.original_bytes as f64 / m.encode_tput
            + m.compressed_bytes as f64 / comm_tput
            + m.compressed_bytes as f64 / m.decode_tput
    };
    // `total_cmp`: an empty sample prices every codec at 0/0. Ties go to
    // the lower codec index.
    measurements
        .iter()
        .min_by(|a, b| {
            total(a)
                .total_cmp(&total(b))
                .then(a.codec.tag().cmp(&b.codec.tag()))
        })
        .map(|m| m.codec)
        .expect("measurements is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(ratio: f64, ct: f64, dt: f64) -> CompressorProfile {
        CompressorProfile {
            ratio,
            compress_tput: ct,
            decompress_tput: dt,
        }
    }

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
    fn profiler_averages() {
        let mut p = OnlineProfiler::new();
        assert!(p.profile().is_none());
        p.record(1000, 100, 1e-3, 5e-4);
        p.record(3000, 200, 3e-3, 5e-4);
        let prof = p.profile().unwrap();
        assert!((prof.ratio - 4000.0 / 300.0).abs() < 1e-9);
        assert!((prof.compress_tput - 4000.0 / 4e-3).abs() < 1e-6);
        assert!((prof.decompress_tput - 300.0 / 1e-3).abs() < 1e-6);
    }

    #[test]
    fn eq5_paper_example() {
        // §4.4: 50% communication ratio and 10x communication speedup
        // give a 1.8x end-to-end gain.
        let gain = end_to_end_gain(0.5, 10.0);
        assert!((gain - 1.0 / (0.5 + 0.05)).abs() < 1e-12);
        assert!((gain - 1.818).abs() < 0.01, "gain {gain}");
    }

    #[test]
    fn speedup_grows_with_ratio() {
        let fast = profile(20.0, 50e9, 80e9);
        let slow = profile(5.0, 50e9, 80e9);
        let l_o = 100e6;
        let tput = 10e9;
        let s_fast = comm_speedup(l_o, l_o / fast.ratio, tput, tput, &fast);
        let s_slow = comm_speedup(l_o, l_o / slow.ratio, tput, tput, &slow);
        assert!(s_fast > s_slow, "{s_fast} vs {s_slow}");
        // With compression at 50 GB/s against a 10 GB/s network, the
        // compressor overhead caps the speedup well below the raw ratio.
        assert!(s_fast > 3.0 && s_fast < 10.0, "s_fast {s_fast}");
    }

    #[test]
    fn slow_compressor_can_lose() {
        // A 20x ratio is useless if compression runs at network speed.
        let bad = profile(20.0, 5e9, 5e9);
        let l_o = 100e6;
        let tput = 10e9; // network as fast as the compressor
        let s = comm_speedup(l_o, l_o / bad.ratio, tput, tput, &bad);
        assert!(s < 2.0, "s {s}");
    }

    #[test]
    fn end_to_end_degenerates_to_one_without_communication() {
        assert!((end_to_end_gain(0.0, 100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_equals_s_when_all_communication() {
        assert!((end_to_end_gain(1.0, 7.0) - 7.0).abs() < 1e-12);
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

    #[test]
    fn predicted_overlap_grows_with_stages_and_needs_compute() {
        // No compute → nothing can hide the wire → zero overlap.
        assert_eq!(predicted_overlap_frac(0.0, 3.0, 8), 0.0);
        // Nothing running at all → zero, not NaN.
        assert_eq!(predicted_overlap_frac(0.0, 0.0, 8), 0.0);
        // More stages hide more of the shorter side.
        let f2 = predicted_overlap_frac(2.0, 3.0, 2);
        let f8 = predicted_overlap_frac(2.0, 3.0, 8);
        assert!(f8 > f2, "{f8} vs {f2}");
        assert!((0.0..=1.0).contains(&f2) && (0.0..=1.0).contains(&f8));
        // Balanced compute == comm with many stages → near-total overlap.
        assert!(predicted_overlap_frac(3.0, 3.0, 1_000_000) > 0.999);
        // Consistency with the wall model: wall == compute + wait when
        // comm dominates (every non-hidden wire second is a wait).
        let (c, w, g) = (1.5, 4.0, 6);
        let wait = (w - c) + c / g as f64;
        let wall = pipelined_wall(c, w, g);
        assert!((predicted_overlap_frac(c, w, g) - (1.0 - wait / wall)).abs() < 1e-12);
    }

    #[test]
    fn aggregation_prefers_grouping_small_layers() {
        // Many tiny layers + a lookup table with poor small-message
        // throughput -> the model should pick m > 1.
        let layers = vec![64_000u64; 48]; // 64 KB layers
        let prof = profile(20.0, 40e9, 60e9);
        // Effective throughput ramps to 12.5 GB/s with 1 MB half-saturation.
        let tput = |bytes: f64| 12.5e9 * bytes / (bytes + 1_000_000.0);
        let m = choose_aggregation(&layers, tput, &prof, 50e9, 16);
        assert!(m > 1, "m {m}");
    }

    #[test]
    fn aggregation_keeps_large_layers_separate() {
        // Large layers already saturate the network; the bubble term makes
        // aggregation pointless.
        let layers = vec![512_000_000u64; 8];
        let prof = profile(20.0, 40e9, 60e9);
        let tput = |bytes: f64| 12.5e9 * bytes / (bytes + 1_000_000.0);
        let m = choose_aggregation(&layers, tput, &prof, 50e9, 16);
        assert!(m <= 2, "m {m}");
    }

    #[test]
    fn aggregation_handles_empty_input() {
        let prof = profile(20.0, 40e9, 60e9);
        assert_eq!(choose_aggregation(&[], |_| 1e9, &prof, 50e9, 16), 1);
    }

    #[test]
    fn encoder_selection_picks_a_sane_codec_on_gradient_codes() {
        use crate::quantize::Quantizer;
        use crate::rounding::RoundingMode;
        use crate::synthetic::{generate, GradientProfile};
        use compso_tensor::rng::Rng;
        let grads = generate(200_000, 1, GradientProfile::kfac());
        let mut rng = Rng::new(2);
        let quant = Quantizer::relative(4e-3, RoundingMode::Stochastic).quantize(&grads, &mut rng);
        let bytes: Vec<u8> = quant.codes.iter().map(|&c| (c & 0xFF) as u8).collect();
        // The measurements are real wall-clock timings; on a loaded
        // single-core test runner one preempted encode can distort a
        // codec's throughput enough to flip the fast-network choice, so
        // allow a few fresh measurement rounds before declaring the
        // selection model wrong. A genuinely broken model (bad size
        // accounting, ratio-blind choice) fails every round the same way.
        let mut last_err = String::new();
        for _attempt in 0..3 {
            let ms = measure_encoders(&bytes);
            assert_eq!(ms.len(), 8);
            // On a bandwidth-starved network the codec with the best size
            // wins outright — and on gradient codes that is an entropy
            // coder (Table 2's headline finding).
            let slow_net = choose_encoder(&ms, 1e6);
            if !slow_net.is_entropy_coding() {
                last_err = format!("slow network chose {}", slow_net.name());
                continue;
            }
            // On a fast network the choice balances throughput too;
            // whatever wins must still be within 4x of the best achievable
            // size, i.e. never a ratio disaster.
            let fast_net = choose_encoder(&ms, 25e9);
            let chosen_m = ms.iter().find(|m| m.codec == fast_net).unwrap();
            let best_size = ms.iter().map(|m| m.compressed_bytes).min().unwrap();
            if chosen_m.compressed_bytes > best_size * 4 {
                last_err = format!(
                    "chose {} at {} vs best {}",
                    fast_net.name(),
                    chosen_m.compressed_bytes,
                    best_size
                );
                continue;
            }
            return;
        }
        panic!("encoder selection failed 3 measurement rounds: {last_err}");
    }

    #[test]
    fn encoder_selection_is_total_on_an_empty_sample() {
        // Nothing to time: every cost is 0/0, the choice is a tie, and a
        // tie goes to the first codec of the menu instead of a panic.
        let ms = measure_encoders(&[]);
        assert_eq!(ms.len(), 8);
        assert_eq!(choose_encoder(&ms, 1e6), Codec::Ans);
        // Ties break on the codec index, not on the slice order.
        let reversed: Vec<_> = ms.into_iter().rev().collect();
        assert_eq!(choose_encoder(&reversed, 25e9), Codec::Ans);
    }

    #[test]
    #[should_panic(expected = "communication fraction")]
    fn invalid_fraction_panics() {
        end_to_end_gain(1.5, 2.0);
    }
}
