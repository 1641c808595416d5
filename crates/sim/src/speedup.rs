//! The §4.4 performance model: compressor profiles, Eq. 5, the encoder
//! and aggregation choices, and the Fig. 7/9 estimators.
//!
//! * **online**: [`measure_profile`] times a compressor on warm-up
//!   gradients (the paper's "first k iterations") and [`gpu_profile`]
//!   translates the host's throughput to the simulated A100;
//! * **offline**: communication throughput `C^[x]` is the platform's
//!   α–β formula at that message size ([`Platform::broadcast_time`]);
//! * **Eq. 5**: `s = (Σ L_o / C_o) / (L_c / C_c + Σ L_o / T_c + L_c / T_d)`
//!   — estimated original-communication time over estimated
//!   compress+communicate+decompress time;
//! * **end-to-end** (§4.4's closing formula):
//!   `((1 − r) + r / s)⁻¹` for communication fraction `r`.

use crate::platform::Platform;
use crate::timing::IterationModel;
use compso_core::{Codec, Compressor};
use compso_dnn::ModelSpec;
use compso_tensor::Rng;
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

impl CompressorProfile {
    /// The profile of `orig_bytes` compressed to `comp_bytes` in
    /// `compress_s` seconds and decompressed in `decompress_s`: ratios of
    /// sums, so large layers weigh more than small ones.
    pub fn from_totals(
        orig_bytes: f64,
        comp_bytes: f64,
        compress_s: f64,
        decompress_s: f64,
    ) -> Self {
        CompressorProfile {
            ratio: orig_bytes / comp_bytes.max(1.0),
            compress_tput: orig_bytes / compress_s.max(1e-9),
            decompress_tput: comp_bytes / decompress_s.max(1e-9),
        }
    }
}

/// Measures a compressor's ratio and throughput on per-layer data,
/// producing the profile the performance model consumes.
pub fn measure_profile(
    compressor: &dyn Compressor,
    layers: &[Vec<f32>],
    seed: u64,
) -> CompressorProfile {
    let mut rng = Rng::new(seed);
    let (mut orig, mut comp, mut ct, mut dt) = (0u64, 0u64, 0.0f64, 0.0f64);
    for layer in layers {
        let t0 = Instant::now();
        let bytes = compressor.compress(layer, &mut rng);
        ct += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let back = compressor
            .decompress(&bytes)
            .expect("self-compressed stream must decode");
        dt += t1.elapsed().as_secs_f64();
        assert_eq!(back.len(), layer.len());
        orig += layer.len() as u64 * 4;
        comp += bytes.len() as u64;
    }
    CompressorProfile::from_totals(orig as f64, comp as f64, ct, dt)
}

/// Measures this host's effective single-stream memory bandwidth
/// (bytes/s) with a large copy — the normalizer for translating measured
/// CPU codec throughput to the simulated A100.
pub fn measure_membw() -> f64 {
    let n = 64 << 20;
    let src = vec![1u8; n];
    let mut dst = vec![0u8; n];
    // Warm-up + 3 timed passes.
    dst.copy_from_slice(&src);
    let t0 = Instant::now();
    for _ in 0..3 {
        dst.copy_from_slice(&src);
        std::hint::black_box(&dst);
    }
    // A copy moves 2n bytes per pass.
    (2 * 3 * n) as f64 / t0.elapsed().as_secs_f64()
}

/// Translates a CPU-measured codec profile to the simulated GPU platform.
///
/// §4.5 establishes that the (de)compression kernels are memory-bound
/// with O(1) arithmetic intensity, so their throughput scales with
/// memory bandwidth; the simulator therefore scales measured CPU
/// throughput by `gpu_membw / host_membw` (ratio is unchanged — it is a
/// property of the data, not the machine).
pub fn gpu_profile(p: &CompressorProfile, gpu_membw: f64, host_membw: f64) -> CompressorProfile {
    let scale = (gpu_membw / host_membw).max(1.0);
    CompressorProfile {
        ratio: p.ratio,
        compress_tput: p.compress_tput * scale,
        decompress_tput: p.decompress_tput * scale,
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

/// Searches the layer-aggregation factor `m` maximizing the estimated
/// end-to-end gain (§4.4's "we find the m such that the end-to-end
/// speedup is high").
///
/// `layer_bytes` are the per-layer original gradient sizes this rank
/// all-gathers; `comm_tput(bytes)` is the communication throughput at
/// that message size; the profile supplies ratio and (de)compression
/// throughput; `overlap_tput` is the rate at which the optimizer
/// *produces* per-layer gradients (bytes/s), which prices the overlap
/// lost to aggregation: a group's communication cannot start until its
/// last member is computed, so on average `(m − 1)/(2m)` of the group's
/// production time becomes a serialization bubble. Aggregation therefore
/// wins on many small layers (per-message latency amortizes) and loses on
/// few large ones — the behaviour COMPSO-p exploits over COMPSO-f in
/// Fig. 9.
pub(crate) fn choose_aggregation(
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

/// How the layer-aggregation factor is chosen (the Fig. 9 COMPSO-f vs.
/// COMPSO-p axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregationPolicy {
    /// Fixed factor (the paper fixes 4).
    Fixed(usize),
    /// Chosen by the §4.4 performance model per (model, platform, scale).
    PerformanceModel,
}

impl AggregationPolicy {
    /// Resolves the factor for a concrete configuration.
    pub fn resolve(
        self,
        spec: &ModelSpec,
        platform: &Platform,
        gpus: usize,
        profile: &CompressorProfile,
    ) -> usize {
        match self {
            AggregationPolicy::Fixed(m) => m,
            AggregationPolicy::PerformanceModel => choose_aggregation(
                &spec.layer_grad_bytes(),
                |bytes| bytes / platform.broadcast_time(gpus, bytes).max(1e-12),
                profile,
                platform.gpu_membw,
                16,
            ),
        }
    }
}

/// Communication speedup of the preconditioned-gradient phase
/// (compressed comm + codec overhead vs. raw comm) — the Fig. 7 metric.
/// Note Fig. 7 excludes codec overhead from the numerator's wire time but
/// the paper still reports wall-clock communication phases; we include
/// the overhead for honesty and report both pieces in the harness.
pub fn comm_speedup_on(
    model: &IterationModel,
    spec: &ModelSpec,
    gpus: usize,
    m: usize,
    profile: &CompressorProfile,
    include_codec_overhead: bool,
) -> f64 {
    let plain = model.breakdown(spec, gpus, 1, None);
    let comp = model.breakdown(spec, gpus, m, Some(profile));
    let compressed_cost = if include_codec_overhead {
        comp.grad_allgather + comp.compression
    } else {
        comp.grad_allgather
    };
    plain.grad_allgather / compressed_cost.max(1e-12)
}

/// End-to-end iteration speedup (the Fig. 9 metric).
pub fn end_to_end_gain_on(
    model: &IterationModel,
    spec: &ModelSpec,
    gpus: usize,
    policy: AggregationPolicy,
    profile: &CompressorProfile,
) -> f64 {
    let m = policy.resolve(spec, &model.platform, gpus, profile);
    let plain = model.breakdown(spec, gpus, 1, None).total();
    let comp = model.breakdown(spec, gpus, m, Some(profile)).total();
    plain / comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use compso_core::synthetic::{generate_layers, GradientProfile};

    fn profile(ratio: f64, ct: f64, dt: f64) -> CompressorProfile {
        CompressorProfile {
            ratio,
            compress_tput: ct,
            decompress_tput: dt,
        }
    }

    fn compso_profile() -> CompressorProfile {
        // Representative measured values: ~20x ratio, tens of GB/s codec.
        profile(20.0, 30e9, 50e9)
    }

    fn weak_profile() -> CompressorProfile {
        // QSGD-8bit style: ~5x ratio.
        profile(5.0, 40e9, 60e9)
    }

    /// Values captured before the network model and the step pricing
    /// moved into this crate: per (model, platform, GPUs), the bits of
    /// `breakdown(..).total()` at m = 1 without a compressor and at m = 4
    /// with [`compso_profile`], the performance model's `m`, and
    /// `overlap_frac` at m = 4.
    #[rustfmt::skip]
    const PINNED: [(&str, usize, usize, u64, u64, usize, f64); 24] = [
        ("ResNet-50", 1, 8, 0x3fb5dd00c6eed58b, 0x3fb4298dcc95ff58, 16, 3.6846455569859604e-1),
        ("ResNet-50", 1, 64, 0x3fb4aac7aa93ecf5, 0x3fad2af296579fe2, 16, 3.806740431225042e-2),
        ("ResNet-50", 1, 256, 0x3fc3130bc6951763, 0x3fb1f56b5040241c, 16, 9.759660503403156e-3),
        ("ResNet-50", 2, 8, 0x3fb39b1134f7ef88, 0x3fb2cf8a3aab7a9a, 16, 6.542045641599246e-1),
        ("ResNet-50", 2, 64, 0x3fae5e6551797acc, 0x3fa8f8512f8213ab, 16, 7.75614628567034e-2),
        ("ResNet-50", 2, 256, 0x3fb662d32d1fb40c, 0x3fabbe5f93ddaa12, 16, 2.1966733144067385e-2),
        ("Mask R-CNN", 1, 8, 0x3fcf0b9db65c07de, 0x3fcda2ce6918bcde, 16, 4.2950380979104275e-1),
        ("Mask R-CNN", 1, 64, 0x3fbfd9f1166aad1c, 0x3fb5a40cdfe4be77, 16, 4.345149867820852e-2),
        ("Mask R-CNN", 1, 256, 0x3fcc3520bdf81226, 0x3fb63c3adadbafe8, 16, 1.092025830030885e-2),
        ("Mask R-CNN", 2, 8, 0x3fccece4748aa109, 0x3fcc466ac79929ff, 16, 7.733473678987511e-1),
        ("Mask R-CNN", 2, 64, 0x3fb661aa2f01cc0a, 0x3fb1e23e268b2c31, 16, 8.974908075872645e-2),
        ("Mask R-CNN", 2, 256, 0x3fbe7158164a2c67, 0x3fb013b6319f82d1, 16, 2.4784899884248035e-2),
        ("BERT-large", 1, 8, 0x3fe14dc12dd1bf1b, 0x3fde6cab046958fd, 15, 7.312355528602702e-1),
        ("BERT-large", 1, 64, 0x3fe0da58afca2350, 0x3fd1ed6fc9f90c1a, 15, 6.784071186984064e-2),
        ("BERT-large", 1, 256, 0x3ff26fa0ab5abb40, 0x3fd388d7349a5f1e, 15, 1.5663947729460892e-2),
        ("BERT-large", 2, 8, 0x3fdd5694fdeacf52, 0x3fdb7d7661ec1913, 15, 9.817408133797308e-1),
        ("BERT-large", 2, 64, 0x3fd4ef78e8e603e5, 0x3fcc493f98a148bb, 15, 1.4920548850941295e-1),
        ("BERT-large", 2, 256, 0x3fe24b83a57b17f6, 0x3fcc10b93ee1587e, 15, 3.679605465071889e-2),
        ("GPT-neo-125M", 1, 8, 0x3fc3a788296a6295, 0x3fc13265ee9eae54, 16, 5.987860290179952e-1),
        ("GPT-neo-125M", 1, 64, 0x3fc59f35a177ebfa, 0x3fb8f598c3c2c1fc, 16, 5.818868591415827e-2),
        ("GPT-neo-125M", 1, 256, 0x3fd6f57cc2b0ae14, 0x3fbd8f8f67a60c3b, 16, 1.3891436843109006e-2),
        ("GPT-neo-125M", 2, 8, 0x3fc09f21deec2222, 0x3fbf09c9d25fec94, 16, 9.549089249562079e-1),
        ("GPT-neo-125M", 2, 64, 0x3fbc4179a11e9420, 0x3fb4529999526b9d, 16, 1.2462579597494716e-1),
        ("GPT-neo-125M", 2, 256, 0x3fc7f4e163901a19, 0x3fb5e9c3c9adbf91, 16, 3.219940361731122e-2),
    ];

    #[test]
    fn step_pricing_matches_the_pinned_table() {
        let prof = compso_profile();
        let mut rows = PINNED.iter();
        for spec in ModelSpec::all() {
            for (p, platform) in [(1, Platform::platform1()), (2, Platform::platform2())] {
                let model = IterationModel::new(platform.clone());
                for gpus in [8usize, 64, 256] {
                    let &(name, pin_p, pin_gpus, plain, comp, m, overlap) =
                        rows.next().expect("a pinned row per configuration");
                    let at = format!("{name} platform{p} @{gpus}");
                    assert_eq!((name, pin_p, pin_gpus), (spec.name, p, gpus), "{at}");
                    let t1 = model.breakdown(&spec, gpus, 1, None).total();
                    assert_eq!(t1.to_bits(), plain, "{at}: m = 1 total {t1}");
                    let t4 = model.breakdown(&spec, gpus, 4, Some(&prof)).total();
                    assert_eq!(t4.to_bits(), comp, "{at}: m = 4 total {t4}");
                    let chosen =
                        AggregationPolicy::PerformanceModel.resolve(&spec, &platform, gpus, &prof);
                    assert_eq!(chosen, m, "{at}: chosen m");
                    let f = model.overlap_frac(&spec, gpus, 4, Some(&prof));
                    assert!((f - overlap).abs() <= 1e-12 * overlap, "{at}: overlap {f}");
                }
            }
        }
        assert!(rows.next().is_none());
    }

    #[test]
    fn profile_is_a_ratio_of_sums() {
        // Two warm-up events, (orig, comp, compress s, decompress s):
        // (1000, 100, 1e-3, 5e-4) and (3000, 200, 3e-3, 5e-4).
        let prof = CompressorProfile::from_totals(
            1000.0 + 3000.0,
            100.0 + 200.0,
            1e-3 + 3e-3,
            5e-4 + 5e-4,
        );
        assert!((prof.ratio - 4000.0 / 300.0).abs() < 1e-9);
        assert!((prof.compress_tput - 4000.0 / 4e-3).abs() < 1e-6);
        assert!((prof.decompress_tput - 300.0 / 1e-3).abs() < 1e-6);
    }

    fn resnet_sample(scale_down: usize, seed: u64) -> Vec<Vec<f32>> {
        let sizes: Vec<usize> = ModelSpec::resnet50()
            .layers
            .iter()
            .map(|l| (l.grad_elems() / scale_down).max(16))
            .collect();
        generate_layers(&sizes, seed, GradientProfile::kfac())
    }

    #[test]
    fn measure_profile_no_compression_is_ratio_one() {
        let p = measure_profile(&compso_core::NoCompression, &resnet_sample(100, 2), 3);
        assert!(p.ratio > 0.9 && p.ratio <= 1.0, "ratio {}", p.ratio);
        assert!(p.compress_tput > 1e6);
    }

    #[test]
    fn measure_profile_compso_beats_ten_x() {
        let compso = compso_core::ChunkedCompso::new(compso_core::CompsoConfig::aggressive(4e-3));
        let p = measure_profile(&compso, &resnet_sample(25, 4), 5);
        assert!(p.ratio > 10.0, "ratio {}", p.ratio);
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
    #[should_panic(expected = "communication fraction")]
    fn invalid_fraction_panics() {
        end_to_end_gain(1.5, 2.0);
    }

    #[test]
    fn aggregation_prefers_grouping_small_layers() {
        // Many tiny layers + poor small-message throughput -> the model
        // should pick m > 1.
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

    /// One row per codec, shaped like a debug-build `measure_encoders` run
    /// on 200 000 quantized gradient codes: the entropy coders write the
    /// smallest output, the byte-wise coders run fastest, and `Cascaded` —
    /// the fastest encoder of all — expands the sample.
    fn gradient_code_rows() -> Vec<EncoderMeasurement> {
        let row = |codec, compressed_bytes, encode_tput, decode_tput| EncoderMeasurement {
            codec,
            original_bytes: 200_000,
            compressed_bytes,
            encode_tput,
            decode_tput,
        };
        vec![
            row(Codec::Ans, 59_198, 1.5e7, 7.8e6),
            row(Codec::Bitcomp, 200_106, 1.4e7, 2.1e7),
            row(Codec::Cascaded, 320_588, 3.6e7, 2.2e7),
            row(Codec::Deflate, 85_592, 6.2e6, 2.0e6),
            row(Codec::Gdeflate, 83_235, 8.2e6, 3.3e6),
            row(Codec::Lz4, 139_622, 1.9e7, 2.3e7),
            row(Codec::Snappy, 140_489, 1.9e7, 2.2e7),
            row(Codec::Zstd, 83_195, 7.7e6, 1.1e7),
        ]
    }

    #[test]
    fn encoder_selection_prices_size_on_a_slow_network_and_bounds_it_on_a_fast_one() {
        let rows = gradient_code_rows();
        let size = |codec| {
            rows.iter()
                .find(|m| m.codec == codec)
                .unwrap()
                .compressed_bytes
        };
        let best_size = rows.iter().map(|m| m.compressed_bytes).min().unwrap();
        // On a bandwidth-starved network the smallest output wins outright.
        assert_eq!(size(choose_encoder(&rows, 1e6)), best_size);
        // On a fast network the choice trades size for throughput, but
        // never into a ratio disaster: within 4x of the smallest output.
        for comm_tput in [1e8, 1e9, 1e10, 25e9, 1e11] {
            let chosen = choose_encoder(&rows, comm_tput);
            assert!(
                size(chosen) <= 4 * best_size,
                "{comm_tput:e} B/s chose {} at {} bytes vs {best_size}",
                chosen.name(),
                size(chosen)
            );
        }
        // The fastest encoder is not that pick: its bigger output costs
        // more decode time than its encode saves.
        assert_eq!(choose_encoder(&rows, 25e9), Codec::Lz4);
    }

    #[test]
    fn encoder_selection_sees_an_entropy_coder_smallest_on_gradient_codes() {
        use compso_core::quantize::Quantizer;
        use compso_core::rounding::RoundingMode;
        use compso_core::synthetic::generate;
        let grads = generate(200_000, 1, GradientProfile::kfac());
        let mut rng = Rng::new(2);
        let quant = Quantizer::relative(4e-3, RoundingMode::Stochastic).quantize(&grads, &mut rng);
        let bytes: Vec<u8> = quant.codes.iter().map(|&c| (c & 0xFF) as u8).collect();
        // Sizes only: the timings of a real run depend on the host.
        let ms = measure_encoders(&bytes);
        assert_eq!(ms.len(), 8);
        let smallest = ms.iter().min_by_key(|m| m.compressed_bytes).unwrap();
        assert!(
            smallest.codec.is_entropy_coding(),
            "smallest output came from {}",
            smallest.codec.name()
        );
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
    fn comm_speedup_tracks_ratio_ordering() {
        let model = IterationModel::new(Platform::platform1());
        let spec = ModelSpec::bert_large();
        let strong = comm_speedup_on(&model, &spec, 64, 8, &compso_profile(), false);
        let weak = comm_speedup_on(&model, &spec, 64, 8, &weak_profile(), false);
        assert!(strong > weak, "{strong} vs {weak}");
        // Per-message latency floors the speedup; aggregation (m=8 here)
        // lifts it toward the ratio, matching Fig. 7's 11-14x band.
        assert!(strong > 8.0 && strong < 30.0, "strong {strong}");
    }

    #[test]
    fn slower_network_benefits_more() {
        // §5.2: "With a slower network (e.g., Slingshot 10), the speedup
        // is greater than with a faster network".
        let spec = ModelSpec::bert_large();
        let p1 = IterationModel::new(Platform::platform1());
        let p2 = IterationModel::new(Platform::platform2());
        let g1 = end_to_end_gain_on(
            &p1,
            &spec,
            64,
            AggregationPolicy::Fixed(4),
            &compso_profile(),
        );
        let g2 = end_to_end_gain_on(
            &p2,
            &spec,
            64,
            AggregationPolicy::Fixed(4),
            &compso_profile(),
        );
        assert!(g1 > g2, "slow {g1} vs fast {g2}");
    }

    #[test]
    fn end_to_end_gain_in_paper_band() {
        // §5.4: up to 1.9x, 1.3x average.
        let model = IterationModel::new(Platform::platform1());
        let mut gains = Vec::new();
        for spec in ModelSpec::all() {
            for gpus in [8usize, 16, 32, 64] {
                gains.push(end_to_end_gain_on(
                    &model,
                    &spec,
                    gpus,
                    AggregationPolicy::Fixed(4),
                    &compso_profile(),
                ));
            }
        }
        let max = gains.iter().cloned().fold(0.0f64, f64::max);
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        assert!((1.2..2.6).contains(&max), "max gain {max}");
        assert!((1.05..2.0).contains(&avg), "avg gain {avg}");
    }

    #[test]
    fn performance_model_never_loses_to_fixed() {
        // Fig. 9: COMPSO-p ≥ COMPSO-f (that is the point of the model).
        let model = IterationModel::new(Platform::platform1());
        for spec in ModelSpec::all() {
            for gpus in [8usize, 64, 256] {
                let f = end_to_end_gain_on(
                    &model,
                    &spec,
                    gpus,
                    AggregationPolicy::Fixed(4),
                    &compso_profile(),
                );
                let p = end_to_end_gain_on(
                    &model,
                    &spec,
                    gpus,
                    AggregationPolicy::PerformanceModel,
                    &compso_profile(),
                );
                assert!(
                    p >= f * 0.98,
                    "{} @{gpus}: perf-model {p} vs fixed {f}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn gain_grows_with_gpu_count() {
        // Fig. 9's trend: compression pays more at scale.
        let model = IterationModel::new(Platform::platform1());
        let spec = ModelSpec::gpt_neo_125m();
        let g8 = end_to_end_gain_on(
            &model,
            &spec,
            8,
            AggregationPolicy::Fixed(4),
            &compso_profile(),
        );
        let g64 = end_to_end_gain_on(
            &model,
            &spec,
            64,
            AggregationPolicy::Fixed(4),
            &compso_profile(),
        );
        assert!(g64 > g8, "{g8} -> {g64}");
    }

    #[test]
    fn codec_overhead_reduces_but_does_not_erase_speedup() {
        let model = IterationModel::new(Platform::platform1());
        let spec = ModelSpec::resnet50();
        let without = comm_speedup_on(&model, &spec, 64, 4, &compso_profile(), false);
        let with = comm_speedup_on(&model, &spec, 64, 4, &compso_profile(), true);
        assert!(with <= without);
        assert!(with > 2.0, "with-overhead speedup {with}");
    }
}
