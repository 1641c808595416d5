//! The origin keeps what it sent: a `ChunkedCompso` group compressed
//! with a schedule and then decoded on the same thread comes back as the
//! values the compressor wrote while it wrote the codes. Those must be
//! the decoder's values bit for bit — a peer decodes the same bytes cold
//! and installs what it gets — so every case here decodes the stream
//! once on a thread that never saw it and compares.

use compso::core::{
    BoundSchedule, ChunkedCompso, Compressor, CompsoConfig, LayerSchedule, RoundingMode,
};
use compso::obs::{names, Recorder};
use compso::tensor::Rng;

/// The group's tile: small, so the layers span several chunks.
const TILE: usize = 1024;

/// One group holding every shape the reconstruction has a branch for.
fn layers(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed);
    // One tile over the full range, then a tile the filter drops whole.
    let mut split: Vec<f32> = (0..TILE).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    split.extend((0..300).map(|_| rng.range_f32(-1e-6, 1e-6)));
    let mut with_nan: Vec<f32> = (0..2500).map(|_| rng.laplace(0.01)).collect();
    for v in with_nan.iter_mut().step_by(37) {
        *v = f32::NAN;
    }
    let wide: Vec<f32> = (0..3 * TILE).map(|_| rng.range_f32(-10.0, 10.0)).collect();
    // Coded over its finite values, the infinities saturating.
    let mut with_inf: Vec<f32> = (0..1500).map(|_| rng.laplace(0.01)).collect();
    with_inf[100] = f32::INFINITY;
    with_inf[1200] = f32::NEG_INFINITY;
    vec![
        split,
        Vec::new(),
        vec![0.25; 600],
        with_nan,
        vec![f32::NAN; 40],
        // `eb × range` underflows: the bin width is the least subnormal.
        vec![0.0, 1e-44, 4e-45, 1e-45],
        wide,
        with_inf,
        vec![f32::INFINITY; 50],
    ]
}

/// Both strategies of Alg. 1's step schedule under every rounding mode,
/// and a bound fine enough for more than 2¹⁶ bins: ⌈1 / 1e-5⌉ = 100 000,
/// 17-bit codes.
fn configs() -> Vec<CompsoConfig> {
    let schedule = BoundSchedule::step_paper(1);
    let modes = [
        RoundingMode::Stochastic,
        RoundingMode::Nearest,
        RoundingMode::HalfProbability,
    ];
    let mut configs: Vec<CompsoConfig> = [schedule.config_at(0), schedule.config_at(1)]
        .into_iter()
        .flat_map(|c| modes.map(|m| c.with_mode(m)))
        .collect();
    configs.extend([
        CompsoConfig::conservative(1e-5),
        CompsoConfig::aggressive(1e-5),
    ]);
    configs
}

fn bits(layers: &[Vec<f32>]) -> Vec<Vec<u32>> {
    layers
        .iter()
        .map(|l| l.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn a_handed_back_group_equals_a_cold_decode_bit_for_bit() {
    for (i, config) in configs().into_iter().enumerate() {
        let c = ChunkedCompso::new(config);
        let layers = layers(40 + i as u64);
        let refs: Vec<&[f32]> = layers.iter().map(Vec::as_slice).collect();
        let sizes: Vec<usize> = layers.iter().map(Vec::len).collect();
        let schedule = LayerSchedule::build(&sizes, TILE);
        let stream = c.compress_group(
            &refs,
            Some(&schedule),
            &mut Rng::new(7),
            &Recorder::disabled(),
        );
        let cold = std::thread::scope(|s| {
            s.spawn(|| c.decompress_group(&stream, &Recorder::disabled()))
                .join()
                .expect("the cold decode does not panic")
        })
        .expect("every group decodes");

        let rec = Recorder::enabled();
        let own = c
            .decompress_group(&stream, &rec)
            .expect("the hand-back is Ok");
        let snap = rec.snapshot();
        assert_eq!(snap.counter(names::CORE_OWN_FRAME_HITS), 1, "{config:?}");
        assert!(!snap.timers.contains_key(names::CORE_DECODE), "{config:?}");
        assert_eq!(snap.counter(names::CORE_DECODE_BYTES_IN), 0, "{config:?}");
        assert_eq!(bits(&own), bits(&cold), "{config:?}");
    }
}
