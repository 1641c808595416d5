//! Criterion: the §4.5 kernel-structure ablations — fusion, extrema
//! reduction, chunk size.

use compso_core::kernels::{compress_chunked, decompress_chunked, KernelConfig, LayerSchedule};
use compso_core::synthetic::{generate, GradientProfile};
use compso_core::{Codec, CompsoConfig};
use compso_obs::Recorder;
use compso_tensor::reduce::{minmax_flat, minmax_hierarchical};
use compso_tensor::Rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const ELEMS: usize = 4 << 20; // 16 MiB of f32

fn bench_fusion(c: &mut Criterion) {
    let data = generate(ELEMS, 1, GradientProfile::kfac());
    // Bitcomp keeps the codec stage cheap so kernel structure dominates.
    let cfg = CompsoConfig::aggressive(4e-3).with_codec(Codec::Bitcomp);
    let mut group = c.benchmark_group("kernel-fusion");
    group.throughput(Throughput::Bytes((ELEMS * 4) as u64));
    group.sample_size(10);
    for (name, fused) in [("fused", true), ("staged", false)] {
        let kc = KernelConfig {
            fused,
            ..KernelConfig::default()
        };
        let schedule = LayerSchedule::build(&[data.len()], kc.chunk_elems);
        group.bench_with_input(BenchmarkId::from_parameter(name), &data, |b, data| {
            let rng = Rng::new(2);
            b.iter(|| compress_chunked(&[data], &cfg, &kc, &schedule, &rng, &Recorder::disabled()));
        });
    }
    group.finish();
}

fn bench_extrema(c: &mut Criterion) {
    let data = generate(16 << 20, 3, GradientProfile::kfac());
    let mut group = c.benchmark_group("extrema-reduction");
    group.throughput(Throughput::Bytes((data.len() * 4) as u64));
    group.sample_size(10);
    group.bench_function("flat-serial", |b| b.iter(|| minmax_flat(&data)));
    group.bench_function("hierarchical-parallel", |b| {
        b.iter(|| minmax_hierarchical(&data))
    });
    group.finish();
}

fn bench_chunk_size(c: &mut Criterion) {
    let data = generate(ELEMS, 4, GradientProfile::kfac());
    let cfg = CompsoConfig::aggressive(4e-3).with_codec(Codec::Bitcomp);
    let mut group = c.benchmark_group("chunk-size");
    group.throughput(Throughput::Bytes((ELEMS * 4) as u64));
    group.sample_size(10);
    for chunk in [4096usize, 16 * 1024, 64 * 1024, 256 * 1024] {
        let kc = KernelConfig {
            chunk_elems: chunk,
            ..KernelConfig::default()
        };
        let schedule = LayerSchedule::build(&[data.len()], chunk);
        group.bench_with_input(BenchmarkId::from_parameter(chunk), &data, |b, data| {
            let rng = Rng::new(5);
            b.iter(|| compress_chunked(&[data], &cfg, &kc, &schedule, &rng, &Recorder::disabled()));
        });
    }
    group.finish();
}

/// End-to-end round-trip (`compress_chunked` + `decompress_chunked`) at
/// 16 MiB with the default codec, so the number includes entropy coding —
/// the acceptance number for the hot path.
fn bench_e2e_roundtrip(c: &mut Criterion) {
    let data = generate(ELEMS, 7, GradientProfile::kfac());
    let cfg = CompsoConfig::aggressive(4e-3);
    let mut group = c.benchmark_group("e2e-roundtrip");
    group.throughput(Throughput::Bytes((ELEMS * 4) as u64));
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("chunked"), &data, |b, data| {
        let kc = KernelConfig::default();
        let schedule = LayerSchedule::build(&[data.len()], kc.chunk_elems);
        b.iter(|| {
            let rng = Rng::new(11);
            let bytes =
                compress_chunked(&[data], &cfg, &kc, &schedule, &rng, &Recorder::disabled());
            decompress_chunked(&bytes, &Recorder::disabled()).expect("roundtrip")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fusion,
    bench_extrema,
    bench_chunk_size,
    bench_e2e_roundtrip
);
criterion_main!(benches);
