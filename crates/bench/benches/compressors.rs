//! Criterion: whole-compressor throughput (the Fig. 8 microbenchmark).

use compso_core::baselines::{CocktailSgd, Qsgd, Sz};
use compso_core::synthetic::{generate, GradientProfile};
use compso_core::{ChunkedCompso, Compressor, CompsoConfig};
use compso_tensor::Rng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const ELEMS: usize = 1 << 20; // 4 MiB of f32

fn compressors() -> Vec<(&'static str, Box<dyn Compressor>)> {
    vec![
        (
            "compso-aggressive",
            Box::new(ChunkedCompso::new(CompsoConfig::aggressive(4e-3))),
        ),
        (
            "compso-conservative",
            Box::new(ChunkedCompso::new(CompsoConfig::conservative(4e-3))),
        ),
        ("qsgd-8bit", Box::new(Qsgd::bits8())),
        ("qsgd-4bit", Box::new(Qsgd::bits4())),
        ("sz-4e-3", Box::new(Sz::new(4e-3))),
        ("cocktail", Box::new(CocktailSgd::standard())),
    ]
}

fn bench_compress(c: &mut Criterion) {
    let data = generate(ELEMS, 1, GradientProfile::kfac());
    let mut group = c.benchmark_group("compress");
    group.throughput(Throughput::Bytes((ELEMS * 4) as u64));
    group.sample_size(10);
    for (name, comp) in compressors() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &data, |b, data| {
            let mut rng = Rng::new(2);
            b.iter(|| comp.compress(data, &mut rng));
        });
    }
    group.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let data = generate(ELEMS, 3, GradientProfile::kfac());
    let mut group = c.benchmark_group("decompress");
    group.throughput(Throughput::Bytes((ELEMS * 4) as u64));
    group.sample_size(10);
    for (name, comp) in compressors() {
        let mut rng = Rng::new(4);
        let bytes = comp.compress(&data, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(name), &bytes, |b, bytes| {
            b.iter(|| comp.decompress(bytes).unwrap());
        });
    }
    group.finish();
}

/// The no-op recorder acceptance check: compressing 16 MiB with a
/// disabled recorder (every record call is one `Option` branch) beside
/// the same call with recording on.
fn bench_noop_recorder_overhead(c: &mut Criterion) {
    let elems = 4 << 20; // 16 MiB of f32
    let data = generate(elems, 5, GradientProfile::kfac());
    let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));
    let mut group = c.benchmark_group("noop-recorder-16MiB");
    group.throughput(Throughput::Bytes((elems * 4) as u64));
    group.sample_size(10);
    for (arm, rec) in [
        ("disabled", compso_obs::Recorder::disabled()),
        ("enabled", compso_obs::Recorder::enabled()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(arm), &data, |b, data| {
            let mut rng = Rng::new(6);
            b.iter(|| compso.compress_group(&[data], None, &mut rng, &rec));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compress,
    bench_decompress,
    bench_noop_recorder_overhead
);
criterion_main!(benches);
