//! Figure 8: compressor throughput vs. input size.
//!
//! The paper compares fused CUDA implementations against PyTorch
//! multi-kernel ones on an A100. The CPU analogues (DESIGN.md §1):
//! single-threaded single-buffer compressors play the "PyTorch"
//! role (one pass per tensor op, no intra-buffer parallelism) — for
//! COMPSO, the staged kernels pinned to one thread, unfused and
//! unparallel — and the chunked-parallel kernels of
//! `compso_core::kernels` play the "CUDA" role, with the fused/staged
//! toggle reproducing the kernel-fusion ablation. Sizes sweep
//! 1 MB – 128 MB as in the figure.
//!
//! Paper shape: the parallel fused pipeline dominates the serial
//! implementations and its own staged variant; CocktailSGD (top-k with
//! sampling, serial) trails COMPSO's fused pipeline; SZ (prediction +
//! Huffman) is the slowest.

use compso_bench::{gbps, header, row};
use compso_core::baselines::{CocktailSgd, Qsgd, Sz};
use compso_core::kernels::{compress_chunked, KernelConfig, LayerSchedule};
use compso_core::synthetic::{generate, GradientProfile};
use compso_core::{Compressor, CompsoConfig};
use compso_obs::Recorder;
use compso_tensor::Rng;
use std::time::Instant;

fn time_compressor(c: &dyn Compressor, data: &[f32], reps: usize) -> f64 {
    let mut rng = Rng::new(9);
    let _ = c.compress(data, &mut rng); // warm-up
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(c.compress(data, &mut rng));
    }
    (data.len() * 4 * reps) as f64 / t0.elapsed().as_secs_f64()
}

fn time_chunked(data: &[f32], fused: bool, reps: usize) -> f64 {
    let cfg = CompsoConfig::aggressive(4e-3);
    let kc = KernelConfig {
        fused,
        ..KernelConfig::default()
    };
    let schedule = LayerSchedule::build(&[data.len()], kc.chunk_elems);
    let rng = Rng::new(9);
    let off = Recorder::disabled();
    let _ = compress_chunked(&[data], &cfg, &kc, &schedule, &rng, &off); // warm-up
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(compress_chunked(&[data], &cfg, &kc, &schedule, &rng, &off));
    }
    (data.len() * 4 * reps) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    println!("# Figure 8 — compression throughput vs. data size (GB/s)\n");
    println!(
        "(host parallelism: {} rayon threads — on a single-core host the\n\
         parallel columns degenerate to the serial path and only the\n\
         pass-count difference between fused and staged remains)\n",
        rayon::current_num_threads()
    );
    header(&[
        "size (MB)",
        "SZ (serial)",
        "QSGD (serial)",
        "CocktailSGD (serial)",
        "COMPSO (1 thread, staged)",
        "COMPSO (parallel, staged)",
        "COMPSO (parallel, fused)",
    ]);
    for mb in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let elems = mb * (1 << 20) / 4;
        let data = generate(elems, 33 + mb as u64, GradientProfile::kfac());
        let reps = (32 / mb).max(1);
        row(&[
            mb.to_string(),
            gbps(time_compressor(&Sz::new(4e-3), &data, reps)),
            gbps(time_compressor(&Qsgd::bits8(), &data, reps)),
            gbps(time_compressor(&CocktailSgd::standard(), &data, reps)),
            gbps({
                let _one = rayon::scoped_thread_override(1);
                time_chunked(&data, false, reps)
            }),
            gbps(time_chunked(&data, false, reps)),
            gbps(time_chunked(&data, true, reps)),
        ]);
    }
    println!(
        "\nPaper shape to verify: the parallel fused COMPSO column dominates\n\
         the serial implementations and its own staged variant; CocktailSGD\n\
         trails it; SZ is slowest."
    );
}
