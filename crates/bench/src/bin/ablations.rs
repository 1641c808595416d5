//! Ablations of COMPSO's design choices (DESIGN.md §4's last row) plus
//! the paper's two future-work extensions:
//!
//! 1. rounding mode (SR vs RN vs P0.5) — accuracy on the proxy task;
//! 2. filter on/off — compression ratio contribution;
//! 3. kernel fusion and extrema-reduction structure — throughput (staged
//!    runs the fused sweep's microkernels in three materialized passes,
//!    so only the pass structure differs);
//! 4. aggregation factor sweep — modeled all-gather time;
//! 5. threshold auto-tuning (future work §7.1) — tuned vs hand-set bounds;
//! 6. factor-matrix compression (future work §7.2) — ratio on the
//!    Kronecker factors' all-reduce traffic.

use compso_bench::proxy::{run, Method, Opt, ProxyConfig, Task};
use compso_bench::{f, gbps, header, row, spec_gradients, SAMPLE_BUDGET};
use compso_core::factors::{compress_symmetric, decompress_symmetric};
use compso_core::kernels::{compress_chunked, KernelConfig, LayerSchedule, CHUNK_ELEMS};
use compso_core::synthetic::{generate, GradientProfile};
use compso_core::tuning::{tune_bounds, TuningGrid};
use compso_core::{ChunkedCompso, Compressor, CompsoConfig, RoundingMode};
use compso_dnn::ModelSpec;
use compso_kfac::kfac::covariance;
use compso_obs::Recorder;
use compso_sim::{gpu_profile, measure_membw, measure_profile, IterationModel, Platform};
use compso_tensor::{Matrix, Rng};
use std::time::Instant;

fn main() {
    rounding_ablation();
    filter_ablation();
    kernel_ablation();
    aggregation_sweep();
    inversion_ablation();
    tuner_extension();
    factor_compression_extension();
}

/// §2.2: KAISA "employs an alternate implicit inversion method" — compare
/// the eigendecomposition route against the Cholesky route on accuracy
/// and factor-refresh cost.
fn inversion_ablation() {
    use compso_kfac::kfac::InversionMethod;
    use compso_kfac::{Kfac, KfacConfig};
    println!("# Ablation 5 — factor inversion route (eigen vs implicit)\n");
    header(&[
        "route",
        "proxy accuracy",
        "refresh time for a 256-dim layer (ms)",
    ]);
    for (name, inversion) in [
        ("eigendecomposition (Eq. 2)", InversionMethod::Eigen),
        ("implicit Cholesky (KAISA)", InversionMethod::Implicit),
    ] {
        // Accuracy on the blobs proxy.
        let acc = {
            use compso_dnn::loss::{accuracy, softmax_cross_entropy};
            use compso_dnn::{data, models};
            let mut rng = Rng::new(501);
            let d = data::gaussian_blobs(400, 10, 4, 0.5, 502);
            let mut model = models::mlp(&[10, 32, 4], &mut rng);
            let mut kfac = Kfac::new(KfacConfig {
                damping: 0.05,
                inversion,
                ..Default::default()
            });
            for step in 0..200 {
                let (x, y) = d.batch(step, 32);
                let logits = model.forward(&x, true);
                let (_, grad) = softmax_cross_entropy(&logits, &y);
                model.backward(&grad);
                kfac.step(&mut model);
                model.update_params(|p, g| p.axpy(-0.02, g));
            }
            let logits = model.forward(&d.x, false);
            accuracy(&logits, &d.y)
        };
        // Refresh cost on a realistic 256-dim factor pair.
        let refresh_ms = {
            let mut rng = Rng::new(503);
            let stats = compso_dnn::KfacStats {
                a: Matrix::random_normal(1024, 256, &mut rng),
                g: Matrix::random_normal(1024, 128, &mut rng),
            };
            let mut kfac = Kfac::new(KfacConfig {
                damping: 0.05,
                eigen_refresh: 1, // refresh every call to time it
                inversion,
                ..Default::default()
            });
            let t0 = Instant::now();
            for _ in 0..3 {
                kfac.update_layer(0, &stats);
            }
            t0.elapsed().as_secs_f64() / 3.0 * 1e3
        };
        row(&[name.into(), f(acc, 3), f(refresh_ms, 1)]);
    }
    println!("\nShape: equal accuracy; the implicit route refreshes much faster.\n");
}

fn rounding_ablation() {
    println!("# Ablation 1 — rounding mode (accuracy at a loose bound, 5-seed avg)\n");
    header(&["mode", "proxy accuracy", "Δ vs no-comp"]);
    let avg = |mk: &dyn Fn() -> Method| -> f64 {
        let mut sum = 0.0;
        for seed in 0..5u64 {
            let mut cfg = ProxyConfig::standard(Task::Spirals, Opt::Kfac);
            cfg.iters = 200;
            cfg.seed = 7 + seed * 31;
            sum += run(&cfg, &mk()).final_accuracy;
        }
        sum / 5.0
    };
    let base = avg(&|| Method::None);
    row(&["none".into(), f(base, 3), "0.000".into()]);
    for mode in [
        RoundingMode::Stochastic,
        RoundingMode::Nearest,
        RoundingMode::HalfProbability,
    ] {
        let acc = avg(&|| {
            Method::Fixed(Box::new(ChunkedCompso::new(
                CompsoConfig::aggressive(3e-2).with_mode(mode),
            )))
        });
        row(&[mode.name().into(), f(acc, 3), f(acc - base, 3)]);
    }
    println!("\nShape: SR closest to the baseline at a loose bound.\n");
}

fn filter_ablation() {
    println!("# Ablation 2 — filter branch contribution to CR\n");
    header(&["configuration", "ResNet-50 CR", "BERT-large CR"]);
    for (name, cfg) in [
        ("filter + SR (aggressive)", CompsoConfig::aggressive(4e-3)),
        ("SR only (conservative)", CompsoConfig::conservative(4e-3)),
    ] {
        let c = ChunkedCompso::new(cfg);
        let mut cells = vec![name.to_string()];
        for spec in [ModelSpec::resnet50(), ModelSpec::bert_large()] {
            let layers = spec_gradients(&spec, SAMPLE_BUDGET / 2, 301);
            let p = measure_profile(&c, &layers, 302);
            cells.push(f(p.ratio, 1));
        }
        row(&cells);
    }
    println!("\nShape: the filter multiplies the ratio.\n");
}

fn kernel_ablation() {
    println!("# Ablation 3 — kernel fusion and extrema reduction (GB/s)\n");
    println!(
        "(host parallelism: {} rayon threads; fusion/hierarchy effects\n\
         scale with cores and memory-bandwidth pressure)\n",
        rayon::current_num_threads()
    );
    let data = generate(16 << 20, 303, GradientProfile::kfac());
    // Bitcomp isolates the kernel-structure cost: with a heavyweight
    // entropy coder the codec stage would drown the pass-count signal.
    let cfg = CompsoConfig::aggressive(4e-3).with_codec(compso_core::Codec::Bitcomp);
    header(&["kernel structure", "throughput GB/s"]);
    for (name, fused, hier) in [
        ("fused + hierarchical extrema", true, true),
        ("fused + flat extrema", true, false),
        ("staged + hierarchical extrema", false, true),
        ("staged + flat extrema", false, false),
    ] {
        let kc = KernelConfig {
            fused,
            hierarchical_extrema: hier,
        };
        let schedule = LayerSchedule::build(&[data.len()], CHUNK_ELEMS);
        let rng = Rng::new(304);
        let off = Recorder::disabled();
        let _ = compress_chunked(&[&data], &cfg, &kc, &schedule, &rng, &off);
        let t0 = Instant::now();
        for _ in 0..3 {
            std::hint::black_box(compress_chunked(&[&data], &cfg, &kc, &schedule, &rng, &off));
        }
        let tput = (data.len() * 4 * 3) as f64 / t0.elapsed().as_secs_f64();
        row(&[name.into(), gbps(tput)]);
    }
    println!("\nShape: fused > staged; hierarchical >= flat extrema.\n");
}

fn aggregation_sweep() {
    println!("# Ablation 4 — aggregation factor m (modeled all-gather, ms)\n");
    let model = IterationModel::new(Platform::platform1());
    let spec = ModelSpec::resnet50();
    let layers = spec_gradients(&spec, SAMPLE_BUDGET / 2, 305);
    let cpu = measure_profile(
        &ChunkedCompso::new(CompsoConfig::aggressive(4e-3)),
        &layers,
        306,
    );
    let profile = gpu_profile(&cpu, model.platform.gpu_membw, measure_membw());
    header(&["m", "all-gather+codec @64 GPUs (ms)", "@256 GPUs (ms)"]);
    for m in [1usize, 2, 4, 8, 16] {
        let t64 = {
            let b = model.breakdown(&spec, 64, m, Some(&profile));
            (b.grad_allgather + b.compression) * 1e3
        };
        let t256 = {
            let b = model.breakdown(&spec, 256, m, Some(&profile));
            (b.grad_allgather + b.compression) * 1e3
        };
        row(&[m.to_string(), f(t64, 2), f(t256, 2)]);
    }
    println!("\nShape: an interior or scale-dependent optimum — the reason COMPSO-p exists.\n");
}

fn tuner_extension() {
    println!("# Extension 1 (future work) — threshold auto-tuning\n");
    let data = generate(1 << 20, 307, GradientProfile::kfac());
    let grid = TuningGrid::default();
    let tuned = tune_bounds(&data, &grid, 42);
    header(&["configuration", "eb_f", "eb_q", "CR", "bounded L2 error"]);
    let hand = CompsoConfig::aggressive(4e-3);
    for (name, cfg) in [("hand-set (paper)", hand), ("auto-tuned", tuned.config)] {
        let c = ChunkedCompso::new(cfg);
        let mut rng = Rng::new(308);
        let bytes = c.compress(&data, &mut rng);
        let back = c.decompress(&bytes).unwrap();
        let err: f64 = data
            .iter()
            .zip(&back)
            .map(|(&a, &b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        row(&[
            name.into(),
            format!("{:?}", cfg.eb_filter),
            format!("{:.0e}", cfg.eb_quant),
            f((data.len() * 4) as f64 / bytes.len() as f64, 1),
            format!("{err:.3e}"),
        ]);
    }
    println!("\nShape: the tuner finds a ratio >= hand-set at comparable error.\n");
}

fn factor_compression_extension() {
    println!("# Extension 2 (future work) — compressing the Kronecker factors\n");
    // Build a realistic covariance factor from synthetic activations.
    let mut rng = Rng::new(309);
    let acts = Matrix::random_normal(4096, 256, &mut rng);
    let factor = covariance(&acts);
    let compso = ChunkedCompso::new(CompsoConfig::conservative(1e-3));
    let bytes = compress_symmetric(&factor, &compso, &mut rng);
    let back = decompress_symmetric(&bytes, &compso).unwrap();
    let full_bytes = factor.len() * 4;
    header(&["metric", "value"]);
    row(&["dense factor bytes".into(), full_bytes.to_string()]);
    row(&["compressed bytes".into(), bytes.len().to_string()]);
    row(&[
        "ratio (incl. triangle-only win)".into(),
        f(full_bytes as f64 / bytes.len() as f64, 1),
    ]);
    row(&[
        "max reconstruction error".into(),
        format!("{:.3e}", factor.max_diff(&back)),
    ]);
    row(&[
        "symmetry preserved".into(),
        (back.asymmetry() == 0.0).to_string(),
    ]);
    println!("\nShape: >2x from the triangle alone, more from quantization, symmetry exact.\n");
}
