//! Figure 7: communication speedup of compressed K-FAC gradients on the
//! two platforms, by model and GPU count.
//!
//! Compressor ratios and throughputs are *measured* on spec-shaped
//! gradients; the communication times come from the network model.
//!
//! Paper shape: COMPSO reaches ~11-14.5x on the slower platform and
//! ~7-11x on the faster one; cuSZ (4E-3) and QSGD (8-bit) are capped by
//! their lower ratios; speedup grows with GPU count.

use compso_bench::{f, header, measure_profile, row, spec_gradients, SAMPLE_BUDGET};
use compso_core::baselines::{CocktailSgd, Qsgd, Sz};
use compso_core::{ChunkedCompso, Compressor, CompsoConfig};
use compso_dnn::ModelSpec;
use compso_sim::{comm_speedup_on, IterationModel, Platform};

fn main() {
    println!("# Figure 7 — communication speedup (measured CR + network model)\n");
    let compressors: Vec<(&str, Box<dyn Compressor>)> = vec![
        ("cuSZ", Box::new(Sz::new(4e-3))),
        ("QSGD", Box::new(Qsgd::bits8())),
        ("CocktailSGD", Box::new(CocktailSgd::standard())),
        (
            "COMPSO",
            Box::new(ChunkedCompso::new(CompsoConfig::aggressive(4e-3))),
        ),
    ];

    for platform in [Platform::platform1(), Platform::platform2()] {
        println!("## {}\n", platform.name);
        let model = IterationModel::new(platform.clone());
        for spec in ModelSpec::all() {
            println!("### {}\n", spec.name);
            let layers = spec_gradients(&spec, SAMPLE_BUDGET, 100);
            header(&[
                "method",
                "measured CR",
                "8 GPUs",
                "16 GPUs",
                "32 GPUs",
                "64 GPUs",
            ]);
            for (name, c) in &compressors {
                let profile = measure_profile(c.as_ref(), &layers, 101);
                // COMPSO aggregates layers (m = 4, the paper's fixed
                // default); the baselines compress layer by layer.
                let m = if *name == "COMPSO" { 4 } else { 1 };
                let mut cells = vec![name.to_string(), f(profile.ratio, 1)];
                for gpus in [8usize, 16, 32, 64] {
                    let s = comm_speedup_on(&model, &spec, gpus, m, &profile, false);
                    cells.push(f(s, 1));
                }
                row(&cells);
            }
            println!();
        }
    }
    println!(
        "Paper shape to verify: COMPSO has the highest speedup everywhere;\n\
         speedups grow with GPU count; Platform 1 (slower network) gains\n\
         more than Platform 2."
    );
}
