//! Figure 9: overall (end-to-end) training speedup by compressor, GPU
//! count, and platform — including COMPSO-f (fixed aggregation factor 4)
//! vs. COMPSO-p (performance-model-chosen factor).
//!
//! Compressor profiles are measured on spec-shaped gradients; iteration
//! times come from the calibrated simulator.
//!
//! Paper shape: COMPSO up to ~1.9x (avg ~1.3x); COMPSO-p ≥ COMPSO-f;
//! gains grow with GPU count; cuSZ/QSGD gains are smaller; some
//! baseline configurations dip below 1.0x (compression that doesn't pay).

use compso_bench::{
    f, gpu_profile, header, measure_membw, measure_profile, row, spec_gradients, SAMPLE_BUDGET,
};
use compso_core::baselines::{CocktailSgd, Qsgd, Sz};
use compso_core::{ChunkedCompso, Compressor, CompsoConfig};
use compso_dnn::ModelSpec;
use compso_sim::{end_to_end_gain_on, AggregationPolicy, IterationModel, Platform};

fn main() {
    println!("# Figure 9 — end-to-end speedup over no-compression K-FAC\n");
    let host_membw = measure_membw();
    println!(
        "(codec profiles measured on this host, throughput translated to\n\
         the simulated A100 by the memory-bandwidth ratio — see DESIGN.md)\n"
    );
    let compressors: Vec<(&str, Box<dyn Compressor>, AggregationPolicy)> = vec![
        ("cuSZ", Box::new(Sz::new(4e-3)), AggregationPolicy::Fixed(1)),
        ("QSGD", Box::new(Qsgd::bits8()), AggregationPolicy::Fixed(1)),
        (
            "CocktailSGD",
            Box::new(CocktailSgd::standard()),
            AggregationPolicy::Fixed(1),
        ),
        (
            "COMPSO-f",
            Box::new(ChunkedCompso::new(CompsoConfig::aggressive(4e-3))),
            AggregationPolicy::Fixed(4),
        ),
        (
            "COMPSO-p",
            Box::new(ChunkedCompso::new(CompsoConfig::aggressive(4e-3))),
            AggregationPolicy::PerformanceModel,
        ),
    ];

    for platform in [Platform::platform1(), Platform::platform2()] {
        println!("## {}\n", platform.name);
        let model = IterationModel::new(platform.clone());
        for spec in ModelSpec::all() {
            println!("### {}\n", spec.name);
            let layers = spec_gradients(&spec, SAMPLE_BUDGET, 200);
            header(&["method", "8 GPUs", "16 GPUs", "32 GPUs", "64 GPUs"]);
            for (name, c, policy) in &compressors {
                let cpu = measure_profile(c.as_ref(), &layers, 201);
                let profile = gpu_profile(&cpu, platform.gpu_membw, host_membw);
                let mut cells = vec![name.to_string()];
                for gpus in [8usize, 16, 32, 64] {
                    let g = end_to_end_gain_on(&model, &spec, gpus, *policy, &profile);
                    cells.push(f(g, 2));
                }
                row(&cells);
            }
            println!();
        }
    }
    println!(
        "Paper shape to verify: COMPSO-p >= COMPSO-f >= the baselines;\n\
         gains grow with GPU count; the 1.0x line separates the methods\n\
         whose overheads eat their ratio."
    );
}
