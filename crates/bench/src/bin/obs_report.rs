//! Measured-vs-modeled iteration breakdown (`obs_report`).
//!
//! Runs a real (small, in-process) distributed K-FAC training loop with
//! an enabled [`Recorder`] threaded through the compressor, the
//! collectives, and the optimizer, then prints
//!
//! 1. one JSON [`StepReport`] per step — phase wall times, phase
//!    fractions (summing to 1), traffic counters, live compression
//!    ratio;
//! 2. a side-by-side table of the measured phase fractions against the
//!    §5 analytic model's prediction ([`IterationModel::breakdown`]),
//!    with the compressor profile (ratio + throughputs) *derived from
//!    the measured counters themselves*.
//!
//! The measured loop is a CPU-threaded MLP, not an A100 cluster, so the
//! two columns agree in *shape* (all-gather-dominated optimizer step)
//! rather than in absolute numbers; the table is the plumbing check that
//! the measured taxonomy and the model taxonomy line up one-to-one.

use compso_bench::{f, header, row};
use compso_comm::run_ranks;
use compso_core::perfmodel::CompressorProfile;
use compso_core::{ChunkedCompso, CompsoConfig};
use compso_dnn::loss::softmax_cross_entropy;
use compso_dnn::{data, models, ModelSpec};
use compso_kfac::{DistKfac, DistKfacConfig};
use compso_obs::{names, Recorder, Snapshot, StepReport};
use compso_sim::{IterationModel, Platform};
use compso_tensor::Rng;

const RANKS: usize = 4;
const STEPS: usize = 8;
const BATCH: usize = 16;

fn main() {
    println!("# obs_report — measured step breakdown vs the §5 analytic model\n");

    let rec = Recorder::enabled();
    let rec_ref = &rec;
    let d = data::gaussian_blobs(640, 16, 4, 0.3, 101);
    let d_ref = &d;

    // One shared registry across all rank threads: counters and timers
    // are atomic, so cross-thread recording is lossless and the per-step
    // snapshot aggregates all ranks (the same "sum over GPUs" view the
    // paper's Fig. 1 plots).
    let per_rank = run_ranks(RANKS, |comm| {
        let mut rng = Rng::new(7);
        let mut model = models::mlp(&[16, 64, 64, 4], &mut rng);
        let shard = d_ref.shard(comm.rank(), RANKS);
        let mut opt = DistKfac::new(DistKfacConfig::default(), 7);
        opt.set_recorder(rec_ref.clone());
        comm.set_recorder(rec_ref.clone());
        let compso = ChunkedCompso::new(CompsoConfig::aggressive(4e-3));

        let mut reports: Vec<StepReport> = Vec::new();
        let mut prev = Snapshot::default();
        for step in 0..STEPS {
            let (x, y) = shard.batch(step, BATCH);
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            opt.step(comm, &mut model, &compso).expect("step");
            model.update_params(|p, g| p.axpy(-0.01, g));

            // Quiesce all ranks, snapshot on rank 0, then release.
            comm.barrier().expect("barrier");
            if comm.rank() == 0 {
                let cur = rec_ref.snapshot();
                reports.push(StepReport::from_snapshot(
                    step as u64,
                    &cur.delta_since(&prev),
                ));
                prev = cur;
            }
            comm.barrier().expect("barrier");
        }
        reports
    });
    let reports = &per_rank[0];

    println!("## Per-step reports (one JSON object per line)\n");
    println!("```json");
    for r in reports {
        println!("{}", r.to_json());
    }
    println!("```\n");
    for r in reports {
        let sum = r.fraction_sum();
        assert!(
            (sum - 1.0).abs() < 0.01,
            "step {} fractions sum to {sum}, expected 1.0 +/- 0.01",
            r.step
        );
    }
    println!(
        "fraction sums: all {} steps within 1.0 +/- 0.01\n",
        reports.len()
    );

    // Derive the compressor profile the analytic model needs from the
    // *measured* counters (live ratio and throughputs).
    let snap = rec.snapshot();
    let bytes_in = snap.counter(names::CORE_BYTES_IN) as f64;
    let bytes_out = snap.counter(names::CORE_BYTES_OUT) as f64;
    let compress_s = snap.timer_seconds(names::CORE_CHUNKED_COMPRESS);
    assert!(
        compress_s > 0.0,
        "the step's compress span (core/chunked_compress) never fired"
    );
    let decode_bytes = snap.counter(names::CORE_DECODE_BYTES_IN) as f64;
    let decode_s = snap.timer_seconds(names::CORE_DECODE);
    let profile = CompressorProfile {
        ratio: if bytes_out > 0.0 {
            bytes_in / bytes_out
        } else {
            1.0
        },
        compress_tput: bytes_in / compress_s,
        decompress_tput: if decode_s > 0.0 {
            decode_bytes / decode_s
        } else {
            1e9
        },
    };
    println!(
        "measured compressor profile: ratio {:.1}x, compress {:.1} MB/s, decompress {:.1} MB/s\n",
        profile.ratio,
        profile.compress_tput / 1e6,
        profile.decompress_tput / 1e6
    );

    // Model prediction for a real paper workload with that profile.
    let model = IterationModel::new(Platform::platform1());
    let spec = ModelSpec::resnet50();
    let b = model.breakdown(&spec, 64, 4, Some(&profile));
    // The measured loop times only the optimizer step (forward/backward
    // happen outside DistKfac::step), so compare over the optimizer-side
    // phases: drop fwd_bwd from the model total.
    let model_total = b.total() - b.fwd_bwd;

    // Measured steady-state fractions: steps 1.. (step 0 pays one-time
    // warm-up costs — first eigendecompositions, thread spin-up — that
    // the per-iteration model intentionally amortizes away).
    let steady = &reports[1..];
    let steady_wall: f64 = steady.iter().map(|r| r.wall_s).sum();
    let frac = |name: &str| {
        let s: f64 = steady
            .iter()
            .map(|r| r.phases.get(name).copied().unwrap_or(0.0))
            .sum();
        if steady_wall > 0.0 {
            s / steady_wall
        } else {
            0.0
        }
    };

    println!("## Measured step fractions vs model prediction (ResNet-50 @ 64 GPUs, m=4)\n");
    header(&["phase (measured ≙ model)", "measured %", "model %"]);
    row(&[
        "allgather+compress ≙ grad_allgather+compression".to_string(),
        f(100.0 * frac(names::KFAC_ALLGATHER), 1),
        f(100.0 * (b.grad_allgather + b.compression) / model_total, 1),
    ]);
    row(&[
        "factor+inverse ≙ kfac_compute+factor_allreduce".to_string(),
        f(
            100.0 * (frac(names::KFAC_FACTOR) + frac(names::KFAC_INVERSE)),
            1,
        ),
        f(
            100.0 * (b.kfac_compute + b.factor_allreduce) / model_total,
            1,
        ),
    ]);
    // Everything else, including the untracked residual ("other").
    let rest =
        1.0 - frac(names::KFAC_ALLGATHER) - frac(names::KFAC_FACTOR) - frac(names::KFAC_INVERSE);
    row(&[
        "grad_sync+update+other ≙ others".to_string(),
        f(100.0 * rest, 1),
        f(100.0 * b.others / model_total, 1),
    ]);
    println!(
        "\nColumns are normalized over the optimizer step (model column\n\
         excludes Forward+Backward). Expect shape agreement — the\n\
         all-gather phase dominating — not absolute agreement: the\n\
         measured side is an in-process CPU MLP, the model an A100\n\
         cluster running ResNet-50."
    );

    // Achieved vs predicted compression–communication overlap of the
    // pipelined gather (the PPoPP headline metric): measured is
    // 1 − comm/pipeline/wait ÷ kfac/step/allgather averaged over the
    // steady steps; predicted comes from the same pipeline model
    // (max + min/stages) fed with the measured compressor profile.
    let overlaps: Vec<f64> = steady.iter().filter_map(|r| r.overlap_frac).collect();
    let measured_overlap = if overlaps.is_empty() {
        0.0
    } else {
        overlaps.iter().sum::<f64>() / overlaps.len() as f64
    };
    let predicted_overlap = model.overlap_frac(&spec, 64, 4, Some(&profile));
    println!("\n## Pipelined gather overlap (StepReport.overlap_frac)\n");
    header(&["overlap fraction", "measured", "model"]);
    row(&[
        "1 - wait/allgather".to_string(),
        f(measured_overlap, 3),
        f(predicted_overlap, 3),
    ]);
    assert!(
        !overlaps.is_empty(),
        "pipelined gather must report an overlap fraction every steady step"
    );
    assert!(
        (0.0..=1.0).contains(&measured_overlap),
        "overlap fraction out of range: {measured_overlap}"
    );
    println!(
        "\nMeasured: fraction of the step-5 gather wall NOT spent blocked\n\
         on the ring (wait time hidden behind compression/decode).\n\
         Model: same pipeline formula on the A100 ResNet-50 workload —\n\
         shape check only, as above."
    );
}
