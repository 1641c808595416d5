//! Proxy training runs for the convergence experiments (Figs. 3/6,
//! Tab. 1).
//!
//! A proxy run trains a small model with the real K-FAC (or SGD)
//! optimizer while every K-FAC layer's preconditioned gradient passes
//! through the compressor under test — the same lossy path the
//! distributed all-gather takes, in a single process so convergence
//! experiments stay cheap. DESIGN.md §1 documents why this substitution
//! preserves the optimizer/compressor interaction the paper measures.

use compso_core::adaptive::BoundSchedule;
use compso_core::{ChunkedCompso, Compressor, RoundingMode};
use compso_dnn::loss::{accuracy, softmax_cross_entropy};
use compso_dnn::{data, models, Sequential};
use compso_kfac::schedule::LrSchedule;
use compso_kfac::{Kfac, KfacConfig, SmoothLr, StepLr};
use compso_tensor::{Matrix, Rng};

/// Which optimizer drives the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Opt {
    Sgd,
    Kfac,
}

/// How gradients are compressed.
pub enum Method {
    /// No compression (the paper's baseline).
    None,
    /// A fixed compressor for every iteration.
    Fixed(Box<dyn Compressor>),
    /// A fixed compressor with local error feedback: the per-layer
    /// residual (original − decompressed) is added back to the next
    /// step's gradient. CocktailSGD ships with this mechanism; COMPSO
    /// deliberately does not (§6: "Our work does not use error feedback
    /// to facilitate large batch training ... without risking
    /// out-of-memory errors").
    FixedEf(Box<dyn Compressor>),
    /// COMPSO's iteration-wise adaptive schedule (Alg. 1).
    Adaptive(BoundSchedule),
}

/// Per-layer error-feedback residual store.
#[derive(Default)]
pub struct EfState {
    residuals: std::collections::BTreeMap<usize, Matrix>,
}

impl EfState {
    /// A fresh store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs compress→decompress on `grad` with the residual folded in,
    /// updates the residual, and returns the decompressed gradient.
    pub fn roundtrip(
        &mut self,
        layer: usize,
        grad: &Matrix,
        c: &dyn Compressor,
        rng: &mut Rng,
    ) -> (Matrix, usize) {
        let mut carried = grad.clone();
        if let Some(res) = self.residuals.get(&layer) {
            carried.axpy(1.0, res);
        }
        let bytes = c.compress(carried.as_slice(), rng);
        let wire = bytes.len();
        let back = c.decompress(&bytes).expect("own stream decodes");
        let decoded = Matrix::from_vec(grad.rows(), grad.cols(), back);
        let mut residual = carried;
        residual.axpy(-1.0, &decoded);
        self.residuals.insert(layer, residual);
        (decoded, wire)
    }
}

/// The proxy task menu, mapped to the paper's models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Gaussian blobs + MLP — the ResNet-50 classification proxy.
    Blobs,
    /// Interleaved spirals + deep MLP — the accuracy-sensitive task used
    /// where the paper's experiments resolve small accuracy deltas
    /// (Fig. 3's right panel).
    Spirals,
    /// Noisy images + CNN — the Mask R-CNN proxy.
    Images,
    /// Token sequences + MLP-LM — the GPT/BERT proxy.
    Tokens,
}

/// One recorded point of a training curve.
#[derive(Clone, Copy, Debug)]
pub struct CurvePoint {
    pub iter: usize,
    pub loss: f64,
    pub accuracy: f64,
}

/// The result of a proxy run.
pub struct ProxyRun {
    pub curve: Vec<CurvePoint>,
    pub final_accuracy: f64,
    pub final_loss: f64,
    /// Mean gradient compression ratio across compressed steps.
    pub mean_ratio: f64,
}

/// Hyperparameters of a proxy run.
pub struct ProxyConfig {
    pub task: Task,
    pub opt: Opt,
    pub iters: usize,
    pub batch: usize,
    pub seed: u64,
}

impl ProxyConfig {
    /// The standard configuration for a task.
    pub fn standard(task: Task, opt: Opt) -> Self {
        let iters = match task {
            Task::Blobs => 240,
            Task::Spirals => 900,
            Task::Images => 200,
            Task::Tokens => 300,
        };
        ProxyConfig {
            task,
            opt,
            iters,
            batch: 32,
            seed: 7,
        }
    }
}

fn build(task: Task, rng: &mut Rng) -> (Sequential, data::Dataset) {
    match task {
        Task::Blobs => {
            let d = data::gaussian_blobs(512, 12, 4, 0.55, 21);
            (models::mlp(&[12, 32, 4], rng), d)
        }
        Task::Spirals => {
            let d = data::spirals(600, 2, 2, 0.03, 24);
            (models::mlp(&[2, 48, 48, 2], rng), d)
        }
        Task::Images => {
            let d = data::noisy_images(256, 1, 8, 8, 4, 0.45, 22);
            (models::small_cnn(1, 8, 8, 4, 4, rng), d)
        }
        Task::Tokens => {
            let d = data::token_sequences(2048, 12, 3, 23);
            (models::mlp_lm(12, 3, 48, rng), d)
        }
    }
}

fn lr_schedule(task: Task, opt: Opt, iters: usize) -> Box<dyn LrSchedule> {
    let base = match (task, opt) {
        (Task::Blobs, Opt::Kfac) => 0.02,
        (Task::Blobs, Opt::Sgd) => 0.02,
        (Task::Spirals, Opt::Kfac) => 0.02,
        (Task::Spirals, Opt::Sgd) => 0.06,
        (Task::Images, Opt::Kfac) => 0.008,
        (Task::Images, Opt::Sgd) => 0.015,
        (Task::Tokens, Opt::Kfac) => 0.004,
        (Task::Tokens, Opt::Sgd) => 0.008,
    };
    match task {
        // ResNet/Mask R-CNN use StepLR in the paper.
        Task::Blobs | Task::Spirals | Task::Images => {
            Box::new(StepLr::new(base, vec![iters / 2], 0.1))
        }
        // GPT/BERT use smooth schedules.
        Task::Tokens => Box::new(SmoothLr::new(base, iters / 10, iters)),
    }
}

/// Runs one proxy training configuration.
pub fn run(config: &ProxyConfig, method: &Method) -> ProxyRun {
    let mut rng = Rng::new(config.seed);
    let (mut model, d) = build(config.task, &mut rng);
    let schedule = lr_schedule(config.task, config.opt, config.iters);
    let mut kfac = Kfac::new(KfacConfig {
        damping: 0.05,
        ema_decay: 0.95,
        eigen_refresh: 10,
        ..Default::default()
    });
    let mut comp_rng = Rng::new(config.seed ^ 0xC0C0);
    let mut curve = Vec::new();
    let mut ratio_sum = 0.0f64;
    let mut ratio_n = 0usize;
    let mut ef = EfState::new();

    for step in 0..config.iters {
        let (x, y) = d.batch(step, config.batch);
        let logits = model.forward(&x, true);
        let (loss, grad) = softmax_cross_entropy(&logits, &y);
        model.backward(&grad);
        if config.opt == Opt::Kfac {
            kfac.step(&mut model);
        }

        // The lossy communication path: compress + decompress every
        // trainable layer's (preconditioned) gradient.
        let compressor: Option<Box<dyn Compressor>> = match method {
            Method::None => None,
            Method::Fixed(_) | Method::FixedEf(_) => None, // borrowed below
            Method::Adaptive(sched) => Some(Box::new(ChunkedCompso::new(
                sched.strategy_at(step).to_config(RoundingMode::Stochastic),
            ))),
        };
        let active: Option<(&dyn Compressor, bool)> = match (method, &compressor) {
            (Method::Fixed(c), _) => Some((c.as_ref(), false)),
            (Method::FixedEf(c), _) => Some((c.as_ref(), true)),
            (Method::Adaptive(_), Some(c)) => Some((c.as_ref(), false)),
            _ => None,
        };
        if let Some((c, use_ef)) = active {
            for idx in model.trainable_indices() {
                let grad = model.layer(idx).grads().expect("grad").clone();
                let (decoded, wire) = if use_ef {
                    ef.roundtrip(idx, &grad, c, &mut comp_rng)
                } else {
                    let bytes = c.compress(grad.as_slice(), &mut comp_rng);
                    let back = c.decompress(&bytes).expect("own stream decodes");
                    (
                        Matrix::from_vec(grad.rows(), grad.cols(), back),
                        bytes.len(),
                    )
                };
                ratio_sum += (grad.len() * 4) as f64 / wire.max(1) as f64;
                ratio_n += 1;
                model.layer_mut(idx).set_grads(decoded);
            }
        }

        let lr = schedule.lr_at(step);
        model.update_params(|p, g| p.axpy(-lr, g));

        if step % 10 == 9 || step + 1 == config.iters {
            let logits = model.forward(&d.x, false);
            let acc = accuracy(&logits, &d.y);
            curve.push(CurvePoint {
                iter: step + 1,
                loss: loss as f64,
                accuracy: acc,
            });
        }
    }

    let last = curve.last().copied().unwrap();
    ProxyRun {
        curve,
        final_accuracy: last.accuracy,
        final_loss: last.loss,
        mean_ratio: if ratio_n > 0 {
            ratio_sum / ratio_n as f64
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compso_core::baselines::Qsgd;
    use compso_core::CompsoConfig;

    #[test]
    fn kfac_baseline_converges_on_all_tasks() {
        for task in [Task::Blobs, Task::Spirals, Task::Images, Task::Tokens] {
            let cfg = ProxyConfig::standard(task, Opt::Kfac);
            let run = run(&cfg, &Method::None);
            let floor = match task {
                Task::Blobs => 0.93,
                Task::Spirals => 0.95,
                Task::Images => 0.9,
                Task::Tokens => 0.3,
            };
            assert!(
                run.final_accuracy > floor,
                "{task:?}: {}",
                run.final_accuracy
            );
        }
    }

    #[test]
    fn compso_adaptive_tracks_baseline_on_blobs() {
        let cfg = ProxyConfig::standard(Task::Blobs, Opt::Kfac);
        let base = run(&cfg, &Method::None);
        let compso = run(
            &cfg,
            &Method::Adaptive(BoundSchedule::step_paper(cfg.iters / 2)),
        );
        assert!(
            compso.final_accuracy > base.final_accuracy - 0.03,
            "compso {} vs base {}",
            compso.final_accuracy,
            base.final_accuracy
        );
        // Proxy layers are a few hundred elements, so fixed header costs
        // cap the achievable ratio well below the paper-scale 20x.
        assert!(compso.mean_ratio > 2.0, "ratio {}", compso.mean_ratio);
    }

    #[test]
    fn fixed_compressor_path_works() {
        let cfg = ProxyConfig::standard(Task::Blobs, Opt::Kfac);
        let qsgd = run(&cfg, &Method::Fixed(Box::new(Qsgd::bits8())));
        assert!(qsgd.final_accuracy > 0.9, "{}", qsgd.final_accuracy);
    }

    #[test]
    fn aggressive_everywhere_hurts_more_than_adaptive() {
        // Keeping the loose filter bound for the whole run (no switch to
        // conservative mode) should do no better than the adaptive
        // schedule — the motivation for iteration-wise adaptation.
        let cfg = ProxyConfig::standard(Task::Blobs, Opt::Kfac);
        let adaptive = run(
            &cfg,
            &Method::Adaptive(BoundSchedule::step_paper(cfg.iters / 2)),
        );
        let always_aggressive = run(
            &cfg,
            &Method::Fixed(Box::new(ChunkedCompso::new(CompsoConfig::aggressive(4e-2)))),
        );
        assert!(
            adaptive.final_accuracy >= always_aggressive.final_accuracy - 0.02,
            "adaptive {} vs always-aggressive {}",
            adaptive.final_accuracy,
            always_aggressive.final_accuracy
        );
    }
}
