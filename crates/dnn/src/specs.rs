//! Layer-shape inventories of the four paper models.
//!
//! The timing/ratio experiments (Figs. 1/7/9, Tab. 2) need realistic
//! per-layer K-FAC gradient sizes and factor dimensions for ResNet-50,
//! Mask R-CNN, BERT-large and GPT-neo-125M — not trained weights. These
//! inventories are built from the published architectures:
//!
//! * **ResNet-50** — conv1, 16 bottleneck blocks (1×1/3×3/1×1 convs with
//!   the standard channel progression 64→2048), 4 downsample projections,
//!   fc head: 53 K-FAC-eligible layers, ≈25.5 M parameters.
//! * **Mask R-CNN (R50-FPN)** — the ResNet-50 backbone plus FPN lateral/
//!   output convs, RPN head, box head (two 1024-wide fc), mask head
//!   (4 convs + deconv + predictor): ≈44 M parameters.
//! * **BERT-large** — 24 transformer blocks (hidden 1024, FFN 4096,
//!   Q/K/V/O projections), embeddings + pooler: ≈340 M parameters.
//! * **GPT-neo-125M** — 12 blocks (hidden 768, FFN 3072) + embeddings:
//!   ≈125 M parameters.
//!
//! A layer's K-FAC gradient is an `(in+1) × out` matrix (`in` counts
//! kernel taps for convs); its Kronecker factors are `(in+1)²` and
//! `out²`.

/// One K-FAC-eligible layer of a model spec.
#[derive(Clone, Debug)]
pub struct LayerSpec {
    /// Diagnostic name.
    pub name: String,
    /// Input width `in` (patch size for convs), without the bias.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl LayerSpec {
    fn new(name: impl Into<String>, in_dim: usize, out_dim: usize) -> Self {
        LayerSpec {
            name: name.into(),
            in_dim,
            out_dim,
        }
    }

    /// Elements of the K-FAC gradient `(in+1) × out`.
    pub fn grad_elems(&self) -> usize {
        (self.in_dim + 1) * self.out_dim
    }

    /// Elements of the activation factor `A` (`(in+1)²`).
    pub(crate) fn factor_a_elems(&self) -> usize {
        (self.in_dim + 1) * (self.in_dim + 1)
    }

    /// Elements of the gradient factor `G` (`out²`).
    pub(crate) fn factor_g_elems(&self) -> usize {
        self.out_dim * self.out_dim
    }

    /// Approximate eigendecomposition cost of both factors, in FLOPs
    /// (cubic with a small constant).
    pub fn eigen_flops(&self) -> f64 {
        let a = (self.in_dim + 1) as f64;
        let g = self.out_dim as f64;
        10.0 * (a * a * a + g * g * g)
    }
}

/// A whole-model layer inventory.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Model name as used in the paper's figures.
    pub name: &'static str,
    /// K-FAC-eligible layers in execution order.
    pub layers: Vec<LayerSpec>,
    /// Forward+backward cost per sample, FLOPs (published estimates).
    pub fwd_bwd_flops_per_sample: f64,
    /// Per-GPU minibatch size used in the paper-scale experiments.
    pub per_gpu_batch: usize,
}

impl ModelSpec {
    /// Total K-FAC gradient elements (the all-gather volume).
    pub fn total_grad_elems(&self) -> usize {
        self.layers.iter().map(|l| l.grad_elems()).sum()
    }

    /// Total gradient bytes at f32.
    pub fn total_grad_bytes(&self) -> u64 {
        self.total_grad_elems() as u64 * 4
    }

    /// Total covariance-factor elements (the all-reduce volume).
    pub fn total_factor_elems(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.factor_a_elems() + l.factor_g_elems())
            .sum()
    }

    /// Per-layer gradient sizes in bytes, execution order.
    pub fn layer_grad_bytes(&self) -> Vec<u64> {
        self.layers
            .iter()
            .map(|l| l.grad_elems() as u64 * 4)
            .collect()
    }

    /// Total eigendecomposition FLOPs across layers.
    pub fn total_eigen_flops(&self) -> f64 {
        self.layers.iter().map(|l| l.eigen_flops()).sum()
    }

    /// All four paper models.
    pub fn all() -> Vec<ModelSpec> {
        vec![
            ModelSpec::resnet50(),
            ModelSpec::mask_rcnn(),
            ModelSpec::bert_large(),
            ModelSpec::gpt_neo_125m(),
        ]
    }

    /// ResNet-50's K-FAC layer inventory.
    pub fn resnet50() -> ModelSpec {
        let mut layers = Vec::new();
        layers.push(LayerSpec::new("conv1", 3 * 7 * 7, 64));
        // (blocks, in_ch at stage entry, bottleneck width) per stage.
        let stages: [(usize, usize, usize); 4] =
            [(3, 64, 64), (4, 256, 128), (6, 512, 256), (3, 1024, 512)];
        for (s, &(blocks, stage_in, width)) in stages.iter().enumerate() {
            let out = width * 4;
            for b in 0..blocks {
                let block_in = if b == 0 { stage_in } else { out };
                layers.push(LayerSpec::new(
                    format!("layer{}.{}.conv1", s + 1, b),
                    block_in,
                    width,
                ));
                layers.push(LayerSpec::new(
                    format!("layer{}.{}.conv2", s + 1, b),
                    width * 9,
                    width,
                ));
                layers.push(LayerSpec::new(
                    format!("layer{}.{}.conv3", s + 1, b),
                    width,
                    out,
                ));
                if b == 0 {
                    layers.push(LayerSpec::new(
                        format!("layer{}.0.downsample", s + 1),
                        block_in,
                        out,
                    ));
                }
            }
        }
        layers.push(LayerSpec::new("fc", 2048, 1000));
        ModelSpec {
            name: "ResNet-50",
            layers,
            fwd_bwd_flops_per_sample: 3.0 * 4.1e9, // ~4.1 GFLOP fwd, 3x for fwd+bwd
            per_gpu_batch: 64,
        }
    }

    /// Mask R-CNN with the ResNet-50-FPN backbone.
    pub(crate) fn mask_rcnn() -> ModelSpec {
        let mut layers = ModelSpec::resnet50().layers;
        // Drop the classification head; detection heads replace it.
        layers.pop();
        // FPN lateral 1x1 and output 3x3 convs at 4 scales.
        for (i, &c) in [256usize, 512, 1024, 2048].iter().enumerate() {
            layers.push(LayerSpec::new(format!("fpn.lateral{i}"), c, 256));
            layers.push(LayerSpec::new(format!("fpn.output{i}"), 256 * 9, 256));
        }
        // RPN: shared 3x3 conv, objectness and box regressors.
        layers.push(LayerSpec::new("rpn.conv", 256 * 9, 256));
        layers.push(LayerSpec::new("rpn.cls", 256, 3));
        layers.push(LayerSpec::new("rpn.bbox", 256, 12));
        // Box head: 7x7x256 pooled features -> 1024 -> 1024 -> cls/box.
        layers.push(LayerSpec::new("box.fc1", 7 * 7 * 256, 1024));
        layers.push(LayerSpec::new("box.fc2", 1024, 1024));
        layers.push(LayerSpec::new("box.cls", 1024, 81));
        layers.push(LayerSpec::new("box.reg", 1024, 320));
        // Mask head: four 3x3 convs, a deconv, the mask predictor.
        for i in 0..4 {
            layers.push(LayerSpec::new(format!("mask.conv{i}"), 256 * 9, 256));
        }
        layers.push(LayerSpec::new("mask.deconv", 256 * 4, 256));
        layers.push(LayerSpec::new("mask.pred", 256, 80));
        ModelSpec {
            name: "Mask R-CNN",
            layers,
            fwd_bwd_flops_per_sample: 3.0 * 60e9, // effective per-sample cost, calibrated to Fig. 1 phase ratios
            per_gpu_batch: 4,
        }
    }

    /// BERT-large (uncased) transformer encoder.
    pub fn bert_large() -> ModelSpec {
        let hidden = 1024;
        let ffn = 4096;
        let mut layers = Vec::new();
        // Token embeddings behave as a (vocab → hidden) linear in K-FAC
        // terms; kept out (embedding rows are sparse-updated in practice)
        // in line with K-FAC implementations that precondition
        // linear/conv only — but the dense pooler and heads count.
        for b in 0..24 {
            for proj in ["q", "k", "v", "o"] {
                layers.push(LayerSpec::new(
                    format!("encoder.{b}.attn.{proj}"),
                    hidden,
                    hidden,
                ));
            }
            layers.push(LayerSpec::new(format!("encoder.{b}.ffn.in"), hidden, ffn));
            layers.push(LayerSpec::new(format!("encoder.{b}.ffn.out"), ffn, hidden));
        }
        layers.push(LayerSpec::new("pooler", hidden, hidden));
        ModelSpec {
            name: "BERT-large",
            layers,
            fwd_bwd_flops_per_sample: 3.0 * 120e9, // effective per-sequence cost, calibrated to Fig. 1 phase ratios
            per_gpu_batch: 8,
        }
    }

    /// GPT-neo-125M decoder.
    pub fn gpt_neo_125m() -> ModelSpec {
        let hidden = 768;
        let ffn = 3072;
        let mut layers = Vec::new();
        for b in 0..12 {
            for proj in ["q", "k", "v", "o"] {
                layers.push(LayerSpec::new(
                    format!("decoder.{b}.attn.{proj}"),
                    hidden,
                    hidden,
                ));
            }
            layers.push(LayerSpec::new(format!("decoder.{b}.ffn.in"), hidden, ffn));
            layers.push(LayerSpec::new(format!("decoder.{b}.ffn.out"), ffn, hidden));
        }
        ModelSpec {
            name: "GPT-neo-125M",
            layers,
            fwd_bwd_flops_per_sample: 3.0 * 50e9, // effective per-sequence cost, calibrated to Fig. 1 phase ratios
            per_gpu_batch: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_parameter_count_is_plausible() {
        let spec = ModelSpec::resnet50();
        let params = spec.total_grad_elems();
        // Published conv+fc parameter count ≈ 25.5 M.
        assert!(
            (23_000_000..28_000_000).contains(&params),
            "params {params}"
        );
        assert_eq!(spec.layers.len(), 54); // conv1 + 48 block convs + 4 downsample + fc
    }

    #[test]
    fn bert_large_parameter_count_is_plausible() {
        let spec = ModelSpec::bert_large();
        let params = spec.total_grad_elems();
        // Encoder linears of BERT-large ≈ 24 * 12.6M ≈ 302M.
        assert!(
            (280_000_000..330_000_000).contains(&params),
            "params {params}"
        );
    }

    #[test]
    fn gpt_neo_parameter_count_is_plausible() {
        let spec = ModelSpec::gpt_neo_125m();
        let params = spec.total_grad_elems();
        // Blocks only (no embedding): ≈ 12 * 7.1M ≈ 85M.
        assert!(
            (70_000_000..100_000_000).contains(&params),
            "params {params}"
        );
    }

    #[test]
    fn mask_rcnn_larger_than_resnet() {
        let r = ModelSpec::resnet50().total_grad_elems();
        let m = ModelSpec::mask_rcnn().total_grad_elems();
        assert!(m > r, "mask {m} vs resnet {r}");
        assert!((38_000_000..50_000_000).contains(&m), "params {m}");
    }

    #[test]
    fn layer_sizes_vary_by_orders_of_magnitude() {
        // The motivation for layer aggregation (§4.4): tiny and huge
        // layers coexist.
        let spec = ModelSpec::mask_rcnn();
        let sizes = spec.layer_grad_bytes();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max / min > 1000, "spread {}", max / min);
    }

    #[test]
    fn factor_volume_exceeds_gradient_volume_for_wide_ffn_layers() {
        // The (4096+1)² FFN activation factor dwarfs the 1024×4096 grad —
        // which is why distributed K-FAC amortizes the factor all-reduce
        // over a multi-iteration update interval while the gradient
        // all-gather runs every iteration (Fig. 1's Allgather ≫ Allreduce).
        let spec = ModelSpec::bert_large();
        assert!(spec.total_factor_elems() > spec.total_grad_elems());
    }

    #[test]
    fn grad_and_factor_arithmetic() {
        let l = LayerSpec::new("t", 4, 3);
        assert_eq!(l.grad_elems(), 15);
        assert_eq!(l.factor_a_elems(), 25);
        assert_eq!(l.factor_g_elems(), 9);
        assert!(l.eigen_flops() > 0.0);
    }

    #[test]
    fn all_returns_four_models() {
        let names: Vec<&str> = ModelSpec::all().iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec!["ResNet-50", "Mask R-CNN", "BERT-large", "GPT-neo-125M"]
        );
    }
}
