//! Table 2: lossless-encoder comparison — compression ratio and
//! (de)compression throughput of the eight codec families on quantized
//! K-FAC gradient data for ResNet-50 and BERT-large.
//!
//! The measured bytes are exactly what COMPSO's encoder stage sees: the
//! concatenated filter bitmaps and SR code records (one byte per code).
//!
//! Paper shape: entropy coders (ANS, Deflate, Gdeflate, Zstd) reach the
//! highest ratios on this data; ANS pairs a top-tier ratio with the best
//! throughput, making it the overall pick; Bitcomp is fastest but
//! ratio-weak; Cascaded/LZ4/Snappy trail on ratio.

use compso_bench::{f, gbps, header, row, spec_gradients, SAMPLE_BUDGET};
use compso_core::filter::filter;
use compso_core::quantize::Quantizer;
use compso_core::{Codec, RoundingMode};
use compso_dnn::ModelSpec;
use compso_tensor::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Produces the encoder-stage byte stream (bitmaps + code records) for a
/// model's gradients at the paper's aggressive setting.
fn encoder_input(spec: &ModelSpec, seed: u64) -> Vec<u8> {
    let layers = spec_gradients(spec, SAMPLE_BUDGET, seed);
    let mut rng = Rng::new(seed ^ 0xE);
    let mut bytes = Vec::new();
    let quantizer = Quantizer::relative(4e-3, RoundingMode::Stochastic);
    for layer in &layers {
        let mm = compso_tensor::reduce::minmax_flat(layer);
        let range = if layer.is_empty() {
            0.0
        } else {
            mm.max - mm.min
        };
        if range <= 0.0 {
            continue;
        }
        let filtered = filter(layer, 4e-3 * range);
        bytes.extend_from_slice(&filtered.bitmap.to_bytes());
        let quant = quantizer.quantize(&filtered.kept, &mut rng);
        let mut w = compso_core::wire::Writer::new();
        let planes = quant.write(&mut w);
        bytes.extend_from_slice(&w.into_bytes());
        bytes.extend_from_slice(&planes);
    }
    bytes
}

fn main() {
    println!("# Table 2 — encoder comparison on COMPSO's quantized gradient data\n");
    for spec in [ModelSpec::resnet50(), ModelSpec::bert_large()] {
        println!("## {}\n", spec.name);
        let input = encoder_input(&spec, 7);
        let original_f32_bytes = SAMPLE_BUDGET as u64 * 4;
        header(&["encoder", "C-GB/s", "overall CR", "D-GB/s"]);
        for codec in Codec::all() {
            // One untimed pass (cold caches, first-touch pages, lazy
            // tables), then the fastest of three: unwarmed single shots
            // moved the GB/s columns by ±30 % run to run.
            let enc = codec.encode(&input);
            let dec = codec.decode(&enc).expect("roundtrip");
            let (mut enc_t, mut dec_t) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..3 {
                let t0 = Instant::now();
                black_box(codec.encode(black_box(&input)));
                enc_t = enc_t.min(t0.elapsed().as_secs_f64());
                let t1 = Instant::now();
                black_box(codec.decode(black_box(&enc)).expect("roundtrip"));
                dec_t = dec_t.min(t1.elapsed().as_secs_f64());
            }
            assert_eq!(dec.len(), input.len());
            // Overall CR: original f32 gradient bytes vs final bytes —
            // the same accounting as the paper's "overall compression
            // ratio ... on KFAC gradient data".
            let cr = original_f32_bytes as f64 / enc.len() as f64;
            row(&[
                codec.name().to_string(),
                gbps(input.len() as f64 / enc_t.max(1e-9)),
                f(cr, 2),
                gbps(enc.len() as f64 / dec_t.max(1e-9)),
            ]);
        }
        println!();
    }
    println!(
        "Paper shape to verify: entropy coders (ANS/Deflate/Gdeflate/Zstd)\n\
         reach the highest CR; ANS combines top-tier CR with the best\n\
         throughput product; Bitcomp is throughput-first/ratio-last;\n\
         dictionary (LZ4/Snappy) and RLE (Cascaded) trail on CR."
    );
}
