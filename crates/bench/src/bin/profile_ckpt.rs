//! Component-level profile of the checkpoint lossless path: times the
//! CRC kernel and the block entropy coder separately over a synthetic
//! K-FAC buffer, so a regression in the benchmark's `ckpt.save_MBps` can
//! be attributed without guessing.

use compso_core::encoders::Codec;
use compso_core::synthetic::{generate, GradientProfile};
use compso_core::wire::crc32;
use std::time::Instant;

fn main() {
    let elems = 4 << 20;
    let data = generate(elems, 21, GradientProfile::kfac());
    let raw: Vec<u8> = data.iter().flat_map(|f| f.to_le_bytes()).collect();
    let mb = raw.len() as f64 / 1e6;

    let t = Instant::now();
    let c = crc32(&raw);
    println!(
        "crc32: {:.1} MB/s (c={c:08x})",
        mb / t.elapsed().as_secs_f64()
    );

    let t = Instant::now();
    let enc = Codec::Ans.encode_blocks(&raw, 256 * 1024);
    println!(
        "ans encode_blocks: {:.1} MB/s ({} -> {})",
        mb / t.elapsed().as_secs_f64(),
        raw.len(),
        enc.len()
    );

    let t = Instant::now();
    let dec = Codec::decode_blocks(&enc).expect("roundtrip");
    println!(
        "ans decode_blocks: {:.1} MB/s",
        mb / t.elapsed().as_secs_f64()
    );
    assert_eq!(dec, raw);
}
