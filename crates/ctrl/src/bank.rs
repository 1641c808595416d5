//! Materializes policy [`Setting`]s into live [`Compressor`] instances.
//!
//! The controller reasons about abstract operating points; the training
//! loop needs concrete compressors behind the group API. Instantiation
//! is centralized here so family→implementation mapping lives in one
//! place.
//! Callers should cache the instance per setting — PowerSGD in
//! particular accumulates per-layer warm-start/error-feedback state that
//! must survive across steps while the setting is held.

use crate::policy::{Family, Setting};
use compso_core::baselines::{PowerSgd, Qsgd};
use compso_core::{ChunkedCompso, Compressor, CompsoConfig, NoCompression};

/// Builds the compressor a [`Setting`] describes.
pub fn instantiate(setting: &Setting) -> Box<dyn Compressor> {
    match setting.family {
        Family::None => Box::new(NoCompression),
        Family::Compso => Box::new(ChunkedCompso::new(CompsoConfig::aggressive(
            setting.threshold as f32,
        ))),
        Family::Qsgd => Box::new(Qsgd {
            bits: u32::from(setting.bits.clamp(2, 16)),
        }),
        Family::PowerSgd => Box::new(PowerSgd::rank(usize::from(setting.rank.max(1)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compso_obs::Recorder;
    use compso_tensor::Rng;

    #[test]
    fn every_family_instantiates_and_roundtrips() {
        let rec = Recorder::disabled();
        let mut rng = Rng::new(3);
        let data: Vec<f32> = {
            let mut r = Rng::new(1);
            (0..4096).map(|_| r.laplace(0.01)).collect()
        };
        for setting in [
            Setting::uncompressed(),
            Setting::compso(4e-3),
            Setting::qsgd(8),
            Setting::qsgd(4),
            Setting::powersgd(4),
        ] {
            let c = instantiate(&setting);
            let refs: [&[f32]; 1] = [data.as_slice()];
            let bytes = c.compress_group(&refs, None, &mut rng, &rec);
            let back = c
                .decompress_group(&bytes, &rec)
                .unwrap_or_else(|e| panic!("{}: {e}", setting.label()));
            assert_eq!(back.len(), 1, "{}", setting.label());
            assert_eq!(back[0].len(), data.len(), "{}", setting.label());
        }
    }

    #[test]
    fn instantiation_matches_family_names() {
        assert_eq!(
            instantiate(&Setting::uncompressed()).name(),
            "NoCompression"
        );
        assert!(instantiate(&Setting::powersgd(4))
            .name()
            .contains("PowerSGD"));
        assert!(instantiate(&Setting::qsgd(8)).name().contains("QSGD"));
        let c = instantiate(&Setting::compso(4e-3));
        assert!(c.name().to_lowercase().contains("compso"), "{}", c.name());
    }
}
