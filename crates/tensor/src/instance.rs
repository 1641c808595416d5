//! The workspace's one run-time instruction-set choice.
//!
//! A kernel that pays for wider instructions is compiled more than once
//! from one source: a portable instance in baseline codegen, and wide
//! instances whose job bodies carry a `#[target_feature]` and are entered
//! from that kernel's arm of the instance: an AVX2 body
//! (`enable = "avx2"`) from an `Instance::Avx2` arm, or from an
//! `Instance::Avx2 | Instance::Avx512` arm where the AVX-512 instance
//! reuses it, and an AVX-512 body (`enable = "avx512f,avx512dq"`) from an
//! `Instance::Avx512` arm. Every instance computes the same bits (the
//! rANS coder: the same bytes). The GEMM core (`matrix.rs`), the
//! eigensolver (`eigen.rs`), the extrema scan (`reduce.rs`), and
//! compso-core's stochastic-rounding lanes, drop mask, code splitter,
//! dequantize and rANS coder read [`Instance::current`] once per call on
//! the calling thread and run that instance's body. Only the GEMM tile
//! and the stochastic-rounding lanes have an AVX-512 body; the other
//! kernels run their AVX2 body on the AVX-512 instance.

use std::cell::Cell;

/// A compiled instance of a kernel that has more than one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instance {
    /// Baseline codegen: runs on every host.
    Portable,
    /// The job body compiled with AVX2: x86-64 hosts that have it.
    Avx2,
    /// The job body compiled with AVX-512 F and DQ where a kernel has
    /// one, its AVX2 body where it has not: x86-64 hosts that have AVX2,
    /// AVX-512 F and AVX-512 DQ.
    Avx512,
}

thread_local! {
    /// The instance a live [`InstancePin`] holds for this thread's calls.
    static PINNED: Cell<Option<Instance>> = const { Cell::new(None) };
}

impl Instance {
    /// Every instance, whether or not this host can run it.
    pub const ALL: [Instance; 3] = [Instance::Portable, Instance::Avx2, Instance::Avx512];

    /// Whether this host can run `self`.
    pub fn available(self) -> bool {
        match self {
            Instance::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Instance::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Instance::Avx512 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Instance::Avx2 | Instance::Avx512 => false,
        }
    }

    /// The instance a kernel started on this thread runs: the pinned one,
    /// else the widest this host has.
    pub fn current() -> Self {
        PINNED.get().unwrap_or_else(|| {
            *[Instance::Avx512, Instance::Avx2]
                .iter()
                .find(|inst| inst.available())
                .unwrap_or(&Instance::Portable)
        })
    }

    /// Pins the kernels this thread starts to `self` until the guard
    /// drops, so a test or a timing can run any instance on one host.
    ///
    /// # Panics
    /// If this host cannot run `self`.
    #[must_use = "the pin is released when the guard drops"]
    pub fn pin(self) -> InstancePin {
        assert!(self.available(), "{self:?} not available on this host");
        InstancePin {
            prev: PINNED.replace(Some(self)),
        }
    }
}

/// Guard of [`Instance::pin`]; restores the previous pin on drop.
pub struct InstancePin {
    prev: Option<Instance>,
}

impl Drop for InstancePin {
    fn drop(&mut self) {
        PINNED.set(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `current` runs the widest instance this host has, and a pin holds
    /// another until it drops. Prints the host's instances, the ones every
    /// per-instance test covers here: `scripts/ci.sh` shows that line.
    #[test]
    fn current_is_the_widest_available_instance_unless_pinned() {
        let here: Vec<Instance> = Instance::ALL
            .into_iter()
            .filter(|inst| inst.available())
            .collect();
        println!("instances this host runs: {here:?}");
        let widest = *here.last().expect("the portable instance runs anywhere");
        assert_eq!(here[0], Instance::Portable);
        assert_eq!(Instance::current(), widest);
        for &inst in &here {
            let _pin = inst.pin();
            assert_eq!(Instance::current(), inst);
        }
        assert_eq!(Instance::current(), widest);
    }
}
