//! The workspace's one run-time instruction-set choice.
//!
//! A kernel that pays for wider instructions is compiled twice from one
//! source: a portable instance in baseline codegen, and an AVX2 instance
//! whose job body carries `#[target_feature(enable = "avx2")]` and is
//! entered from that kernel's `Instance::Avx2` arm. Both compute the same
//! bits (the rANS coder: the same bytes). The GEMM core (`matrix.rs`),
//! the eigensolver (`eigen.rs`), the extrema scan (`reduce.rs`), and
//! compso-core's stochastic-rounding lanes, drop mask, code splitter,
//! dequantize and rANS coder read [`Instance::current`] once per call on
//! the calling thread and run that instance's body.

use std::cell::Cell;

/// A compiled instance of a kernel that has two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instance {
    /// Baseline codegen: runs on every host.
    Portable,
    /// The job body compiled with AVX2: x86-64 hosts that have it.
    Avx2,
}

thread_local! {
    /// The instance a live [`InstancePin`] holds for this thread's calls.
    static PINNED: Cell<Option<Instance>> = const { Cell::new(None) };
}

impl Instance {
    /// Every instance, whether or not this host can run it.
    pub const ALL: [Instance; 2] = [Instance::Portable, Instance::Avx2];

    /// Whether this host can run `self`.
    pub fn available(self) -> bool {
        match self {
            Instance::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Instance::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Instance::Avx2 => false,
        }
    }

    /// The instance a kernel started on this thread runs: the pinned one,
    /// else AVX2 where the host has it.
    pub fn current() -> Self {
        PINNED.get().unwrap_or(if Instance::Avx2.available() {
            Instance::Avx2
        } else {
            Instance::Portable
        })
    }

    /// Pins the kernels this thread starts to `self` until the guard
    /// drops, so a test or a timing can run either instance on one host.
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
