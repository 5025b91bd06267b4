//! Runtime CPU-feature dispatch for the workspace's vector kernels.
//!
//! The per-element transforms on the training path (the Gaussian noise of
//! [`crate::NoiseModel::apply_slice`], `inca-nn`'s activation
//! quantization) and `inca-xbar`'s popcount kernels all want AVX2 when the
//! host has it, while the build targets baseline x86-64. This module holds
//! the one detection they share, made once per process and cached, and
//! [`dispatch`], which runs a kernel body compiled for AVX2 or for the
//! baseline target.
//!
//! A kernel body is an `#[inline(always)]` function called from the closure
//! handed to [`dispatch`]. The closure is instantiated twice: once inside a
//! `#[target_feature(enable = "avx2")]` wrapper, where LLVM vectorizes it
//! with 256-bit registers and the AVX2 forms of `round`, and once on the
//! baseline target. Both instantiations run the same Rust operations, so
//! IEEE arithmetic gives the same bits either way; the choice changes speed,
//! never output. There is no knob: the host decides.
//!
//! The `unsafe` here is the call into the AVX2 instantiation, sound because
//! [`avx2_available`] has confirmed the feature; it carries a `// SAFETY:`
//! comment, enforced by the `inca-lint` `safety-comment` rule.

#![allow(unsafe_code)] // the AVX2 call in `dispatch`; see module docs

use std::sync::OnceLock;

/// Whether this host supports AVX2: one `cpuid` for the process lifetime.
#[must_use]
pub fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(detect_avx2)
}

#[cfg(target_arch = "x86_64")]
fn detect_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx2() -> bool {
    false
}

/// Which instantiation [`dispatch`] runs on this host: `"avx2"` or
/// `"portable"`.
#[must_use]
pub fn active_impl() -> &'static str {
    if avx2_available() {
        "avx2"
    } else {
        "portable"
    }
}

/// Runs `kernel` compiled for AVX2 when the host has it, and for the
/// baseline target otherwise.
///
/// `kernel` should call an `#[inline(always)]` kernel body, so that the body
/// is inlined into, and vectorized for, each instantiation.
#[inline]
pub fn dispatch<R>(kernel: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: `avx2_available()` verified that the CPU supports the
        // `avx2` feature `run_avx2` is compiled for.
        return unsafe { run_avx2(kernel) };
    }
    kernel()
}

/// The AVX2 instantiation of a [`dispatch`]ed kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_and_named() {
        assert_eq!(avx2_available(), avx2_available());
        assert_eq!(active_impl(), if avx2_available() { "avx2" } else { "portable" });
    }

    #[test]
    fn dispatch_returns_the_kernel_result() {
        let mut v = [1.5f32; 37];
        let sum = dispatch(|| {
            v.iter_mut().for_each(|x| *x = (*x * 3.0).round());
            v.iter().sum::<f32>()
        });
        assert_eq!(sum, 37.0 * 5.0);
    }
}
