//! Runtime-dispatched SIMD kernels for the packed read path.
//!
//! Every packed window read bottoms out in the same primitive: AND two
//! `u64` word slices and popcount the result (`popcount(x & w)` — see
//! [`crate::packed`]). This module supplies that primitive in three
//! interchangeable, bit-exact implementations and picks one at runtime:
//!
//! * **avx2** (`x86_64` hosts with AVX2) — `std::arch` intrinsics
//!   processing 4 words (256 bits) per lane-step with the nibble-LUT
//!   popcount (`_mm256_shuffle_epi8` + `_mm256_sad_epu8`),
//! * **portable** — a 4-wide unrolled scalar loop (four independent
//!   accumulators so the backend can vectorize or at least pipeline it),
//!   used on non-x86 targets and pre-AVX2 x86 parts.
//!
//! Dispatch follows the workspace's one cached AVX2 detection,
//! [`inca_device::simd::avx2_available`], and is observable through
//! [`active_impl`], which the bench artifact records. All
//! implementations compute exact integer popcounts, so the choice can
//! never change an output bit — pinned by the tests at the bottom of
//! this file and the engine-level parity proptests.
//!
//! Two entry points cover the engines' needs:
//!
//! * [`and_popcount`] — the summed dot product `Σ popcount(x_i & w_i)`,
//!   used for one window against one kernel bit-plane (the `hw_train`
//!   δ-windows span dozens of words, where the 4-word lane-step pays
//!   directly),
//! * [`and_popcount_lanes`] — per-word popcounts, used by the conv
//!   engines to evaluate one kernel bit-plane against **all eight
//!   activation-bit groups of a window in a single pass** over an
//!   `xbits·kwords` buffer (the kernel words are pre-tiled per group by
//!   [`crate::PackedKernel::tiled`]); the caller then folds each group's
//!   lane counts with its own shift/saturation semantics. This is what
//!   makes small (3×3) kernels SIMD-wide: the vector unit sees 24+
//!   contiguous words instead of 3.
//!
//! Together with `inca_device::simd`, whose dispatch runs the vectorized
//! noise and quantization kernels, this module holds the workspace's
//! `unsafe` code; every unsafe block carries a `// SAFETY:` comment,
//! enforced by the `inca-lint` `safety-comment` rule.

#![allow(unsafe_code)] // the std::arch path below; see module docs

#[cfg(target_arch = "x86_64")]
use inca_device::simd::avx2_available;

/// Which implementation [`and_popcount`]/[`and_popcount_lanes`] dispatch
/// to on this host: `"avx2"` or `"portable"`.
#[must_use]
pub fn active_impl() -> &'static str {
    inca_device::simd::active_impl()
}

/// `Σ popcount(x_i & w_i)` over two equal-length word slices.
///
/// Bit-exact with the plain scalar loop on every implementation.
///
/// # Panics
///
/// Panics (debug builds) if the slice lengths differ.
#[inline]
#[must_use]
pub fn and_popcount(x: &[u64], w: &[u64]) -> u32 {
    debug_assert_eq!(x.len(), w.len(), "and_popcount length mismatch");
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 4 && avx2_available() {
        // SAFETY: `avx2_available()` verified the CPU supports the
        // `avx2` feature this function is compiled for.
        return unsafe { and_popcount_avx2(x, w) };
    }
    and_popcount_portable(x, w)
}

/// Per-word popcounts: `out[i] = popcount(x_i & w_i)`.
///
/// The conv engines call this once per (kernel bit-plane, window) with
/// `x`/`w` spanning all activation-bit groups, then fold each group's
/// `kwords` lanes with the group's own shift (and, for [`crate::plane`]
/// reads, ADC saturation) — keeping the per-read semantics while the
/// AND+popcount itself runs 4 words per step.
///
/// # Panics
///
/// Panics (debug builds) if the slice lengths differ.
#[inline]
pub fn and_popcount_lanes(x: &[u64], w: &[u64], out: &mut [u32]) {
    debug_assert_eq!(x.len(), w.len(), "and_popcount_lanes length mismatch");
    debug_assert_eq!(x.len(), out.len(), "and_popcount_lanes output mismatch");
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 4 && avx2_available() {
        // SAFETY: `avx2_available()` verified the CPU supports the
        // `avx2` feature this function is compiled for.
        unsafe { and_popcount_lanes_avx2(x, w, out) };
        return;
    }
    and_popcount_lanes_portable(x, w, out);
}

/// The portable 4-wide unrolled fallback for [`and_popcount`]: four
/// independent accumulators so the adds pipeline, plus a scalar tail.
#[inline]
#[must_use]
pub fn and_popcount_portable(x: &[u64], w: &[u64]) -> u32 {
    let mut acc = [0u32; 4];
    let mut xc = x.chunks_exact(4);
    let mut wc = w.chunks_exact(4);
    for (xs, ws) in (&mut xc).zip(&mut wc) {
        acc[0] += (xs[0] & ws[0]).count_ones();
        acc[1] += (xs[1] & ws[1]).count_ones();
        acc[2] += (xs[2] & ws[2]).count_ones();
        acc[3] += (xs[3] & ws[3]).count_ones();
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for (&xv, &wv) in xc.remainder().iter().zip(wc.remainder()) {
        total += (xv & wv).count_ones();
    }
    total
}

/// The portable fallback for [`and_popcount_lanes`] (4-wide unrolled).
#[inline]
pub fn and_popcount_lanes_portable(x: &[u64], w: &[u64], out: &mut [u32]) {
    let mut i = 0usize;
    while i + 4 <= x.len() {
        out[i] = (x[i] & w[i]).count_ones();
        out[i + 1] = (x[i + 1] & w[i + 1]).count_ones();
        out[i + 2] = (x[i + 2] & w[i + 2]).count_ones();
        out[i + 3] = (x[i + 3] & w[i + 3]).count_ones();
        i += 4;
    }
    while i < x.len() {
        out[i] = (x[i] & w[i]).count_ones();
        i += 1;
    }
}

/// AVX2 `Σ popcount(x & w)`: 4 words per 256-bit step via the nibble-LUT
/// popcount, per-64-bit-lane sums accumulated with `_mm256_sad_epu8`.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn and_popcount_avx2(x: &[u64], w: &[u64]) -> u32 {
    use std::arch::x86_64::{__m256i, _mm256_add_epi64, _mm256_setzero_si256, _mm256_storeu_si256};
    let n = x.len();
    let mut total = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` keeps the 32-byte unaligned loads inside
        // both slices; `anded_nibble_counts` only dereferences those.
        let counts = unsafe { anded_nibble_counts(x.as_ptr().add(i), w.as_ptr().add(i)) };
        total = _mm256_add_epi64(total, counts);
        i += 4;
    }
    let mut lanes = [0u64; 4];
    // SAFETY: `lanes` is a 32-byte buffer; storeu has no alignment
    // requirement.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), total) };
    #[allow(clippy::cast_possible_truncation)] // popcounts of ≤2³² bits fit u32
    let mut acc = (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as u32;
    while i < n {
        acc += (x[i] & w[i]).count_ones();
        i += 1;
    }
    acc
}

/// AVX2 per-word popcounts of `x & w` (4 words per step + scalar tail).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn and_popcount_lanes_avx2(x: &[u64], w: &[u64], out: &mut [u32]) {
    use std::arch::x86_64::{__m256i, _mm256_storeu_si256};
    let n = x.len();
    let mut i = 0usize;
    let mut lanes = [0u64; 4];
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` keeps the 32-byte unaligned loads inside
        // both slices; `anded_nibble_counts` only dereferences those.
        let counts = unsafe { anded_nibble_counts(x.as_ptr().add(i), w.as_ptr().add(i)) };
        // SAFETY: `lanes` is a 32-byte buffer; storeu has no alignment
        // requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), counts) };
        #[allow(clippy::cast_possible_truncation)] // per-word popcounts are ≤ 64
        {
            out[i] = lanes[0] as u32;
            out[i + 1] = lanes[1] as u32;
            out[i + 2] = lanes[2] as u32;
            out[i + 3] = lanes[3] as u32;
        }
        i += 4;
    }
    while i < n {
        out[i] = (x[i] & w[i]).count_ones();
        i += 1;
    }
}

/// One 256-bit step of the nibble-LUT popcount: loads 4 words from each
/// pointer, ANDs them, and returns the four per-64-bit-lane bit counts.
///
/// # Safety
///
/// Both pointers must be readable for 32 bytes; the caller must have
/// verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn anded_nibble_counts(x: *const u64, w: *const u64) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi8, _mm256_and_si256, _mm256_loadu_si256, _mm256_sad_epu8, _mm256_set1_epi8,
        _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16,
    };
    // Per-nibble popcount lookup table, repeated across both 128-bit
    // halves (shuffle_epi8 indexes within each half).
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    // SAFETY: the caller guarantees both pointers are readable for 32
    // bytes; loadu has no alignment requirement.
    let v = unsafe {
        _mm256_and_si256(_mm256_loadu_si256(x.cast::<__m256i>()), _mm256_loadu_si256(w.cast::<__m256i>()))
    };
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    let per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    // Sum the 8 byte-counts of each 64-bit lane into that lane.
    _mm256_sad_epu8(per_byte, _mm256_setzero_si256())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn reference(x: &[u64], w: &[u64]) -> u32 {
        x.iter().zip(w).map(|(&a, &b)| (a & b).count_ones()).sum()
    }

    fn random_words(len: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        ((0..len).map(|_| rng.next_u64()).collect(), (0..len).map(|_| rng.next_u64()).collect())
    }

    #[test]
    fn dispatched_sum_matches_reference_across_lengths() {
        for len in 0..=67 {
            let (x, w) = random_words(len, 1000 + len as u64);
            assert_eq!(and_popcount(&x, &w), reference(&x, &w), "len {len}");
            assert_eq!(and_popcount_portable(&x, &w), reference(&x, &w), "portable len {len}");
        }
    }

    #[test]
    fn dispatched_lanes_match_reference_across_lengths() {
        for len in 0..=67 {
            let (x, w) = random_words(len, 2000 + len as u64);
            let expect: Vec<u32> = x.iter().zip(&w).map(|(&a, &b)| (a & b).count_ones()).collect();
            let mut got = vec![0u32; len];
            and_popcount_lanes(&x, &w, &mut got);
            assert_eq!(got, expect, "len {len}");
            let mut portable = vec![0u32; len];
            and_popcount_lanes_portable(&x, &w, &mut portable);
            assert_eq!(portable, expect, "portable len {len}");
        }
    }

    #[test]
    fn saturated_words_count_fully() {
        let x = vec![u64::MAX; 9];
        let w = vec![u64::MAX; 9];
        assert_eq!(and_popcount(&x, &w), 9 * 64);
        let mut lanes = vec![0u32; 9];
        and_popcount_lanes(&x, &w, &mut lanes);
        assert_eq!(lanes, vec![64u32; 9]);
    }

    #[test]
    fn active_impl_names_a_known_level() {
        assert!(matches!(active_impl(), "avx2" | "portable"));
    }
}
