use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

use crate::simd;

/// Zero-centered Gaussian noise model for RRAM nonideality.
///
/// The paper models the combined effect of device variation, nonlinearity
/// and asymmetry as zero-centered normal noise whose strength σ is expressed
/// *relative* to the stored value (§V-B7, following Yu, *Neuro-inspired
/// computing with emerging nonvolatile memorys*). The practical range is
/// σ ∈ [0.5 %, 5 %].
///
/// # Examples
///
/// ```
/// use inca_device::NoiseModel;
/// use rand::SeedableRng;
///
/// let noise = NoiseModel::relative(0.02);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let noisy = noise.apply(1.0, &mut rng);
/// assert!((noisy - 1.0).abs() < 0.2); // within a few sigma
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Noise strength σ.
    pub sigma: f64,
    /// When `true`, σ scales with the magnitude of the perturbed value
    /// (`x → x · (1 + N(0, σ))`); when `false` it is absolute
    /// (`x → x + N(0, σ)`).
    pub relative: bool,
}

impl NoiseModel {
    /// A noise model with σ relative to the stored value (the paper's mode).
    #[must_use]
    pub fn relative(sigma: f64) -> Self {
        Self { sigma: sigma.abs(), relative: true }
    }

    /// A noise model with absolute σ.
    #[must_use]
    pub fn absolute(sigma: f64) -> Self {
        Self { sigma: sigma.abs(), relative: false }
    }

    /// The noiseless model (σ = 0).
    #[must_use]
    pub fn none() -> Self {
        Self { sigma: 0.0, relative: true }
    }

    /// Whether this model perturbs values at all.
    #[must_use]
    pub fn is_noisy(&self) -> bool {
        self.sigma > 0.0
    }

    /// Applies one sample of noise to `value`.
    pub fn apply<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return value;
        }
        let (u1, u2) = uniforms(rng);
        self.perturb(value, gaussian(u1, u2))
    }

    /// Applies independent noise samples to every element of `values`.
    ///
    /// Bit-identical to calling [`NoiseModel::apply`] on each element in
    /// turn, and it draws the same random numbers in the same order, but
    /// several times faster. Each chunk of elements first draws every
    /// element's uniforms, then transforms them with branch-free polynomial
    /// `ln`/`cos` in a vectorized kernel. An element keeps the fast result
    /// only when a derived error bound proves that the libm expression of
    /// [`NoiseModel::apply`] rounds to the same `f32`; the rest (about one
    /// in 10⁴, plus NaN and infinite results) are recomputed with libm.
    /// DESIGN.md §6 "Noise and quantization fast paths" has the proof.
    pub fn apply_slice<R: Rng + ?Sized>(&self, values: &mut [f32], rng: &mut R) {
        if self.sigma == 0.0 {
            return;
        }
        let (mut u1, mut u2, mut fast) = ([0.0f64; CHUNK], [0.0f64; CHUNK], [false; CHUNK]);
        for chunk in values.chunks_mut(CHUNK) {
            let n = chunk.len();
            for (a, b) in u1[..n].iter_mut().zip(&mut u2[..n]) {
                (*a, *b) = uniforms(rng);
            }
            let (u1, u2, fast) = (&u1[..n], &u2[..n], &mut fast[..n]);
            let all_fast = simd::dispatch(|| {
                if self.relative {
                    perturb_chunk::<true>(chunk, u1, u2, self.sigma, fast)
                } else {
                    perturb_chunk::<false>(chunk, u1, u2, self.sigma, fast)
                }
            });
            if !all_fast {
                for i in (0..n).filter(|&i| !fast[i]) {
                    chunk[i] = self.perturb(f64::from(chunk[i]), gaussian(u1[i], u2[i])) as f32;
                }
            }
        }
    }

    /// `value` perturbed by the standard-normal sample `z`.
    fn perturb(&self, value: f64, z: f64) -> f64 {
        if self.relative {
            value * (1.0 + self.sigma * z)
        } else {
            value + self.sigma * z
        }
    }

    /// The paper's sweep of σ values for Table VI.
    #[must_use]
    pub fn paper_sweep() -> Vec<NoiseModel> {
        [0.005, 0.01, 0.02, 0.03, 0.05].iter().map(|&s| NoiseModel::relative(s)).collect()
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::none()
    }
}

/// The Box–Muller uniforms of one sample, drawn in the order every noise
/// path shares (avoids depending on `rand_distr`, which is outside the
/// approved dependency set).
fn uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// A standard normal from its uniforms via Box–Muller, with libm `ln` and
/// `cos`: the reference every noise path reproduces bit for bit.
fn gaussian(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// Elements per chunk of [`NoiseModel::apply_slice`]: all uniforms of a
/// chunk are drawn before any of them is transformed.
const CHUNK: usize = 256;

/// Relative error budget of the fast path, `2^-40`. The bound
/// `M = (s·σ·r + |o|)·ERR` on the distance between the fast and the libm
/// result holds with a margin of over 200× (DESIGN.md §6).
const ERR: f64 = 1.0 / (1u64 << 40) as f64;

/// The fast path of [`NoiseModel::apply_slice`] over one chunk: for each
/// element, `values[i]` gets the fast result and `fast[i]` is set when
/// [`rounds_unambiguously`] proves it equal to the libm result; otherwise
/// `values[i]` is left as it was and `fast[i]` cleared. Returns whether
/// every element took the fast path.
#[inline(always)]
fn perturb_chunk<const RELATIVE: bool>(
    values: &mut [f32],
    u1: &[f64],
    u2: &[f64],
    sigma: f64,
    fast: &mut [bool],
) -> bool {
    let mut all = true;
    for (((v, &a), &b), ok) in values.iter_mut().zip(u1).zip(u2).zip(fast.iter_mut()) {
        let x = f64::from(*v);
        let (z, r) = fast_gaussian(a, b);
        // `s` scales the noise term's error: `|x|` when the noise is relative.
        let (o, s) = if RELATIVE { (x * (1.0 + sigma * z), x.abs()) } else { (x + sigma * z, 1.0) };
        let m = (s * sigma * r + o.abs()) * ERR + f64::MIN_POSITIVE;
        let exact = rounds_unambiguously(o, m);
        if exact {
            *v = o as f32;
        }
        *ok = exact;
        all &= exact;
    }
    all
}

/// Whether every real number within `m` of `o` rounds to the same `f32` as
/// `o`. Rounding is monotone, so it suffices that both ends of the interval
/// do; the ends are compared as bits so that an interval around zero, whose
/// ends round to `-0.0` and `+0.0`, fails. NaN and infinite `o` fail too.
#[inline(always)]
fn rounds_unambiguously(o: f64, m: f64) -> bool {
    o.is_finite() & (((o - m) as f32).to_bits() == ((o + m) as f32).to_bits())
}

/// [`gaussian`] from branch-free polynomials, with `r = (-2 ln u1)^½`:
/// returns `(z, r)`. `|z - gaussian(u1, u2)| ≤ 35·2^-53·r` for
/// `u1 ∈ [f64::MIN_POSITIVE, 1)` and `u2 ∈ [0, 1)` (DESIGN.md §6).
#[inline(always)]
fn fast_gaussian(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * fast_ln(u1)).sqrt();
    (r * fast_cos(TAU * u2), r)
}

/// `2^52`: adding `1.5·2^52` rounds an f64 of magnitude below `2^51` to an
/// integer held in the low mantissa bits.
const TWO52: f64 = 4_503_599_627_370_496.0;
const ROUND_MAGIC: f64 = 1.5 * TWO52;
/// `ln 2` split so that `k·LN2_HI` is exact for `|k| < 2^21`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// Bits of `√2/2`, the lower end of the reduced mantissa range.
const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;
/// `π/2` split so that `k·PIO2_HI` is exact for `|k| < 2^22`.
const PIO2_HI: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
const PIO2_LO: f64 = f64::from_bits(0x3DD0_B461_1A62_6331);

/// `ln x` for positive normal finite `x`, to within 6·2^-53 relative.
///
/// `x = 2^k·m` with `m ∈ [√2/2, √2)`, then `ln m = 2 atanh(s)` with
/// `s = (m-1)/(m+1)`, `|s| ≤ 0.1716`, as the odd Taylor series through
/// `s^21` (truncation below 10^-18 relative).
#[inline(always)]
fn fast_ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let tmp = bits.wrapping_sub(SQRT_HALF_BITS);
    // The top 12 bits of `tmp` are `k` in two's complement. Flipping the
    // top bit adds 2048, and or-ing the biased value under 2^52 turns it
    // into a float without an integer conversion, which AVX2 lacks for
    // 64-bit lanes.
    let k = f64::from_bits(TWO52.to_bits() | ((tmp ^ (1 << 63)) >> 52)) - (TWO52 + 2048.0);
    let m = f64::from_bits(bits.wrapping_sub(tmp & (0xFFF << 52)));
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let w = s * s;
    let p = 2.0 / 19.0 + w * (2.0 / 21.0);
    let p = 2.0 / 17.0 + w * p;
    let p = 2.0 / 15.0 + w * p;
    let p = 2.0 / 13.0 + w * p;
    let p = 2.0 / 11.0 + w * p;
    let p = 2.0 / 9.0 + w * p;
    let p = 2.0 / 7.0 + w * p;
    let p = 2.0 / 5.0 + w * p;
    let p = 2.0 / 3.0 + w * p;
    let ln_m = 2.0 * s + s * (w * p);
    k * LN2_HI + (k * LN2_LO + ln_m)
}

/// `cos θ` for `θ ∈ [0, 2π]`, to within 24·2^-53 absolute.
///
/// Cody–Waite reduction to `x = θ - q·π/2`, `|x| ≤ π/4`, with `q` rounded
/// by the magic-number add; then the Taylor series of `cos x` through `x^16`
/// or of `sin x` through `x^17`, chosen and signed by the quadrant `q mod 4`
/// with bit masks.
#[inline(always)]
fn fast_cos(theta: f64) -> f64 {
    let t = theta * std::f64::consts::FRAC_2_PI + ROUND_MAGIC;
    let q = t.to_bits();
    let qf = t - ROUND_MAGIC;
    let x = (theta - qf * PIO2_HI) - qf * PIO2_LO;
    let y = x * x;
    let c = -1.0 / 87_178_291_200.0 + y * (1.0 / 20_922_789_888_000.0);
    let c = 1.0 / 479_001_600.0 + y * c;
    let c = -1.0 / 3_628_800.0 + y * c;
    let c = 1.0 / 40_320.0 + y * c;
    let c = -1.0 / 720.0 + y * c;
    let c = 1.0 / 24.0 + y * c;
    let c = -0.5 + y * c;
    let cos = 1.0 + y * c;
    let s = -1.0 / 1_307_674_368_000.0 + y * (1.0 / 355_687_428_096_000.0);
    let s = 1.0 / 6_227_020_800.0 + y * s;
    let s = -1.0 / 39_916_800.0 + y * s;
    let s = 1.0 / 362_880.0 + y * s;
    let s = -1.0 / 5_040.0 + y * s;
    let s = 1.0 / 120.0 + y * s;
    let s = -1.0 / 6.0 + y * s;
    let sin = x + (x * y) * s;
    // cos(qπ/2 + x) = cos x, -sin x, -cos x, sin x for q mod 4 = 0..3.
    let odd = 0u64.wrapping_sub(q & 1);
    let flip = ((q + 1) & 2) << 62;
    f64::from_bits(((sin.to_bits() & odd) | (cos.to_bits() & !odd)) ^ flip)
}

/// A `rand` distribution wrapper so the model can be plugged into iterator
/// pipelines (`rng.sample(noise_dist)`).
impl Distribution<f64> for NoiseModel {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.apply(1.0, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_sigma_is_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = NoiseModel::none();
        assert_eq!(n.apply(3.25, &mut rng), 3.25);
        assert!(!n.is_noisy());
    }

    #[test]
    fn relative_noise_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = NoiseModel::relative(0.05);
        let samples: Vec<f64> = (0..20_000).map(|_| n.apply(2.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 2.0).abs() < 0.01, "mean={mean}");
        // Var[x(1+σz)] = x²σ² = 4 * 0.0025 = 0.01
        assert!((var - 0.01).abs() < 0.002, "var={var}");
    }

    #[test]
    fn absolute_noise_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let n = NoiseModel::absolute(0.1);
        let samples: Vec<f64> = (0..20_000).map(|_| n.apply(0.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.005, "mean={mean}");
        assert!((var - 0.01).abs() < 0.002, "var={var}");
    }

    #[test]
    fn relative_noise_scales_with_magnitude() {
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(7);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(7);
        let n = NoiseModel::relative(0.05);
        let small = n.apply(1.0, &mut rng_a) - 1.0;
        let large = n.apply(100.0, &mut rng_b) - 100.0;
        assert!((large - 100.0 * small).abs() < 1e-9);
    }

    #[test]
    fn paper_sweep_matches_table_vi_sigmas() {
        let sweep = NoiseModel::paper_sweep();
        let sigmas: Vec<f64> = sweep.iter().map(|n| n.sigma).collect();
        assert_eq!(sigmas, vec![0.005, 0.01, 0.02, 0.03, 0.05]);
    }

    #[test]
    fn apply_slice_perturbs_every_element() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut v = vec![1.0f32; 64];
        NoiseModel::relative(0.05).apply_slice(&mut v, &mut rng);
        assert!(v.iter().any(|&x| (x - 1.0).abs() > 1e-6));
    }

    /// The `|z - z_libm| ≤ 35·2^-53·r` claim of [`fast_gaussian`], held to
    /// 1/1024 of the budget the fast path's filter assumes.
    fn assert_z_within_budget(u1: f64, u2: f64) {
        let (z, r) = fast_gaussian(u1, u2);
        let err = (z - gaussian(u1, u2)).abs();
        assert!(err <= ERR * r / 1024.0, "u1={u1:e} u2={u2:e}: |z'-z| = {err:e}, r = {r:e}");
    }

    #[test]
    fn polynomial_error_is_far_inside_the_budget() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for _ in 0..1_000_000 {
            let (u1, u2) = uniforms(&mut rng);
            assert_z_within_budget(u1, u2);
        }
        let ulp = f64::EPSILON / 2.0; // spacing of the draws just below 1
        let u1s = [f64::MIN_POSITIVE, ulp, 0.5, 1.0 - ulp];
        let mut u2s = vec![0.0, ulp, 1.0 - ulp];
        for k in 1..4 {
            let q = f64::from(k) / 4.0;
            u2s.extend([f64::from_bits(q.to_bits() - 1), q, f64::from_bits(q.to_bits() + 1)]);
        }
        for &u1 in &u1s {
            for &u2 in &u2s {
                assert_z_within_budget(u1, u2);
            }
        }
    }

    #[test]
    fn fast_ln_is_relatively_accurate_across_binades() {
        let mut x = f64::MIN_POSITIVE;
        while x < 1.0 {
            for t in [x, x * 1.1, x * 1.414, x * 1.415, x * 1.9] {
                let (fast, libm) = (fast_ln(t), t.ln());
                assert!((fast - libm).abs() <= 8.0 * f64::EPSILON * libm.abs(), "ln({t:e})");
            }
            x *= 2.0;
        }
    }

    #[test]
    fn cody_waite_splits_are_exact_where_it_matters() {
        assert_eq!(LN2_HI + LN2_LO, std::f64::consts::LN_2);
        assert_eq!(PIO2_HI + PIO2_LO, std::f64::consts::FRAC_PI_2);
        // Enough trailing zero bits that `k·HI` is exact for every `k` used.
        assert!(LN2_HI.to_bits().trailing_zeros() >= 21);
        assert!(PIO2_HI.to_bits().trailing_zeros() >= 22);
        assert_eq!(f64::from_bits(SQRT_HALF_BITS), std::f64::consts::FRAC_1_SQRT_2);
    }

    #[test]
    fn filter_rejects_an_f32_rounding_midpoint() {
        // Halfway between 1.0 and the next f32: libm could round either way.
        let mid = 1.0 + f64::from(f32::EPSILON) / 2.0;
        assert!(!rounds_unambiguously(mid, mid * ERR));
        assert!(rounds_unambiguously(1.0, 1e-12));
        assert!(rounds_unambiguously(mid - 1e-12, 1e-14));
        // An interval around zero reaches both signed zeros.
        assert!(!rounds_unambiguously(0.0, f64::MIN_POSITIVE));
        assert!(!rounds_unambiguously(f64::NAN, 0.0));
        assert!(!rounds_unambiguously(f64::INFINITY, 0.0));
    }

    #[test]
    fn negative_sigma_is_normalized() {
        assert_eq!(NoiseModel::relative(-0.02).sigma, 0.02);
    }
}
