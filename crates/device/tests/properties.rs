//! Property-based tests on RRAM device invariants.

use inca_device::{DeviceParams, NoiseModel, ProgrammingModel, RramCell};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    /// Any programmed level within range must round-trip through the
    /// conductance encoding for every supported bit width.
    #[test]
    fn level_roundtrip(bits in 1u8..=6, seed in any::<u16>()) {
        let params = DeviceParams::default();
        let mut cell = RramCell::off(&params);
        let levels = 1u32 << bits;
        let level = u32::from(seed) % levels;
        cell.program_level(level, bits, &params);
        prop_assert_eq!(cell.read_level(bits), level);
    }

    /// Conductance is always within [g_off, g_on] regardless of how the cell
    /// was programmed.
    #[test]
    fn conductance_bounded(g in -10.0f64..10.0) {
        let params = DeviceParams::default();
        let mut cell = RramCell::off(&params);
        cell.program_g_norm(g);
        let cond = cell.conductance();
        prop_assert!(cond >= params.g_off() - 1e-18);
        prop_assert!(cond <= params.g_on() + 1e-18);
    }

    /// Read current is linear in the applied voltage (Ohm's law).
    #[test]
    fn current_linear_in_voltage(g in 0.0f64..=1.0, v in 0.01f64..0.5) {
        let params = DeviceParams::default();
        let cell = RramCell::with_g_norm(g, &params);
        let i1 = cell.read_current(v);
        let i2 = cell.read_current(2.0 * v);
        prop_assert!((i2 - 2.0 * i1).abs() < 1e-12 * i1.abs().max(1e-12));
    }

    /// Read energy is monotonic in the normalized conductance.
    #[test]
    fn read_energy_monotonic(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let params = DeviceParams::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(params.read_energy_j(lo) <= params.read_energy_j(hi) + 1e-24);
    }

    /// The SET curve of any programming model is monotonically nondecreasing
    /// and stays within [0, 1].
    #[test]
    fn set_curve_monotone_bounded(a_p in 0.05f64..5.0, a_d in 0.05f64..5.0) {
        let m = ProgrammingModel::new(a_p, a_d);
        let mut prev = 0.0;
        for i in 0..=50 {
            let g = m.set_curve(f64::from(i) / 50.0);
            prop_assert!(g >= prev - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&g));
            prev = g;
        }
    }

    /// Noise with relative σ never changes the sign expectation: the sample
    /// mean over many draws stays near the clean value.
    #[test]
    fn relative_noise_unbiased(sigma in 0.001f64..0.05, value in 0.1f64..10.0, seed in any::<u64>()) {
        let noise = NoiseModel::relative(sigma);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| noise.apply(value, &mut rng)).sum::<f64>() / f64::from(n);
        // 6-sigma band on the sample mean.
        let band = 6.0 * sigma * value / f64::from(n).sqrt();
        prop_assert!((mean - value).abs() < band.max(1e-6), "mean={mean} value={value}");
    }

    /// Write counting is exact: n programs = n recorded writes.
    #[test]
    fn write_count_exact(n in 0usize..200) {
        let params = DeviceParams::default();
        let mut cell = RramCell::off(&params);
        for i in 0..n {
            cell.program_level((i % 2) as u32, 1, &params);
        }
        prop_assert_eq!(cell.write_count(), n as u64);
    }
}

/// The IEEE edge cases mixed into [`noisy_input`].
const EDGE_VALUES: [f32; 11] = [
    0.0,
    -0.0,
    1e-45,
    -3e-40,
    f32::MIN_POSITIVE,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    1e30,
    -1e30,
    1.0,
];

/// `len` values, mostly ordinary magnitudes with one in four an edge case.
fn noisy_input(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.gen_range(0..4) == 0 {
                EDGE_VALUES[rng.gen_range(0..EDGE_VALUES.len())]
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `apply_slice`'s polynomial fast path is bit-identical to the libm
    /// `apply` loop and leaves the RNG in the same state, in both modes,
    /// across the 256-element chunk edges.
    #[test]
    fn apply_slice_matches_per_element_apply(
        len in 0usize..700,
        sigma in 0.0f64..0.1,
        relative in any::<bool>(),
        zero_sigma in 0u8..8,
        seed in any::<u64>(),
    ) {
        let sigma = if zero_sigma == 0 { 0.0 } else { sigma };
        let noise = if relative { NoiseModel::relative(sigma) } else { NoiseModel::absolute(sigma) };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fast = noisy_input(len, &mut rng);
        let mut reference = fast.clone();
        let mut fast_rng = rng.clone();
        for v in &mut reference {
            *v = noise.apply(f64::from(*v), &mut rng) as f32;
        }
        noise.apply_slice(&mut fast, &mut fast_rng);
        for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "element {} of {}: {} vs {}", i, len, f, r);
        }
        prop_assert_eq!(fast_rng.next_u64(), rng.next_u64());
    }
}
