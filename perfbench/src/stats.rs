//! Order statistics over timing samples.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one operation.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The smallest of `v`: the benchmark's duration statistic. A kind of
/// operation repeats the same work, so its durations have a floor, and
/// the host's contention only adds to it. On a host whose speed moves for
/// seconds at a time, the fastest call of a kind is the one statistic that
/// a slow stretch, however long, cannot move as long as the run also sees
/// one fast moment per kind (README.md, "Steadiness").
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one operation.
pub fn fastest(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "minimum of no samples");
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample, the `(n - 10)/n` percentile of `n`. With ten
/// or fewer samples no such percentile exists and the maximum is
/// returned.
pub fn tail(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "tail of no samples");
    let s = sorted(v);
    let n = s.len();
    s[if n > 10 { n - 11 } else { n - 1 }]
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 64-bit FNV-1a, the digest the output checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    /// Digest of a whole byte string.
    pub fn of(b: &[u8]) -> u64 {
        let mut d = Self::default();
        d.bytes(b);
        d.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fastest_is_the_minimum() {
        let v: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(fastest(&v), 1.0);
        assert_eq!(fastest(&[5.0, 3.0, 4.0]), 3.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let value = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(tail(&[5.0, 7.0]), 7.0);
    }

    #[test]
    fn fnv_reference_value() {
        assert_eq!(Digest::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
