//! Small statistics helpers: medians, the tail-percentile rule, geometric
//! means, the seeded generator that makes every workload's inputs, and the
//! process's peak resident set.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a timing sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, `100 * rank / n` for the nearest-rank `rank`.
    pub pct: f64,
    /// Samples in the whole sample.
    pub n: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank tail: with `n` sorted samples the reported value is the one
/// at rank `n - 10` (1-based), the highest rank with ten samples beyond it.
/// With fewer than eleven samples no rank qualifies; the maximum is reported
/// with the samples actually beyond it (none).
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            pct: f64::NAN,
            n,
            beyond: 0,
        };
    }
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Tail {
        value: v[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        n,
        beyond: n - rank,
    }
}

/// Geometric mean of positive values; `NaN` when empty or any value is not
/// positive (a ratio of zero or below means a broken measurement).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// SplitMix64: a tiny, well-mixed deterministic generator. The benchmark's
/// seed goes in; suite orders and the serve mix come out.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.n, t.beyond), (90.0, 100, 10));
        assert_eq!(t.pct, 90.0);
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail(&rev), t);
        // 37 samples: rank 27, ten beyond, p72.97.
        let xs: Vec<f64> = (1..=37).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (27.0, 10));
        assert!((t.pct - 100.0 * 27.0 / 37.0).abs() < 1e-12);
        // Exactly eleven samples: the smallest one, ten beyond it.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 1.0);
        assert_eq!(tail(&xs).beyond, 10);
    }

    #[test]
    fn tail_of_a_short_sample_is_its_maximum_with_nothing_beyond() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.pct, t.beyond), (5.0, 100.0, 0));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[10.0, 10.0, 10.0]) - 10.0).abs() < 1e-12);
        // Scale invariance: doubling every ratio doubles the geomean.
        let base = [1.5, 55.0, 18.6, 3.0];
        let doubled: Vec<f64> = base.iter().map(|x| 2.0 * x).collect();
        assert!((geomean(&doubled) - 2.0 * geomean(&base)).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_permutes() {
        let mut xs: Vec<usize> = (0..19).collect();
        Rng::new(3).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort();
        assert_eq!(sorted, (0..19).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
    }
}
