//! Order statistics of timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a timing distribution: the highest percentile that still
/// leaves at least [`TAIL_BEYOND`] samples beyond it, with the percentile
/// and the sample count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Its percentile (0–100): the share of samples at or below it.
    pub percentile: f64,
    /// Number of samples the tail was taken from.
    pub samples: usize,
}

/// Samples a tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: with the samples sorted ascending, the value at
/// rank `n − 10` (1-based), so that exactly ten samples lie beyond it.
/// `None` with ten samples or fewer, where no such percentile exists.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted(xs)[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
