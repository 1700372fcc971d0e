//! Percentiles and the sample-count rules that decide which of them a
//! run may report.

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending
/// sample. Panics on an empty sample: a class with no samples has no
/// percentile, and callers decide what an absent class means.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest percentile a sample of `n` supports: at least ten samples
/// must lie beyond it (choosing-metrics §1), so p90 needs 100 samples
/// and p99 needs 1000. Smaller samples support the median only.
pub fn highest_supported(n: usize) -> u32 {
    match n {
        1000.. => 99,
        100..=999 => 90,
        _ => 50,
    }
}

/// One latency class of one run, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Sample(Vec<f64>);

impl Sample {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: &Sample) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Percentile `p`, or `None` for an empty class.
    pub fn p(&self, p: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Some(percentile(&sorted, p))
    }
}

/// Median of a handful of values (set-up repeats, micro-timings).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 91.0);
    }

    #[test]
    fn sample_count_rules() {
        assert_eq!(highest_supported(0), 50);
        assert_eq!(highest_supported(99), 50);
        assert_eq!(highest_supported(100), 90);
        assert_eq!(highest_supported(999), 90);
        assert_eq!(highest_supported(1000), 99);
    }

    #[test]
    fn empty_class_has_no_percentile() {
        assert_eq!(Sample::default().p(50.0), None);
        let mut s = Sample::default();
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.p(50.0), Some(2.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
