//! Order statistics and result digests.

use paydemand_sim::SimulationResult;

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// closest ranks; 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many samples lie strictly above the `q`-quantile: the tail a
/// percentile rests on.
#[must_use]
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

/// Mean of `values`, 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A run's result digest: every task's measurement count, then the
/// bits of `total_paid`.
#[must_use]
pub fn result_digest(result: &SimulationResult) -> u64 {
    let mut d = Digest::default();
    for &received in &result.received {
        d.word(u64::from(received));
    }
    d.word(result.total_paid.to_bits());
    d.value()
}

/// Folds per-job digests, in job order, into one.
#[must_use]
pub fn fold(digests: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &x in digests {
        d.word(x);
    }
    d.value()
}

/// The process's peak resident set (`VmHWM`) in MB, 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let hundred: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&hundred, 0.99), 10);
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
        assert_eq!(fold(&[1, 2]), fold(&[1, 2]));
    }
}
