//! Percentiles, medians and the sample-count rule.
//!
//! A percentile is reported only when enough samples lie beyond it: p99 needs
//! at least [`MIN_P99_SAMPLES`] samples, so that ten of them are slower than
//! the reported value. Percentiles use the nearest-rank definition, the same
//! one `star_common::stats::LatencyHistogram` uses, so a value computed here
//! from raw samples and one read from the engine's histogram agree.

/// Samples a window must hold before its p99 means anything: 1% of 1,000 is
/// the ten samples beyond the percentile.
pub const MIN_P99_SAMPLES: usize = 1_000;

/// How many samples lie strictly beyond percentile `p` of `count` samples.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count - nearest_rank(count, p)
}

/// Whether `count` samples support reporting percentile `p` (at least ten
/// samples beyond it).
pub fn supports_percentile(count: usize, p: f64) -> bool {
    count > 0 && samples_beyond(count, p) >= 10
}

/// The 1-based nearest rank of percentile `p` in `count` samples.
fn nearest_rank(count: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * count as f64).ceil() as usize;
    rank.clamp(1, count.max(1))
}

/// Percentile `p` of `sorted` (ascending) by nearest rank, or `None` when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Median of `values` (mean of the middle pair for an even count), or `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// The p50 and p99 of a set of raw samples, with the count behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Number of samples.
    pub count: usize,
}

impl Summary {
    /// Summarises `samples`; fails when there are too few for a p99.
    pub fn of(name: &str, samples: &[f64]) -> Result<Summary, String> {
        if !supports_percentile(samples.len(), 99.0) {
            return Err(format!(
                "{name}: {} samples, a p99 needs at least {MIN_P99_SAMPLES}",
                samples.len()
            ));
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Summary {
            p50: percentile(&sorted, 50.0).expect("non-empty"),
            p99: percentile(&sorted, 99.0).expect("non-empty"),
            count: sorted.len(),
        })
    }
}
