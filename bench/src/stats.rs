//! Latency histograms and the percentile rules every reported timing obeys.
//!
//! Samples are integer nanoseconds. A [`Hist`] keeps exact counts below 256
//! and 256 linear bins per power of two above (0.4% wide), so recording is
//! one increment and memory does not grow with the run. A percentile is
//! interpolated by rank *inside* its bin: a clock that ticks in tens of
//! nanoseconds would otherwise make a median read exactly the same on every
//! run, which says nothing about how steady the system is.

use std::time::Instant;

/// Monotonic nanoseconds since the harness started.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
const BINS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Log-linear histogram of `u64` samples.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn bin_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros();
    let shift = top - SUB_BITS;
    SUB + (shift as usize) * SUB + ((v >> shift) as usize & (SUB - 1))
}

/// `[lo, hi)` covered by bin `i`.
fn bin_bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        // An integer sample `v` stands for the interval around it.
        return (i as f64 - 0.5, i as f64 + 0.5);
    }
    let shift = ((i - SUB) / SUB) as u32;
    let sub = ((i - SUB) % SUB) as u64;
    let lo = ((SUB as u64 + sub) << shift) as f64;
    (lo, lo + (1u64 << shift) as f64)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BINS],
            total: 0,
            max: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[bin_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 < q < 1`), interpolated by rank inside its bin;
    /// 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let upto = below + u64::from(count);
            if rank <= upto as f64 {
                let (lo, hi) = bin_bounds(i);
                let inside = (rank - below as f64) / f64::from(count);
                return (lo + inside * (hi - lo)).max(0.0);
            }
            below = upto;
        }
        self.max as f64
    }
}

/// The sample-count rule: a percentile is reportable only when at least ten
/// samples lie beyond it (p99 needs 1,000 samples, p99.9 needs 10,000).
pub fn supports(q: f64, samples: u64) -> bool {
    (1.0 - q) * samples as f64 >= 10.0 - 1e-9
}

/// How many episodes a phase expected to yield `samples` samples is cut into
/// so that each episode still supports `q`: at most `most`, at least one.
pub fn episodes_for(q: f64, samples: u64, most: usize) -> usize {
    let needed = (10.0 / (1.0 - q)).ceil() as u64;
    ((samples / needed.max(1)) as usize).clamp(1, most)
}

/// Median of a set of floats (0 for an empty set).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of the middle half of a set (the lowest and the highest quarter are
/// dropped, rounding down): unlike a median it averages over the slow drift
/// of a shared host — a virtual disk whose fsync wanders between 200 and
/// 400 µs over tens of seconds — and unlike a mean it ignores the episode a
/// scheduler hiccup ruined.
pub fn midmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let drop = sorted.len() / 4;
    let kept = &sorted[drop..sorted.len() - drop];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_every_value_in_order() {
        let mut previous = 0;
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 4095, (1 << 20) + 4096, 1 << 52]) {
            let bin = bin_of(v);
            assert!(bin >= previous || v == 0, "bins must be monotone in v");
            let (lo, hi) = bin_bounds(bin);
            assert!(
                lo <= v as f64 && (v as f64) < hi + 1.0,
                "v={v} bin=[{lo},{hi})"
            );
            previous = bin;
        }
        assert!(bin_of(u64::MAX) < BINS);
    }

    #[test]
    fn percentile_interpolates_inside_tied_values() {
        let mut hist = Hist::new();
        for _ in 0..100 {
            hist.record(40);
        }
        // All samples tie: the median sits in the middle of the bin, and
        // other ranks move through it instead of snapping to 40.
        assert!((hist.percentile(0.5) - 40.0).abs() < 1e-9);
        assert!(hist.percentile(0.25) < hist.percentile(0.75));
        assert!((hist.percentile(0.75) - 40.25).abs() < 1e-9);
    }

    #[test]
    fn percentile_of_a_uniform_ramp() {
        let mut hist = Hist::new();
        for v in 1..=10_000u64 {
            hist.record(v * 100);
        }
        let p50 = hist.percentile(0.5);
        let p99 = hist.percentile(0.99);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "p50={p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.01, "p99={p99}");
        assert_eq!(hist.max(), 1_000_000);
        assert_eq!(Hist::new().percentile(0.5), 0.0);
    }

    #[test]
    fn sample_count_rule() {
        assert!(supports(0.99, 1_000));
        assert!(!supports(0.99, 999));
        assert!(supports(0.5, 20));
        assert!(!supports(0.999, 9_999));
        assert_eq!(episodes_for(0.99, 999, 10), 1);
        assert_eq!(episodes_for(0.99, 3_500, 10), 3);
        assert_eq!(episodes_for(0.99, 1_000_000, 10), 10);
    }

    #[test]
    fn midmean_drops_the_outer_quarters() {
        // Ten episodes: the two lowest and two highest are dropped.
        let rates = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 100.0, 0.1, 10.2, 9.8];
        assert!((midmean(&rates) - 10.0).abs() < 0.1);
        assert_eq!(midmean(&[4.0]), 4.0);
        assert_eq!(midmean(&[1.0, 3.0]), 2.0);
        assert_eq!(midmean(&[]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
