//! Counts per layer: the difference between two `METRICS` scrapes taken
//! once before and once after a counted run, never during it.

use stm_kv::{HistogramSnapshot, MetricsSnapshot};

/// What the server's series moved by between two scrapes.
pub struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Delta {
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> Delta {
        Delta { before, after }
    }

    /// Parses two exposition texts as served by `METRICS`.
    pub fn parse(before: String, after: String) -> Result<Delta, String> {
        let parse = |text| MetricsSnapshot::parse(text).map_err(|err| err.to_string());
        Ok(Delta::new(parse(before)?, parse(after)?))
    }

    /// Increase of one counter series named in full, labels included
    /// (`stm_aborts_total{cause="explicit"}`); 0 when the series is absent.
    pub fn counter(&self, series: &str) -> u64 {
        let value = |snapshot: &MetricsSnapshot| snapshot.value(series).unwrap_or(0);
        value(&self.after).saturating_sub(value(&self.before))
    }

    /// The gauge's value at the second scrape.
    pub fn gauge(&self, series: &str) -> u64 {
        self.after.value(series).unwrap_or(0)
    }

    /// The observations histogram `base` gained, bucket by bucket. An
    /// unlabelled `base` folds every label set of that name together.
    pub fn histogram(&self, base: &str) -> HistogramSnapshot {
        let mut gained = self
            .after
            .histogram(base)
            .unwrap_or_else(HistogramSnapshot::empty);
        if let Some(before) = self.before.histogram(base) {
            for (bucket, earlier) in gained.buckets.iter_mut().zip(before.buckets) {
                *bucket = bucket.saturating_sub(earlier);
            }
            gained.count = gained.buckets.iter().sum();
            gained.sum = gained.sum.wrapping_sub(before.sum);
        }
        gained
    }
}

/// The `q`-quantile of a log2-bucket histogram, interpolated by rank inside
/// its bucket (bucket `i > 0` holds `2^(i-1) ..= 2^i - 1`); the shipped
/// `quantile` answers with the bucket's upper bound, which moves only in
/// factors of two.
pub fn log2_quantile(hist: &HistogramSnapshot, q: f64) -> f64 {
    if hist.count == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * hist.count as f64;
    let mut below = 0u64;
    for (i, &count) in hist.buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if rank <= (below + count) as f64 {
            if i == 0 {
                return 0.0;
            }
            let lo = 2f64.powi(i as i32 - 1);
            return lo + (rank - below as f64) / count as f64 * lo;
        }
        below += count;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exposition(requests: u64, fast: u64, slow: u64) -> String {
        // Cumulative buckets, as the server renders them: le=1, le=3, +Inf.
        format!(
            "# TYPE stm_kv_requests_total counter\n\
             stm_kv_requests_total {requests}\n\
             stm_aborts_total{{cause=\"explicit\"}} 2\n\
             stm_kv_cells_limbo 5\n\
             stm_wal_fsync_us_bucket{{le=\"1\"}} {fast}\n\
             stm_wal_fsync_us_bucket{{le=\"3\"}} {both}\n\
             stm_wal_fsync_us_bucket{{le=\"+Inf\"}} {both}\n\
             stm_wal_fsync_us_sum {sum}\n\
             stm_wal_fsync_us_count {both}\n",
            both = fast + slow,
            sum = fast + 3 * slow,
        )
    }

    #[test]
    fn delta_extracts_counters_gauges_and_histograms() {
        let delta = Delta::parse(exposition(100, 10, 4), exposition(250, 30, 10)).unwrap();
        assert_eq!(delta.counter("stm_kv_requests_total"), 150);
        assert_eq!(delta.counter("stm_aborts_total{cause=\"explicit\"}"), 0);
        assert_eq!(delta.counter("no_such_series"), 0);
        assert_eq!(delta.gauge("stm_kv_cells_limbo"), 5);
        let gained = delta.histogram("stm_wal_fsync_us");
        assert_eq!(gained.count, 26);
        assert_eq!(gained.buckets[1], 20, "values of 1 land in bucket 1");
        assert_eq!(gained.buckets[2], 6, "values of 2..=3 land in bucket 2");
        assert_eq!(gained.sum, (30 + 30) - (10 + 12));
        assert_eq!(delta.histogram("absent").count, 0);
    }

    #[test]
    fn log2_quantile_interpolates_inside_a_bucket() {
        let mut hist = HistogramSnapshot::empty();
        hist.buckets[8] = 100; // 128..=255
        hist.count = 100;
        assert_eq!(log2_quantile(&hist, 0.5), 192.0);
        assert!(log2_quantile(&hist, 0.25) < log2_quantile(&hist, 0.75));
        assert_eq!(log2_quantile(&HistogramSnapshot::empty(), 0.5), 0.0);
    }
}
