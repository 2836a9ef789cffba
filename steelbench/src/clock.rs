//! The benchmark's one wall-clock seam, plus the order statistics and
//! memory reading every report is built from.
//!
//! Everything else in the benchmark asks this module for time, so the
//! host clock is touched in exactly one place.

// steelcheck: allow(wall-clock): the benchmark times real execution on purpose
use std::time::{Duration, Instant};

/// A started wall-clock timer. `Copy`, so worker threads can share one
/// epoch and report span boundaries on a common axis.
#[derive(Clone, Copy, Debug)]
// steelcheck: allow(wall-clock): the benchmark times real execution on purpose
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn started() -> Stopwatch {
        // steelcheck: allow(wall-clock): the benchmark times real execution on purpose
        Stopwatch(Instant::now())
    }

    /// Elapsed nanoseconds.
    pub fn elapsed_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Sleep until `offset_ns` past this watch's start (no-op if that
    /// instant has passed). Open-loop senders pace themselves with it.
    pub fn pace_until(&self, offset_ns: u64) {
        let now = self.elapsed_nanos();
        if offset_ns > now {
            // steelcheck: allow(thread-outside-exec): pacing the open-loop load generator
            std::thread::sleep(Duration::from_nanos(offset_ns - now));
        }
    }
}

/// Time one call; returns its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sw = Stopwatch::started();
    let r = f();
    (r, sw.secs())
}

/// Nearest-rank quantile of `values` (`q` in 0..=1). Sorts in place;
/// an empty slice yields `None`.
pub fn nearest_rank(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median_of(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
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
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&mut v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&mut v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&mut v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&mut [], 0.5), None);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
