//! Small numeric helpers: quantiles with the tail-sample rule, medians,
//! the per-phase read log, and the process's peak resident memory.

use sm_runtime::Rng64;

/// Smallest number of samples that must lie beyond a reported tail
/// percentile; with fewer, the percentile would be an extreme sample.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank quantile of `values` (sorted in place). Tail quantiles
/// (q > 0.5) are refused with `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond them.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    if q > 0.5 && values.len() - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(values[rank - 1])
}

/// Median (nearest rank); `None` for no samples.
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Per-read samples one client keeps (a uniform reservoir beyond this).
const RESERVOIR: usize = 1 << 16;

/// The reads of one timed phase as one client saw them: an exact count
/// and a uniform reservoir of per-read samples, so the log's memory stays
/// bounded however many reads complete.
pub struct ReadLog {
    /// `(client latency ms, latency minus the service's own elapsed, µs)`.
    samples: Vec<(f64, f64)>,
    reads: u64,
    rng: Rng64,
}

impl ReadLog {
    /// An empty log; `seed` drives the reservoir's sampling.
    pub fn new(seed: u64) -> Self {
        ReadLog {
            samples: Vec::new(),
            reads: 0,
            rng: Rng64::seed_from_u64(seed),
        }
    }

    /// Record one read: the latency the client saw and the service's own
    /// submit-to-terminal time.
    pub fn record(&mut self, client_ns: u64, service_ns: u64) {
        self.reads += 1;
        let sample = (
            client_ns as f64 / 1e6,
            client_ns.saturating_sub(service_ns) as f64 / 1e3,
        );
        if self.samples.len() < RESERVOIR {
            self.samples.push(sample);
        } else {
            let j = self.rng.next_u64_below(self.reads) as usize;
            if j < RESERVOIR {
                self.samples[j] = sample;
            }
        }
    }

    /// Fold another client's log of the same phase into this one.
    pub fn merge(&mut self, other: ReadLog) {
        self.reads += other.reads;
        self.samples.extend(other.samples);
    }

    /// Reads completed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Client latency quantile in ms (tail rule applies).
    pub fn latency_ms(&self, q: f64) -> Option<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.0).collect();
        quantile(&mut v, q)
    }

    /// Closed-loop throughput of `clients` clients: clients divided by
    /// the mean read latency, each latency capped at the phase's p90
    /// (winsorized). Every read counts, but one read that runs for
    /// seconds counts as a p90 read, so a rare runaway cannot decide a
    /// run's throughput on its own; their share shows in the properties.
    pub fn qps(&self, clients: usize) -> Option<f64> {
        let cap = self.latency_ms(0.9)?;
        let sum: f64 = self.samples.iter().map(|s| s.0.min(cap)).sum();
        Some(clients as f64 * 1e3 * self.samples.len() as f64 / sum)
    }

    /// Share of reads slower than `ms`.
    pub fn slower_than(&self, ms: f64) -> f64 {
        let slow = self.samples.iter().filter(|s| s.0 > ms).count();
        ratio(slow as f64, self.samples.len() as f64)
    }

    /// Median of client latency minus the service's own elapsed time, µs.
    pub fn overhead_us_p50(&self) -> Option<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&mut v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), Some(990.0));
        let mut short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(quantile(&mut short, 0.99), None);
        assert_eq!(median(&mut short), Some(500.0));
    }
}
