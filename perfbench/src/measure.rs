//! Measurement helpers: nearest-rank percentiles and their support rule,
//! the per-request latency ledger, `/proc` readers, and the result line.

use std::fmt::Write as _;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`);
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| mq_bench::netload::percentile(sorted, q))
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support the `q` percentile: at least
/// [`MIN_SAMPLES_BEYOND`] samples rank strictly above it.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_SAMPLES_BEYOND
}

/// The fewest samples that support the `q` percentile.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| supported(n, q))
        .expect("some sample count supports q < 1")
}

/// The `q` percentile of samples in arrival order, taken as the median
/// over consecutive segments that each hold at least `samples_needed(q)`
/// samples, so a burst of slow operations moves at most the segments it
/// falls in. With room for fewer than two segments it is the pooled
/// percentile. `None` when `q` is not supported.
pub fn segmented_percentile(in_order: &[f64], q: f64) -> Option<f64> {
    let n = in_order.len();
    if !supported(n, q) {
        return None;
    }
    let segments = n / samples_needed(q);
    if segments < 2 {
        return percentile(&sorted(in_order.to_vec()), q);
    }
    let per_segment: Vec<f64> = (0..segments)
        .map(|i| {
            let seg = &in_order[i * n / segments..(i + 1) * n / segments];
            percentile(&sorted(seg.to_vec()), q).expect("non-empty segment")
        })
        .collect();
    Some(median(&per_segment))
}

/// Median of an unsorted sample (nearest rank); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).unwrap_or(0.0)
}

/// Sort a sample ascending in place and return it.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// One request's wall time split into named, disjoint parts plus the
/// unattributed residual: `sum(parts) + residual == total` holds exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ledger {
    /// The measured round trip, nanoseconds.
    pub total_ns: u64,
    /// Named parts, nanoseconds.
    pub parts: Vec<(&'static str, u64)>,
}

impl Ledger {
    /// The round trip minus every part; negative when the parts
    /// overlap or overrun the round trip.
    pub fn residual_ns(&self) -> i64 {
        self.total_ns as i64 - self.parts.iter().map(|&(_, ns)| ns as i64).sum::<i64>()
    }

    /// Nanoseconds booked to `name` (0 when the part is absent).
    pub fn part(&self, name: &str) -> u64 {
        self.parts
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, ns)| ns)
            .sum()
    }
}

/// User+sys CPU ticks of a process from the text of `/proc/<pid>/stat`.
/// Fields are counted after the parenthesised command name, which may
/// itself contain spaces or parentheses.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in kB (`VmHWM`) from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Ticks per second in `/proc/<pid>/stat` times: Linux reports them in
/// `USER_HZ`, which is 100 on every architecture it exports to user space.
const USER_HZ: f64 = 100.0;

/// This process's user+sys CPU seconds so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("unparsable /proc/self/stat")?;
    Ok(ticks as f64 / USER_HZ)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// What one run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked answer matched its reference.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Append one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The one-line JSON result. Values keep every digit Rust's
    /// shortest round-trip formatting gives them.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert_eq!(samples_needed(0.99), 1000);
        // p50 of 20 samples is rank 10: 10 beyond.
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
        assert_eq!(samples_needed(0.9), 100);
    }

    #[test]
    fn segmented_tail_ignores_a_burst_in_one_segment() {
        let calm: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(segmented_percentile(&calm, 0.99), Some(98.0));
        let mut burst = calm.clone();
        for v in &mut burst[1000..1100] {
            *v = 1e6;
        }
        // Pooled, the burst owns the tail; per segment it moves one of three.
        assert_eq!(percentile(&sorted(burst.clone()), 0.99), Some(1e6));
        assert_eq!(segmented_percentile(&burst, 0.99), Some(98.0));
        // One segment's worth: the pooled percentile; too few: none.
        assert_eq!(segmented_percentile(&calm[..1500], 0.99), Some(98.0));
        assert_eq!(segmented_percentile(&calm[..999], 0.99), None);
    }

    #[test]
    fn ledger_parts_and_residual_sum_to_the_round_trip() {
        let l = Ledger {
            total_ns: 1_000,
            parts: vec![("serve", 600), ("write", 150)],
        };
        assert_eq!(l.residual_ns(), 250);
        let sum: i64 = l.parts.iter().map(|p| p.1 as i64).sum::<i64>() + l.residual_ns();
        assert_eq!(sum, l.total_ns as i64);
        assert_eq!(l.part("write"), 150);
        assert_eq!(l.part("absent"), 0);
        let over = Ledger {
            total_ns: 100,
            parts: vec![("serve", 120)],
        };
        assert_eq!(over.residual_ns(), -20);
    }

    #[test]
    fn proc_stat_cpu_ticks() {
        let stat = "4242 (my (odd) bin) S 1 4242 4242 0 -1 4194560 1524 0 0 0 \
                    731 269 0 0 20 0 3 0 123456 2000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn proc_status_peak_rss() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn live_proc_readers_work() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn report_json_shape() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.push("latency_p50_ms", 1.25, "ms");
        r.push("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.push("bad", f64::NAN, "ms");
        assert!(r.to_json().is_err());
    }
}
