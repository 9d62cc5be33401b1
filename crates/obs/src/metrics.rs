//! The central metrics registry: monotonic counters, gauges, and
//! fixed-bucket latency histograms.
//!
//! A [`Registry`] is owned by one server instance; handles
//! ([`Counter`]/[`Gauge`]/[`Histogram`]) are cheap `Arc` clones created
//! once at construction, so the hot path never touches the registry's
//! lock — recording is a single relaxed atomic op. Snapshots are
//! torn-free in the per-metric sense: every read is an atomic load of a
//! monotonically increasing value, so a reader racing four writers can
//! observe an in-between total but never a decreasing or corrupted one.
//!
//! Metric names are `&'static str` literals by design: the `mq-lint`
//! `metric-registry` rule requires every name to be declared (with a
//! purpose string) in `crates/lint/src/metrics.rs`, exactly like the
//! `MQ_*` knob registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (e.g. active connections).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one (saturating at zero).
    pub fn dec(&self) {
        // fetch_update never poisons; saturate rather than wrap so a
        // double-decrement bug reads as 0, not u64::MAX.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Set to an absolute value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (nanoseconds, inclusive) of the fixed histogram buckets:
/// powers of four from 1µs to 4s, plus an implicit +Inf overflow bucket.
/// One bound set for every latency histogram keeps p50/p95/p99 derivable
/// by a fixed-size cumulative walk — no allocation, no sorting.
pub const BUCKET_BOUNDS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
    4_000_000_000,
];

const N_BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1; // + overflow

#[derive(Default)]
struct HistogramCore {
    buckets: [AtomicU64; N_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket latency histogram over [`BUCKET_BOUNDS_NS`].
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

/// A torn-free (per-field atomic) histogram snapshot.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Non-cumulative per-bucket counts ([`BUCKET_BOUNDS_NS`] + overflow).
    pub buckets: [u64; N_BUCKETS],
    /// Sum of every observed value, in nanoseconds.
    pub sum_ns: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile (`0.0 < q <= 1.0`) over the snapshot,
    /// reported as the upper bound of the bucket the rank falls in
    /// (`u64::MAX` for the overflow bucket). Allocation-free by
    /// construction; also used on windowed bucket *deltas* by the
    /// flight recorder (`history`), where it yields per-window rather
    /// than since-boot percentiles.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

impl Histogram {
    /// Record one latency observation.
    pub fn observe_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(N_BUCKETS - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.0.sum_ns.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile of the live histogram (see
    /// [`HistogramSnapshot::quantile_ns`]).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.snapshot().quantile_ns(q)
    }

    /// Atomic-per-field snapshot of the bucket counts.
    ///
    /// `count` is derived from the bucket loads, not read from the
    /// count atomic: observations land bucket-first, so an independent
    /// count read could run ahead of the buckets under concurrent
    /// writers and break the Prometheus invariant that the cumulative
    /// `+Inf` bucket equals `_count`. Deriving it keeps every snapshot
    /// internally consistent; `sum_ns` may trail by in-flight
    /// observations, which nothing validates against the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; N_BUCKETS];
        for (i, b) in self.0.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_ns: self.0.sum_ns.load(Ordering::Relaxed),
            count: buckets.iter().sum(),
        }
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The typed value of one series in a [`Registry::sample`] — unlike
/// [`Registry::snapshot`] (which flattens histograms to their `_count`),
/// this carries the full bucket state so the flight recorder can derive
/// per-window percentiles from bucket deltas.
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// A monotonic counter's current total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(u64),
    /// A histogram's full torn-free snapshot.
    Histogram(HistogramSnapshot),
}

/// One sampled series: the exposition series key (`name` or
/// `name{key="value"}` — the same string [`Registry::snapshot`] uses)
/// plus its typed value.
#[derive(Clone, Debug)]
pub struct SeriesSample {
    /// Series key, stable across samples.
    pub series: String,
    /// Typed value at sample time.
    pub value: SampleValue,
}

struct Entry {
    name: &'static str,
    help: &'static str,
    /// Optional single `key="value"` label pair (e.g. fault sites).
    label: Option<(&'static str, &'static str)>,
    slot: Slot,
}

/// One server instance's metric set. Handle creation (`counter`/`gauge`/
/// `histogram`) is get-or-create on `(name, label)`, so two subsystems
/// naming the same metric share one cell; rendering walks the entries in
/// registration order, grouped by name.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
    /// Trace-clock ms of the latest flight-recorder scrape, +1 so zero
    /// can mean "never scraped". Written by the background scraper,
    /// read by `render_prometheus` for the scrape-age comment.
    last_scrape_ms: AtomicU64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        // Registration/rendering only — never on a recording path. A
        // poisoned registry lock (a panicking registration) leaves the
        // entry list consistent: pushes are single-step.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the counter `name` (no label).
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_labeled(name, help, None)
    }

    /// Get or create the counter `name{key="value"}`. Pass `None` for an
    /// unlabeled series.
    pub fn counter_labeled(
        &self,
        name: &'static str,
        help: &'static str,
        label: Option<(&'static str, &'static str)>,
    ) -> Counter {
        let mut entries = self.entries();
        for e in entries.iter() {
            if e.name == name && e.label == label {
                if let Slot::Counter(c) = &e.slot {
                    return c.clone();
                }
            }
        }
        let c = Counter::default();
        entries.push(Entry {
            name,
            help,
            label,
            slot: Slot::Counter(c.clone()),
        });
        c
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        let mut entries = self.entries();
        for e in entries.iter() {
            if e.name == name && e.label.is_none() {
                if let Slot::Gauge(g) = &e.slot {
                    return g.clone();
                }
            }
        }
        let g = Gauge::default();
        entries.push(Entry {
            name,
            help,
            label: None,
            slot: Slot::Gauge(g.clone()),
        });
        g
    }

    /// Get or create the histogram `name` (buckets [`BUCKET_BOUNDS_NS`]).
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        let mut entries = self.entries();
        for e in entries.iter() {
            if e.name == name && e.label.is_none() {
                if let Slot::Histogram(h) = &e.slot {
                    return h.clone();
                }
            }
        }
        let h = Histogram::default();
        entries.push(Entry {
            name,
            help,
            label: None,
            slot: Slot::Histogram(h.clone()),
        });
        h
    }

    /// Read one counter/gauge value by `(name, label)` — test/diagnostic
    /// accessor; returns `None` for unknown names and histograms.
    pub fn value(&self, name: &str, label: Option<(&str, &str)>) -> Option<u64> {
        let entries = self.entries();
        let e = entries
            .iter()
            .find(|e| e.name == name && e.label == label)?;
        match &e.slot {
            Slot::Counter(c) => Some(c.get()),
            Slot::Gauge(g) => Some(g.get()),
            Slot::Histogram(_) => None,
        }
    }

    /// A flattened `(series, value)` snapshot of every counter and gauge
    /// (histograms contribute their `_count`), for tests asserting
    /// monotonicity under concurrent writers. Per-series values are
    /// atomic loads — torn-free and monotone for counters.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let entries = self.entries();
        let mut out = Vec::with_capacity(entries.len());
        for e in entries.iter() {
            let series = match e.label {
                Some((k, v)) => format!("{}{{{k}=\"{v}\"}}", e.name),
                None => e.name.to_string(),
            };
            let value = match &e.slot {
                Slot::Counter(c) => c.get(),
                Slot::Gauge(g) => g.get(),
                Slot::Histogram(h) => h.count(),
            };
            out.push((series, value));
        }
        out
    }

    /// Record that the flight-recorder scraper sampled this registry at
    /// trace-clock millisecond `t_ms` (see [`crate::trace::now_ns`]).
    pub fn note_scrape(&self, t_ms: u64) {
        self.last_scrape_ms
            .store(t_ms.saturating_add(1), Ordering::Relaxed);
    }

    /// Trace-clock ms of the latest scrape, `None` when no background
    /// scraper has ever sampled this registry.
    pub fn last_scrape_ms(&self) -> Option<u64> {
        match self.last_scrape_ms.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v - 1),
        }
    }

    /// A typed snapshot of every series — the flight recorder's scrape
    /// entry point. Same series keys and ordering as [`snapshot`], but
    /// histograms carry their full bucket state instead of collapsing
    /// to `_count`.
    ///
    /// [`snapshot`]: Registry::snapshot
    pub fn sample(&self) -> Vec<SeriesSample> {
        let entries = self.entries();
        let mut out = Vec::with_capacity(entries.len());
        for e in entries.iter() {
            let series = match e.label {
                Some((k, v)) => format!("{}{{{k}=\"{v}\"}}", e.name),
                None => e.name.to_string(),
            };
            let value = match &e.slot {
                Slot::Counter(c) => SampleValue::Counter(c.get()),
                Slot::Gauge(g) => SampleValue::Gauge(g.get()),
                Slot::Histogram(h) => SampleValue::Histogram(h.snapshot()),
            };
            out.push(SeriesSample { series, value });
        }
        out
    }

    /// Render every metric in Prometheus text exposition format:
    /// `# HELP` / `# TYPE` headers per metric name, then one sample per
    /// series (histograms expand to cumulative `_bucket{le=…}` samples
    /// plus `_sum`/`_count`). When a flight-recorder scraper has sampled
    /// this registry, the dump leads with a free-form scrape-age comment
    /// (`parse_prometheus` skips non-TYPE comments by design).
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries();
        let mut out = String::new();
        if let Some(t) = self.last_scrape_ms() {
            let now_ms = crate::trace::now_ns() / 1_000_000;
            out.push_str(&format!(
                "# mq-scrape t_ms={t} age_ms={}\n",
                now_ms.saturating_sub(t)
            ));
        }
        let mut rendered: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if rendered.contains(&e.name) {
                continue;
            }
            rendered.push(e.name);
            let kind = match &e.slot {
                Slot::Counter(_) => "counter",
                Slot::Gauge(_) => "gauge",
                Slot::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
            out.push_str(&format!("# TYPE {} {kind}\n", e.name));
            for s in entries.iter().filter(|s| s.name == e.name) {
                match &s.slot {
                    Slot::Counter(c) => match s.label {
                        Some((k, v)) => {
                            out.push_str(&format!("{}{{{k}=\"{v}\"}} {}\n", s.name, c.get()))
                        }
                        None => out.push_str(&format!("{} {}\n", s.name, c.get())),
                    },
                    Slot::Gauge(g) => out.push_str(&format!("{} {}\n", s.name, g.get())),
                    Slot::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cum = 0u64;
                        for (i, c) in snap.buckets.iter().enumerate() {
                            cum += c;
                            match BUCKET_BOUNDS_NS.get(i) {
                                Some(b) => out
                                    .push_str(&format!("{}_bucket{{le=\"{b}\"}} {cum}\n", s.name)),
                                None => out
                                    .push_str(&format!("{}_bucket{{le=\"+Inf\"}} {cum}\n", s.name)),
                            }
                        }
                        out.push_str(&format!("{}_sum {}\n", s.name, snap.sum_ns));
                        out.push_str(&format!("{}_count {}\n", s.name, snap.count));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let reg = Registry::new();
        let a = reg.counter("mq_test_total", "test");
        let b = reg.counter("mq_test_total", "test");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.value("mq_test_total", None), Some(3));
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = Registry::new();
        let a = reg.counter_labeled("mq_test_total", "test", Some(("site", "a")));
        let b = reg.counter_labeled("mq_test_total", "test", Some(("site", "b")));
        a.inc();
        a.inc();
        b.inc();
        assert_eq!(reg.value("mq_test_total", Some(("site", "a"))), Some(2));
        assert_eq!(reg.value("mq_test_total", Some(("site", "b"))), Some(1));
        // One HELP/TYPE header, two samples.
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE mq_test_total").count(), 1);
        assert!(text.contains("mq_test_total{site=\"a\"} 2"));
        assert!(text.contains("mq_test_total{site=\"b\"} 1"));
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::default();
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_quantiles_walk_buckets() {
        let h = Histogram::default();
        for _ in 0..98 {
            h.observe_ns(500); // ≤ 1µs bucket
        }
        h.observe_ns(2_000_000); // ≤ 4ms bucket
        h.observe_ns(10_000_000_000); // overflow
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ns(0.5), 1_000);
        assert_eq!(h.quantile_ns(0.98), 1_000);
        assert_eq!(h.quantile_ns(0.99), 4_000_000);
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
    }

    #[test]
    fn typed_sample_carries_full_histogram_state() {
        let reg = Registry::new();
        let c = reg.counter_labeled("mq_test_total", "test", Some(("site", "a")));
        let h = reg.histogram("mq_test_ns", "test");
        c.add(7);
        h.observe_ns(500);
        h.observe_ns(2_000_000);
        let samples = reg.sample();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].series, "mq_test_total{site=\"a\"}");
        assert!(matches!(samples[0].value, SampleValue::Counter(7)));
        match &samples[1].value {
            SampleValue::Histogram(snap) => {
                assert_eq!(snap.count, 2);
                assert_eq!(snap.sum_ns, 2_000_500);
                assert_eq!(snap.buckets[0], 1);
            }
            other => panic!("expected histogram sample, got {other:?}"),
        }
    }

    #[test]
    fn scrape_age_comment_appears_once_noted() {
        let reg = Registry::new();
        reg.counter("mq_test_total", "test");
        assert_eq!(reg.last_scrape_ms(), None);
        assert!(!reg.render_prometheus().contains("# mq-scrape"));
        reg.note_scrape(0); // t_ms 0 is a valid scrape instant
        assert_eq!(reg.last_scrape_ms(), Some(0));
        let text = reg.render_prometheus();
        assert!(text.starts_with("# mq-scrape t_ms=0 age_ms="), "{text}");
        // The scrape comment must not break the strict parser.
        crate::expo::parse_prometheus(&text).expect("scrape comment is free-form");
    }

    #[test]
    fn snapshot_quantiles_work_on_deltas() {
        let mut snap = HistogramSnapshot::default();
        snap.buckets[0] = 9; // ≤ 1µs
        snap.buckets[5] = 1; // ≤ 1ms
        snap.count = 10;
        assert_eq!(snap.quantile_ns(0.5), 1_000);
        assert_eq!(snap.quantile_ns(0.99), 1_000_000);
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.99), 0);
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("mq_test_ns", "test");
        h.observe_ns(500);
        h.observe_ns(2_000);
        let text = reg.render_prometheus();
        assert!(text.contains("mq_test_ns_bucket{le=\"1000\"} 1"));
        assert!(text.contains("mq_test_ns_bucket{le=\"4000\"} 2"));
        assert!(text.contains("mq_test_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mq_test_ns_sum 2500"));
        assert!(text.contains("mq_test_ns_count 2"));
    }
}
