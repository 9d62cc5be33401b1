//! The SLO health engine and anomaly watchdog: the flight recorder's
//! judgement layer.
//!
//! Each scrape, the [`FlightRecorder`] re-evaluates a declarative rule
//! table ([`RULE_NAMES`]) over the windowed views [`History`] derives:
//!
//! * **error-rate** — structured `err` replies as a fraction of served
//!   requests over 10 s, against the `MQ_HEALTH_MAX_ERR_RATE` ceiling
//!   (4× the ceiling is `Unhealthy`).
//! * **p99-burn** — multiwindow burn-rate math on the request-latency
//!   objective (`MQ_HEALTH_P99_MS`): the fraction of requests over the
//!   objective, divided by the 1% budget a p99 objective grants, over a
//!   fast (10 s) and a slow (1 m) window. Both windows burning ≥ 14×
//!   is `Unhealthy` (the budget disappears in hours); both ≥ 3× is
//!   `Degraded` — the classic two-window alerting shape, resistant to
//!   one spiky scrape.
//! * **dedup-starvation** — followers re-joining abandoned dedup slots
//!   faster than dedup shares results.
//! * **memo-hit-rate** — the per-search memo hit-rate floor, summed
//!   over every search under real load.
//! * **writer-queue** — slow-client writer-deadline disconnects, the
//!   symptom of write-queue growth.
//!
//! Verdicts aggregate worst-wins into one [`HealthReport`] the `health`
//! verb serves, each rule carrying its numeric evidence.
//!
//! Independently, the **watchdog** compares every counter series' fast-
//! window rate against a trailing baseline (rolling mean + `k`·MAD,
//! `MQ_HEALTH_ANOMALY_K`) and appends a structured [`Incident`] —
//! trigger series, observed vs baseline rate, the hottest plan nodes
//! and slowest live request spans at detection time — into a bounded
//! log, debounced per series so one burst is captured exactly once.

use crate::history::{History, Scraper, SeriesKind};
use crate::metrics::{Counter, Registry};
use crate::trace;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Fast SLO window (ms) — also the watchdog's rate window.
pub const FAST_WINDOW_MS: u64 = 10_000;
/// Slow SLO window (ms).
pub const SLOW_WINDOW_MS: u64 = 60_000;
/// Incidents retained (oldest dropped first).
pub const INCIDENT_CAP: usize = 32;
/// Per-series incident debounce: one incident per series per cooldown.
pub const INCIDENT_COOLDOWN_MS: u64 = 60_000;
/// Baseline samples required before the watchdog judges a series.
const BASELINE_WARMUP: usize = 5;
/// Trailing baseline rates kept per series.
const BASELINE_CAP: usize = 30;
/// MAD floor (per-second rate) so a perfectly flat baseline still
/// tolerates jitter of a few events per second.
const MAD_FLOOR: f64 = 0.5;
/// Absolute rate floor below which no anomaly fires (events/s).
const MIN_ANOMALY_RATE: f64 = 1.0;
/// Memo hit-rate floor under real load (rule `memo-hit-rate`).
const MEMO_HIT_FLOOR: f64 = 0.2;
/// Request rate below which ratio rules report "insufficient traffic".
const MIN_TRAFFIC_RATE: f64 = 0.5;

/// Every health rule, in evaluation (and report) order.
pub const RULE_NAMES: [&str; 5] = [
    "error-rate",
    "p99-burn",
    "dedup-starvation",
    "memo-hit-rate",
    "writer-queue",
];

/// A health verdict; worst-wins aggregation relies on the ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within every objective.
    Healthy,
    /// An objective is at risk — investigate.
    Degraded,
    /// An objective is being burned through — act.
    Unhealthy,
}

impl Verdict {
    /// The lowercase token the protocol serves.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Healthy => "healthy",
            Verdict::Degraded => "degraded",
            Verdict::Unhealthy => "unhealthy",
        }
    }
}

/// One rule's evaluation: verdict plus the numbers that produced it.
#[derive(Clone, Debug)]
pub struct RuleOutcome {
    /// Rule name (from [`RULE_NAMES`]).
    pub rule: &'static str,
    /// This rule's verdict.
    pub verdict: Verdict,
    /// Key=value evidence string (stable, machine-parsable).
    pub evidence: String,
}

/// The aggregated judgement of one scrape.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Worst verdict across the rules.
    pub verdict: Verdict,
    /// Scrape instant, trace-clock ms.
    pub t_ms: u64,
    /// Per-rule outcomes, in [`RULE_NAMES`] order.
    pub rules: Vec<RuleOutcome>,
}

impl Default for HealthReport {
    fn default() -> Self {
        HealthReport {
            verdict: Verdict::Healthy,
            t_ms: 0,
            rules: Vec::new(),
        }
    }
}

/// One watchdog detection: a counter series running hot against its
/// own trailing baseline, with the execution context captured at
/// detection time.
#[derive(Clone, Debug)]
pub struct Incident {
    /// Detection instant, trace-clock ms.
    pub t_ms: u64,
    /// The triggering series.
    pub series: String,
    /// Observed fast-window rate (events/s).
    pub rate: f64,
    /// Baseline mean rate at detection.
    pub baseline_mean: f64,
    /// Baseline MAD at detection (before flooring).
    pub baseline_mad: f64,
    /// Hottest plan nodes at detection (service-formatted lines).
    pub nodes: Vec<String>,
    /// Slowest spans of the latest live request at detection.
    pub slow_spans: Vec<String>,
}

// ── MQ_HEALTH_* gates ───────────────────────────────────────────────

/// An env-once f64 knob with an atomic override, storing `f64::to_bits`
/// (zero values are canonicalized to `-0.0`'s bits so `0` can mean
/// "unset") — same doctrine as the other gates: never mutate the
/// environment.
struct F64Gate {
    env: AtomicU64,
    forced: AtomicU64,
}

impl F64Gate {
    const fn new() -> F64Gate {
        F64Gate {
            env: AtomicU64::new(0),
            forced: AtomicU64::new(0),
        }
    }

    fn encode(v: f64) -> u64 {
        if v == 0.0 {
            (-0.0f64).to_bits()
        } else {
            v.to_bits()
        }
    }

    fn get(&self, name: &str, default: f64) -> f64 {
        match self.forced.load(Ordering::Relaxed) {
            0 => {}
            bits => return f64::from_bits(bits),
        }
        match self.env.load(Ordering::Relaxed) {
            0 => {
                let v = std::env::var(name)
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .unwrap_or(default);
                self.env.store(Self::encode(v), Ordering::Relaxed);
                v
            }
            bits => f64::from_bits(bits),
        }
    }

    fn set_override(&self, v: Option<f64>) {
        self.forced
            .store(v.map_or(0, Self::encode), Ordering::Relaxed);
    }
}

static ERR_RATE_GATE: F64Gate = F64Gate::new();
static ANOMALY_K_GATE: F64Gate = F64Gate::new();
/// Lazily cached `MQ_HEALTH_P99_MS` (+1; never "off" — 0 falls back to
/// the default).
static P99_ENV: AtomicU64 = AtomicU64::new(0);
static P99_OVERRIDE: AtomicU64 = AtomicU64::new(0);

/// The structured-error-rate ceiling (`MQ_HEALTH_MAX_ERR_RATE`,
/// default 0.05 — 5% of requests).
pub fn max_err_rate() -> f64 {
    ERR_RATE_GATE.get("MQ_HEALTH_MAX_ERR_RATE", 0.05)
}

/// Force the error-rate ceiling (`None` returns to the environment).
pub fn set_max_err_rate_override(v: Option<f64>) {
    ERR_RATE_GATE.set_override(v);
}

/// The watchdog's baseline multiplier `k` (`MQ_HEALTH_ANOMALY_K`,
/// default 4): anomaly ⇔ rate > mean + k·MAD.
pub fn anomaly_k() -> f64 {
    ANOMALY_K_GATE.get("MQ_HEALTH_ANOMALY_K", 4.0)
}

/// Force the anomaly multiplier (`None` returns to the environment).
pub fn set_anomaly_k_override(v: Option<f64>) {
    ANOMALY_K_GATE.set_override(v);
}

/// The p99 latency objective in ms (`MQ_HEALTH_P99_MS`, default 1000).
pub fn p99_objective_ms() -> u64 {
    match P99_OVERRIDE.load(Ordering::Relaxed) {
        0 => {}
        v => return v - 1,
    }
    match P99_ENV.load(Ordering::Relaxed) {
        0 => {
            let ms = std::env::var("MQ_HEALTH_P99_MS")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .filter(|&v| v > 0)
                .unwrap_or(1_000);
            P99_ENV.store(ms + 1, Ordering::Relaxed);
            ms
        }
        v => v - 1,
    }
}

/// Force the p99 objective (`None` returns to the environment).
pub fn set_p99_objective_ms_override(ms: Option<u64>) {
    P99_OVERRIDE.store(ms.map_or(0, |v| v.max(1) + 1), Ordering::Relaxed);
}

// ── Rule evaluation ─────────────────────────────────────────────────

fn healthy(rule: &'static str, evidence: String) -> RuleOutcome {
    RuleOutcome {
        rule,
        verdict: Verdict::Healthy,
        evidence,
    }
}

fn rule_error_rate(h: &History, now_ms: u64) -> RuleOutcome {
    let rule = "error-rate";
    let req = h.counter_rate("mq_net_requests_total", FAST_WINDOW_MS, now_ms);
    let err = h
        .counter_rate("mq_net_err_replies_total", FAST_WINDOW_MS, now_ms)
        .unwrap_or(0.0);
    let Some(req) = req.filter(|r| *r >= MIN_TRAFFIC_RATE) else {
        return healthy(
            rule,
            format!("insufficient-traffic window=10s err_per_s={err:.3}"),
        );
    };
    let ratio = err / req;
    let ceiling = max_err_rate();
    let verdict = if ratio > 4.0 * ceiling {
        Verdict::Unhealthy
    } else if ratio > ceiling {
        Verdict::Degraded
    } else {
        Verdict::Healthy
    };
    RuleOutcome {
        rule,
        verdict,
        evidence: format!("err_rate={ratio:.3} ceiling={ceiling:.3} window=10s"),
    }
}

/// Fraction of a windowed histogram delta's observations above
/// `objective_ns`, at bucket granularity (the first bound ≥ the
/// objective counts as within it).
fn frac_over(delta: &crate::metrics::HistogramSnapshot, objective_ns: u64) -> f64 {
    if delta.count == 0 {
        return 0.0;
    }
    let within: u64 = crate::metrics::BUCKET_BOUNDS_NS
        .iter()
        .enumerate()
        .take_while(|(_, b)| **b <= objective_ns)
        .map(|(i, _)| delta.buckets[i])
        .sum();
    1.0 - (within.min(delta.count) as f64 / delta.count as f64)
}

fn rule_p99_burn(h: &History, now_ms: u64) -> RuleOutcome {
    let rule = "p99-burn";
    let objective_ms = p99_objective_ms();
    let objective_ns = objective_ms.saturating_mul(1_000_000);
    let fast = h.hist_delta("mq_net_request_ns", FAST_WINDOW_MS, now_ms);
    let slow = h.hist_delta("mq_net_request_ns", SLOW_WINDOW_MS, now_ms);
    let (Some(fast), Some(slow)) = (fast, slow) else {
        return healthy(
            rule,
            format!("insufficient-samples objective_ms={objective_ms}"),
        );
    };
    if fast.count == 0 || slow.count == 0 {
        return healthy(rule, format!("no-requests objective_ms={objective_ms}"));
    }
    // A p99 objective grants a 1% error budget; burn = consumption rate.
    let budget = 0.01;
    let burn_fast = frac_over(&fast, objective_ns) / budget;
    let burn_slow = frac_over(&slow, objective_ns) / budget;
    let verdict = if burn_fast >= 14.0 && burn_slow >= 14.0 {
        Verdict::Unhealthy
    } else if burn_fast >= 3.0 && burn_slow >= 3.0 {
        Verdict::Degraded
    } else {
        Verdict::Healthy
    };
    let p99_ms = fast.quantile_ns(0.99) as f64 / 1e6;
    RuleOutcome {
        rule,
        verdict,
        evidence: format!(
            "burn_10s={burn_fast:.1} burn_1m={burn_slow:.1} p99_ms={p99_ms:.1} objective_ms={objective_ms}"
        ),
    }
}

fn rule_dedup_starvation(h: &History, now_ms: u64) -> RuleOutcome {
    let rule = "dedup-starvation";
    let retries = h
        .counter_rate("mq_dedup_retries_total", SLOW_WINDOW_MS, now_ms)
        .unwrap_or(0.0);
    let shared = h
        .counter_rate("mq_dedup_shared_total", SLOW_WINDOW_MS, now_ms)
        .unwrap_or(0.0);
    let verdict = if retries > MIN_TRAFFIC_RATE && retries > shared {
        Verdict::Degraded
    } else {
        Verdict::Healthy
    };
    RuleOutcome {
        rule,
        verdict,
        evidence: format!("retries_per_s={retries:.3} shared_per_s={shared:.3} window=1m"),
    }
}

fn rule_memo_hit_rate(h: &History, now_ms: u64) -> RuleOutcome {
    let rule = "memo-hit-rate";
    let hits = h
        .counter_rate("mq_memo_hits_total", SLOW_WINDOW_MS, now_ms)
        .unwrap_or(0.0);
    let misses = h
        .counter_rate("mq_memo_misses_total", SLOW_WINDOW_MS, now_ms)
        .unwrap_or(0.0);
    let total = hits + misses;
    if total < 10.0 {
        return healthy(rule, format!("insufficient-load lookups_per_s={total:.1}"));
    }
    let ratio = hits / total;
    let verdict = if ratio < MEMO_HIT_FLOOR {
        Verdict::Degraded
    } else {
        Verdict::Healthy
    };
    RuleOutcome {
        rule,
        verdict,
        evidence: format!("hit_rate={ratio:.3} floor={MEMO_HIT_FLOOR:.3} window=1m"),
    }
}

fn rule_writer_queue(h: &History, now_ms: u64) -> RuleOutcome {
    let rule = "writer-queue";
    let slow = h
        .counter_rate("mq_net_disconnects_slow_total", SLOW_WINDOW_MS, now_ms)
        .unwrap_or(0.0);
    let conns = h
        .gauge_minmax("mq_net_active_connections", SLOW_WINDOW_MS, now_ms)
        .unwrap_or((0, 0));
    let verdict = if slow > 0.0 {
        Verdict::Degraded
    } else {
        Verdict::Healthy
    };
    RuleOutcome {
        rule,
        verdict,
        evidence: format!(
            "slow_disconnects_per_s={slow:.3} conns_min={} conns_max={} window=1m",
            conns.0, conns.1
        ),
    }
}

/// Evaluate the full rule table over `history` at instant `now_ms`.
pub fn evaluate(history: &History, now_ms: u64) -> HealthReport {
    let rules = vec![
        rule_error_rate(history, now_ms),
        rule_p99_burn(history, now_ms),
        rule_dedup_starvation(history, now_ms),
        rule_memo_hit_rate(history, now_ms),
        rule_writer_queue(history, now_ms),
    ];
    let verdict = rules
        .iter()
        .map(|r| r.verdict)
        .max()
        .unwrap_or(Verdict::Healthy);
    HealthReport {
        verdict,
        t_ms: now_ms,
        rules,
    }
}

// ── Watchdog ────────────────────────────────────────────────────────

#[derive(Default)]
struct Baseline {
    rates: VecDeque<f64>,
    last_incident_ms: Option<u64>,
}

fn mean(xs: &VecDeque<f64>) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs[xs.len() / 2]
}

/// Median absolute deviation about the median.
fn mad(xs: &VecDeque<f64>) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().collect();
    let med = median(&mut v);
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&mut dev)
}

// ── FlightRecorder ──────────────────────────────────────────────────

/// Callback producing the hottest-plan-node lines for incident context
/// (the service wires this to its slow-query log).
pub type NodeSource = Box<dyn Fn() -> Vec<String> + Send + Sync>;

/// The flight recorder: one per server instance, owning the metric
/// [`History`], the latest [`HealthReport`], the watchdog baselines,
/// and the bounded incident log. [`FlightRecorder::tick`] is the whole
/// per-scrape pipeline; the [`Scraper`] thread (started by the net
/// layer when `MQ_SCRAPE_MS` > 0) is just a cadence for it.
pub struct FlightRecorder {
    history: History,
    scrapes: Counter,
    latest: Mutex<HealthReport>,
    baselines: Mutex<HashMap<String, Baseline>>,
    incidents: Mutex<VecDeque<Incident>>,
    node_source: Mutex<Option<NodeSource>>,
}

impl FlightRecorder {
    /// A recorder for `registry`'s server instance (registers the
    /// `mq_scrape_runs_total` counter there).
    pub fn new(registry: &Registry) -> FlightRecorder {
        FlightRecorder {
            history: History::new(),
            scrapes: registry.counter("mq_scrape_runs_total", "Flight-recorder scrape ticks."),
            latest: Mutex::new(HealthReport::default()),
            baselines: Mutex::new(HashMap::new()),
            incidents: Mutex::new(VecDeque::new()),
            node_source: Mutex::new(None),
        }
    }

    /// The recorded time-series store.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Install the hottest-plan-nodes provider for incident context.
    pub fn set_node_source(&self, source: NodeSource) {
        *self.node_source.lock().unwrap_or_else(|e| e.into_inner()) = Some(source);
    }

    /// Scrape ticks so far (mirrors `mq_scrape_runs_total`).
    pub fn scrapes(&self) -> u64 {
        self.scrapes.get()
    }

    /// One full scrape at the live trace clock.
    pub fn tick(&self, registry: &Registry) {
        self.tick_at(registry, trace::now_ns() / 1_000_000);
    }

    /// One full scrape at an injected instant (deterministic tests):
    /// sample the registry into the history, re-evaluate the SLO rules,
    /// and run the watchdog.
    pub fn tick_at(&self, registry: &Registry, t_ms: u64) {
        self.scrapes.inc();
        self.history.record(registry, t_ms);
        let report = evaluate(&self.history, t_ms);
        *self.latest.lock().unwrap_or_else(|e| e.into_inner()) = report;
        self.watchdog(t_ms);
    }

    /// The latest health report (default-Healthy before any scrape).
    pub fn health(&self) -> HealthReport {
        self.latest
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The buffered incident log, oldest first.
    pub fn incidents(&self) -> Vec<Incident> {
        self.incidents
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Incident context: the latest live request's slowest spans.
    fn slow_spans() -> Vec<String> {
        let Some(req) = trace::latest_request(0) else {
            return Vec::new();
        };
        let mut spans = trace::collect_request(req);
        spans.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
        spans.truncate(3);
        spans
            .iter()
            .map(|s| format!("req={} {} dur_us={}", s.req, s.name, s.dur_ns / 1_000))
            .collect()
    }

    /// Compare every counter series' fast-window rate against its
    /// trailing baseline; record debounced incidents for outliers.
    fn watchdog(&self, now_ms: u64) {
        let k = anomaly_k();
        let names: Vec<String> = self
            .history
            .series_names()
            .into_iter()
            .filter(|n| {
                self.history
                    .ring(n)
                    .is_some_and(|r| r.kind() == SeriesKind::Counter)
            })
            .collect();
        for name in names {
            let Some(rate) = self.history.counter_rate(&name, FAST_WINDOW_MS, now_ms) else {
                continue;
            };
            let mut baselines = self.baselines.lock().unwrap_or_else(|e| e.into_inner());
            let base = baselines.entry(name.clone()).or_default();
            let warmed = base.rates.len() >= BASELINE_WARMUP;
            let (base_mean, base_mad) = if warmed {
                (mean(&base.rates), mad(&base.rates))
            } else {
                (0.0, 0.0)
            };
            let threshold = base_mean + k * base_mad.max(MAD_FLOOR);
            let anomalous = warmed && rate > threshold && rate >= MIN_ANOMALY_RATE;
            if anomalous {
                let debounced = base
                    .last_incident_ms
                    .is_some_and(|t| now_ms.saturating_sub(t) < INCIDENT_COOLDOWN_MS);
                if !debounced {
                    base.last_incident_ms = Some(now_ms);
                    drop(baselines);
                    let nodes = self
                        .node_source
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .as_ref()
                        .map(|f| f())
                        .unwrap_or_default();
                    let mut log = self.incidents.lock().unwrap_or_else(|e| e.into_inner());
                    if log.len() == INCIDENT_CAP {
                        log.pop_front();
                    }
                    log.push_back(Incident {
                        t_ms: now_ms,
                        series: name,
                        rate,
                        baseline_mean: base_mean,
                        baseline_mad: base_mad,
                        nodes,
                        slow_spans: Self::slow_spans(),
                    });
                }
                // Anomalous samples never enter the baseline, so a
                // sustained burst stays flagged instead of becoming
                // the new normal.
                continue;
            }
            if base.rates.len() == BASELINE_CAP {
                base.rates.pop_front();
            }
            base.rates.push_back(rate);
        }
    }

    /// Spawn the background scrape thread for this recorder if the
    /// `MQ_SCRAPE_MS` gate is on. `registry` must be the instance the
    /// recorder was built for; the closure is the only thing keeping
    /// the cadence — [`tick_at`] stays directly drivable by tests.
    ///
    /// [`tick_at`]: FlightRecorder::tick_at
    pub fn start_scraper(
        self: &std::sync::Arc<Self>,
        registry: std::sync::Arc<Registry>,
    ) -> Option<Scraper> {
        let period = crate::history::scrape_ms()?;
        let rec = self.clone();
        Some(Scraper::spawn(period, move || rec.tick(&registry)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `n` scrapes 1 s apart, bumping counters via `step`.
    fn drive(
        rec: &FlightRecorder,
        reg: &Registry,
        start_ms: u64,
        n: u64,
        mut step: impl FnMut(u64),
    ) -> u64 {
        let mut t = start_ms;
        for i in 0..n {
            step(i);
            rec.tick_at(reg, t);
            t += 1_000;
        }
        t - 1_000
    }

    #[test]
    fn idle_system_is_healthy() {
        let reg = Registry::new();
        let rec = FlightRecorder::new(&reg);
        reg.counter("mq_net_requests_total", "t");
        let end = drive(&rec, &reg, 0, 5, |_| {});
        let report = rec.health();
        assert_eq!(report.verdict, Verdict::Healthy);
        assert_eq!(report.t_ms, end);
        assert_eq!(report.rules.len(), RULE_NAMES.len());
        for (r, want) in report.rules.iter().zip(RULE_NAMES) {
            assert_eq!(r.rule, want);
            assert_eq!(r.verdict, Verdict::Healthy, "{}: {}", r.rule, r.evidence);
        }
        assert_eq!(rec.scrapes(), 5);
    }

    #[test]
    fn error_burst_degrades_and_recovers_names_rule() {
        let reg = Registry::new();
        let rec = FlightRecorder::new(&reg);
        let req = reg.counter("mq_net_requests_total", "t");
        let err = reg.counter("mq_net_err_replies_total", "t");
        // Clean traffic: 100 req/s, no errors.
        let end = drive(&rec, &reg, 0, 8, |_| req.add(100));
        assert_eq!(rec.health().verdict, Verdict::Healthy);
        // Burst: a third of replies error out.
        drive(&rec, &reg, end + 1_000, 4, |_| {
            req.add(100);
            err.add(33);
        });
        let report = rec.health();
        assert!(report.verdict >= Verdict::Degraded, "{report:?}");
        let rule = report
            .rules
            .iter()
            .find(|r| r.rule == "error-rate")
            .expect("error-rate rule present");
        assert!(rule.verdict >= Verdict::Degraded, "{}", rule.evidence);
        assert!(rule.evidence.contains("ceiling=0.050"), "{}", rule.evidence);
    }

    #[test]
    fn p99_burn_trips_on_sustained_slow_tail() {
        let reg = Registry::new();
        let rec = FlightRecorder::new(&reg);
        set_p99_objective_ms_override(Some(1));
        let req = reg.counter("mq_net_requests_total", "t");
        let lat = reg.histogram("mq_net_request_ns", "t");
        // Every fifth request blows the 1 ms objective (20% ≫ 1% budget)
        // across both windows.
        drive(&rec, &reg, 0, 12, |_| {
            req.add(10);
            for i in 0..10u64 {
                lat.observe_ns(if i % 5 == 0 { 50_000_000 } else { 10_000 });
            }
        });
        let report = rec.health();
        set_p99_objective_ms_override(None);
        let rule = report
            .rules
            .iter()
            .find(|r| r.rule == "p99-burn")
            .expect("p99-burn rule present");
        assert_eq!(rule.verdict, Verdict::Unhealthy, "{}", rule.evidence);
        assert!(
            rule.evidence.contains("objective_ms=1"),
            "{}",
            rule.evidence
        );
    }

    #[test]
    fn watchdog_flags_burst_exactly_once() {
        let reg = Registry::new();
        let rec = FlightRecorder::new(&reg);
        let c = reg.counter("mq_session_panics_caught_total", "t");
        // Quiet baseline.
        let end = drive(&rec, &reg, 0, 10, |_| {});
        assert!(rec.incidents().is_empty());
        // Sustained burst: 50 events/s for 5 scrapes.
        drive(&rec, &reg, end + 1_000, 5, |_| c.add(50));
        let incidents = rec.incidents();
        let hits: Vec<_> = incidents
            .iter()
            .filter(|i| i.series == "mq_session_panics_caught_total")
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "debounce must capture the burst once: {incidents:?}"
        );
        let hit = hits[0];
        assert!(hit.rate >= 1.0, "{hit:?}");
        assert!(hit.rate > hit.baseline_mean, "{hit:?}");
    }

    #[test]
    fn watchdog_tolerates_steady_traffic() {
        let reg = Registry::new();
        let rec = FlightRecorder::new(&reg);
        let c = reg.counter("mq_net_requests_total", "t");
        drive(&rec, &reg, 0, 30, |_| c.add(200));
        assert!(
            rec.incidents().is_empty(),
            "steady load is the baseline, not an anomaly: {:?}",
            rec.incidents()
        );
    }

    #[test]
    fn incident_log_is_bounded() {
        let reg = Registry::new();
        let rec = FlightRecorder::new(&reg);
        {
            let mut log = rec.incidents.lock().unwrap();
            for i in 0..(INCIDENT_CAP + 10) {
                if log.len() == INCIDENT_CAP {
                    log.pop_front();
                }
                log.push_back(Incident {
                    t_ms: i as u64,
                    series: format!("s{i}"),
                    rate: 1.0,
                    baseline_mean: 0.0,
                    baseline_mad: 0.0,
                    nodes: Vec::new(),
                    slow_spans: Vec::new(),
                });
            }
        }
        let log = rec.incidents();
        assert_eq!(log.len(), INCIDENT_CAP);
        assert_eq!(log[0].t_ms, 10);
    }

    #[test]
    fn node_source_enriches_incidents() {
        let reg = Registry::new();
        let rec = FlightRecorder::new(&reg);
        rec.set_node_source(Box::new(|| vec!["node #3 wall_ms=12".into()]));
        let c = reg.counter("mq_exec_nodes_total", "t");
        let end = drive(&rec, &reg, 0, 10, |_| {});
        drive(&rec, &reg, end + 1_000, 3, |_| c.add(500));
        let incidents = rec.incidents();
        assert!(!incidents.is_empty());
        assert_eq!(incidents[0].nodes, vec!["node #3 wall_ms=12".to_string()]);
    }

    #[test]
    fn health_knob_overrides() {
        set_max_err_rate_override(Some(0.5));
        assert_eq!(max_err_rate(), 0.5);
        set_max_err_rate_override(None);
        set_anomaly_k_override(Some(2.5));
        assert_eq!(anomaly_k(), 2.5);
        set_anomaly_k_override(None);
        set_p99_objective_ms_override(Some(123));
        assert_eq!(p99_objective_ms(), 123);
        set_p99_objective_ms_override(None);
    }
}
