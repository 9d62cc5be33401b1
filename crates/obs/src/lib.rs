//! # mq-obs — observability substrate for the metaquery workspace
//!
//! The crate every layer records into, sitting **below** `mq-store`
//! (mirroring the `mq-lint` bring-up: dependency-free, buildable before
//! anything else). Three pieces:
//!
//! * [`metrics`] — a central [`Registry`] of monotonic counters, gauges,
//!   and fixed-bucket latency histograms (p50/p95/p99 derivable without
//!   allocation), rendered in Prometheus text format by
//!   [`Registry::render_prometheus`]. Registries are **per-instance**
//!   (one per `MqService`/`NetServer`), never process-global, so
//!   concurrent servers in one process keep attribution separate — the
//!   same doctrine the engine's memo counters follow.
//! * [`trace`] — lock-free per-thread span ring buffers with nanosecond
//!   timestamps behind the [`span!`] macro. Disabled (`MQ_TRACE=0`, the
//!   default) the macro compiles to a branch on a relaxed atomic and
//!   allocates nothing; request-granularity spans
//!   ([`trace::SpanGuard::start_always`]) are always recorded so
//!   `trace <req-id>` works without turning the hot-kernel spans on.
//! * [`profile`] — a per-search [`SearchProfile`] attributing wall time,
//!   rows in/out, and memo hits to each hash-consed plan-node id, plus
//!   always-on cheap totals (scheduler tasks, node evals) that feed the
//!   scheduler/executor metric families.
//!
//! On top of the live instruments sits the **flight recorder** — the
//! time dimension:
//!
//! * [`history`] — a fixed-memory ring time-series store filled by a
//!   background [`Scraper`] (`MQ_SCRAPE_MS`, default 1 s; `0` disables
//!   the recorder entirely), deriving windowed counter rates, gauge
//!   min/max, and histogram-delta percentiles over 10 s/1 m/5 m.
//! * [`health`] — a declarative SLO rule table evaluated each scrape
//!   into Healthy/Degraded/Unhealthy verdicts, plus an anomaly
//!   watchdog (rolling mean + k·MAD) appending debounced, structured
//!   [`Incident`] records to a bounded log. One [`FlightRecorder`] per
//!   server instance ties both together.
//!
//! [`expo::parse_prometheus`] is the simple in-tree checker CI uses to
//! assert the `metrics` dump stays well-formed.
//!
//! [`Registry`]: metrics::Registry
//! [`Registry::render_prometheus`]: metrics::Registry::render_prometheus
//! [`SearchProfile`]: profile::SearchProfile
//! [`Scraper`]: history::Scraper
//! [`Incident`]: health::Incident
//! [`FlightRecorder`]: health::FlightRecorder

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod health;
pub mod history;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use expo::parse_prometheus;
pub use health::{
    evaluate, FlightRecorder, HealthReport, Incident, RuleOutcome, Verdict, RULE_NAMES,
};
pub use history::{
    parse_window, scrape_ms, set_scrape_ms_override, History, Scraper, SeriesKind, SeriesPoint,
    SeriesRing, WINDOWS_MS,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, SampleValue, SeriesSample,
};
pub use profile::{NodeStat, PhaseStat, SearchProfile};
pub use trace::{
    next_request_id, set_slow_ms_override, set_trace_override, slow_ms, trace_enabled, SpanEvent,
    SpanName,
};
