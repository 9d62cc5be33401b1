//! The session manager: many concurrent metaquery searches over one
//! catalog.
//!
//! [`MqService`] is the top of the serving stack. Each request names a
//! catalog entry; the service pins the entry's current [`DbHandle`]
//! snapshot, coalesces identical in-flight requests
//! ([`crate::dedup::RequestTable`]), applies **admission control** (at
//! most [`ServiceConfig::max_concurrent`] searches execute at once —
//! excess owners queue on a semaphore; dedup followers never consume a
//! permit, they only wait for their owner), and runs `find_rules` with a
//! fresh per-search memo service.
//!
//! A [`Session`] pins one snapshot for its lifetime: every query it
//! issues sees exactly the rows the session opened with, even while the
//! catalog publishes updated snapshots underneath — its searches read
//! only the pinned snapshot's relations. Sessions also carry a
//! [`SessionBudget`] applied to every query they issue.
//!
//! Answers are **byte-identical to a cold `find_rules_seq` run** over
//! the same snapshot, whether a request executed or was coalesced onto
//! a concurrent twin — every memo value is a deterministic function of
//! its key and the snapshot (regression-tested in `tests/service.rs`).

use crate::catalog::{panic_message, Catalog, CatalogError, DbHandle};
use crate::dedup::{Joined, RequestTable, RetryPolicy};
use crate::faults::CountedSite;
use mq_core::engine::find_rules::find_rules_instrumented;
use mq_core::engine::memo::{MemoStats, SharedMemos};
use mq_core::engine::{MqAnswer, Thresholds};
use mq_core::instantiate::{InstError, InstType};
use mq_core::parse::parse_metaquery;
use mq_core::plan::PlanNodeId;
use mq_obs::profile::{NodeStat, SearchProfile};
use mq_obs::{trace, Counter, FlightRecorder, Histogram, Registry};
use mq_relation::{Database, RelId, Tuple};
use mq_store::lock::{lock_recover, wait_recover};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

/// Errors surfaced to service callers. `Clone` because a deduplicated
/// error is fanned out to every coalesced caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// Catalog lookup/update failure.
    Catalog(CatalogError),
    /// The request's metaquery text does not parse.
    Parse(String),
    /// The engine rejected the (metaquery, database, type) combination.
    Engine(InstError),
    /// The search panicked. Caught at the request boundary and published
    /// to every coalesced caller; the service stays up and later
    /// requests (even identical ones) run fresh searches.
    SearchPanicked(String),
    /// Every dedup retry after abandoned-owner wakeups failed — the
    /// request kept losing owners. Distinct from [`Self::SearchPanicked`]
    /// (this caller never got to run or share a search at all).
    RetriesExhausted {
        /// How many times this caller re-joined before giving up.
        attempts: u32,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Catalog(e) => write!(f, "{e}"),
            ServiceError::Parse(msg) => write!(f, "invalid metaquery: {msg}"),
            ServiceError::Engine(e) => write!(f, "{e}"),
            ServiceError::SearchPanicked(msg) => write!(f, "search panicked: {msg}"),
            ServiceError::RetriesExhausted { attempts } => {
                write!(
                    f,
                    "request kept losing its owner; gave up after {attempts} retries"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CatalogError> for ServiceError {
    fn from(e: CatalogError) -> Self {
        ServiceError::Catalog(e)
    }
}

/// Service-wide configuration. The default admits everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceConfig {
    /// Maximum number of searches executing at once (`0` = unlimited).
    /// Excess requests queue; dedup followers wait on their owner
    /// without consuming a permit.
    pub max_concurrent: usize,
    /// Follower behavior after abandoned-owner dedup wakeups.
    pub retry: RetryPolicy,
}

/// Per-session limits applied to every query the session issues.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SessionBudget {
    /// Keep at most this many answers (sorted order, so the kept prefix
    /// is deterministic). `None` = unbounded.
    pub max_answers: Option<usize>,
    /// Per-query wall-clock deadline in milliseconds. The engine checks
    /// it cooperatively; an overrunning search returns
    /// [`InstError::DeadlineExceeded`] instead of partial answers.
    /// `None` = unbounded.
    pub max_wall_ms: Option<u64>,
}

/// One metaquery request against a named catalog entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MetaqueryRequest {
    /// The catalog entry to search.
    pub db: String,
    /// The metaquery text (also the dedup identity — textually identical
    /// requests coalesce; semantically equal but differently written
    /// ones do not).
    pub metaquery: String,
    /// The instantiation type.
    pub ty: InstType,
    /// The index thresholds.
    pub thresholds: Thresholds,
    /// Keep at most this many (sorted) answers.
    pub max_answers: Option<usize>,
    /// Per-request wall-clock deadline in milliseconds (`None` =
    /// unbounded).
    pub max_wall_ms: Option<u64>,
}

impl MetaqueryRequest {
    /// A type-0, no-thresholds, unbounded request.
    pub fn new(db: impl Into<String>, metaquery: impl Into<String>) -> Self {
        MetaqueryRequest {
            db: db.into(),
            metaquery: metaquery.into(),
            ty: InstType::Zero,
            thresholds: Thresholds::none(),
            max_answers: None,
            max_wall_ms: None,
        }
    }
}

/// The identity under which concurrent requests coalesce: everything
/// that determines the answer bytes, including the snapshot version (so
/// requests across an update never share results).
#[derive(Clone, PartialEq, Eq, Hash)]
struct RequestKey {
    db: String,
    version: u64,
    metaquery: String,
    ty: InstType,
    thresholds: Thresholds,
    max_answers: Option<usize>,
    max_wall_ms: Option<u64>,
}

/// What a finished search shares with every coalesced caller.
#[derive(Clone)]
struct CompletedSearch {
    answers: Arc<Vec<MqAnswer>>,
    db_version: u64,
    memo: MemoStats,
}

type SearchResult = Result<CompletedSearch, ServiceError>;

/// One answered request.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The answers, in `find_rules` order (shared when deduplicated).
    pub answers: Arc<Vec<MqAnswer>>,
    /// The snapshot version the search ran against.
    pub db_version: u64,
    /// `true` when this caller was coalesced onto another caller's
    /// in-flight search instead of executing its own.
    pub shared: bool,
    /// The executing search's memo-service hit/miss counters (the
    /// owner's counters, when `shared`).
    pub memo: MemoStats,
    /// The trace request id this query ran (or coalesced) under — the
    /// handle for `trace <req-id>` span lookup.
    pub req_id: u64,
}

/// One slow-query log entry: the request, its wall time, and the
/// hottest plan nodes of its (detailed) profile.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The trace request id (spans may still be in the rings).
    pub req_id: u64,
    /// Catalog entry searched.
    pub db: String,
    /// The metaquery text.
    pub metaquery: String,
    /// Wall milliseconds the search took.
    pub wall_ms: u64,
    /// Hottest plan nodes, `(node id, rendered op, stats)`, hottest
    /// first.
    pub nodes: Vec<(usize, String, NodeStat)>,
}

/// Entries the slow-query log retains (oldest evicted first).
const SLOWLOG_CAP: usize = 32;

/// Hottest plan nodes recorded per slow query.
const SLOWLOG_TOP_NODES: usize = 8;

/// The service's metric handles, pre-created at construction so hot
/// paths never take the registry lock. Names follow the
/// `mq_<family>_<metric>` contract enforced by mq-lint's
/// `metric-registry` rule.
struct Handles {
    requests: Counter,
    executed: Counter,
    deduped: Counter,
    dedup_retries: Counter,
    panics_caught: Counter,
    deadline_exceeded: Counter,
    memo_hits: Counter,
    memo_misses: Counter,
    sched_tasks: Counter,
    exec_nodes: Counter,
    exec_memo_hits: Counter,
    catalog_updates: Counter,
    admission_wait_ns: Histogram,
    search_wall_ns: Histogram,
    follower_wait_ns: Histogram,
    catalog_update_ns: Histogram,
}

impl Handles {
    fn new(reg: &Registry) -> Handles {
        Handles {
            requests: reg.counter(
                "mq_session_requests_total",
                "Metaquery requests received (including deduplicated ones).",
            ),
            executed: reg.counter(
                "mq_session_executed_total",
                "Searches actually executed (not served by dedup).",
            ),
            deduped: reg.counter(
                "mq_dedup_shared_total",
                "Requests served by coalescing onto an in-flight twin.",
            ),
            dedup_retries: reg.counter(
                "mq_dedup_retries_total",
                "Dedup re-joins after an owner abandoned its slot.",
            ),
            panics_caught: reg.counter(
                "mq_session_panics_caught_total",
                "Search panics caught at the request boundary.",
            ),
            deadline_exceeded: reg.counter(
                "mq_session_deadline_exceeded_total",
                "Searches that overran their wall-clock deadline.",
            ),
            memo_hits: reg.counter(
                "mq_memo_hits_total",
                "Memo-service hits, summed over executed searches.",
            ),
            memo_misses: reg.counter(
                "mq_memo_misses_total",
                "Memo-service misses, summed over executed searches.",
            ),
            sched_tasks: reg.counter(
                "mq_sched_tasks_total",
                "Scheduler prefix tasks claimed by search workers.",
            ),
            exec_nodes: reg.counter(
                "mq_exec_nodes_total",
                "Plan-node evaluations that ran an executor kernel.",
            ),
            exec_memo_hits: reg.counter(
                "mq_exec_memo_hits_total",
                "Plan-node evaluations satisfied from a memo instead.",
            ),
            catalog_updates: reg.counter(
                "mq_catalog_updates_total",
                "Copy-on-write catalog updates published.",
            ),
            admission_wait_ns: reg.histogram(
                "mq_session_admission_wait_ns",
                "Time owners waited on the admission semaphore.",
            ),
            search_wall_ns: reg.histogram(
                "mq_session_search_wall_ns",
                "Wall time of executed searches.",
            ),
            follower_wait_ns: reg.histogram(
                "mq_dedup_follower_wait_ns",
                "Time dedup followers blocked on their owner's search.",
            ),
            catalog_update_ns: reg.histogram(
                "mq_catalog_update_ns",
                "Wall time of copy-on-write catalog updates (including freeze).",
            ),
        }
    }
}

/// Counters the service accumulates across its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Requests received (including deduplicated ones).
    pub requests: u64,
    /// Searches actually executed.
    pub executed: u64,
    /// Requests served by coalescing onto an in-flight twin.
    pub deduped: u64,
    /// Searches that panicked and were caught at the request boundary.
    pub panics_caught: u64,
    /// Searches that overran their wall-clock deadline.
    pub deadline_exceeded: u64,
    /// Per-search memo-service traffic, summed over executed searches.
    pub memo: MemoStats,
}

/// A small counting semaphore (admission control). `max == 0` admits
/// everything.
struct Semaphore {
    max: usize,
    busy: Mutex<usize>,
    idle: Condvar,
}

struct Permit<'a>(Option<&'a Semaphore>);

impl Semaphore {
    fn new(max: usize) -> Self {
        Semaphore {
            max,
            busy: Mutex::new(0),
            idle: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        if self.max == 0 {
            return Permit(None);
        }
        let mut busy = lock_recover(&self.busy);
        while *busy >= self.max {
            busy = wait_recover(&self.idle, busy);
        }
        *busy += 1;
        Permit(Some(self))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if let Some(sem) = self.0 {
            *lock_recover(&sem.busy) -= 1;
            sem.idle.notify_one();
        }
    }
}

/// The concurrent metaquery service: a catalog of frozen databases, a
/// dedup table, admission control and an `mq-obs` metrics registry. All
/// methods take `&self`; share it across session threads behind an
/// `Arc` (or plain borrows with `std::thread::scope`).
///
/// All counters live in the per-instance [`Registry`] (never
/// process-global — two services in one process keep separate books);
/// [`MqService::registry`] exposes it for Prometheus-text exposition.
pub struct MqService {
    catalog: Catalog,
    inflight: RequestTable<RequestKey, SearchResult>,
    gate: Semaphore,
    retry: RetryPolicy,
    registry: Arc<Registry>,
    m: Handles,
    search_panic: CountedSite,
    slowlog: Arc<Mutex<VecDeque<SlowQuery>>>,
    recorder: Arc<FlightRecorder>,
}

impl MqService {
    /// A service with default configuration (unlimited admission).
    pub fn new() -> Self {
        Self::with_config(ServiceConfig::default())
    }

    /// A service with explicit configuration.
    pub fn with_config(cfg: ServiceConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let m = Handles::new(&registry);
        let search_panic = CountedSite::new(&registry, "search.panic");
        let slowlog: Arc<Mutex<VecDeque<SlowQuery>>> = Arc::new(Mutex::new(VecDeque::new()));
        let recorder = Arc::new(FlightRecorder::new(&registry));
        // Incident context: the watchdog snapshots the latest slow
        // query's hottest plan nodes at detection time (empty while the
        // slow-query log is disarmed or has seen nothing slow).
        let incident_nodes = Arc::clone(&slowlog);
        recorder.set_node_source(Box::new(move || {
            lock_recover(&incident_nodes)
                .back()
                .map(|sq| {
                    sq.nodes
                        .iter()
                        .map(|(id, label, stat)| {
                            format!(
                                "node #{id} {label} wall_us={} execs={} rows_out={}",
                                stat.wall_ns / 1_000,
                                stat.execs,
                                stat.rows_out
                            )
                        })
                        .collect()
                })
                .unwrap_or_default()
        }));
        MqService {
            catalog: Catalog::new(),
            inflight: RequestTable::new(),
            gate: Semaphore::new(cfg.max_concurrent),
            retry: cfg.retry,
            registry,
            m,
            search_panic,
            slowlog,
            recorder,
        }
    }

    /// The underlying catalog (register/update/snapshot/purge).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// This service instance's metric registry (the `metrics` command
    /// renders it; the net layer registers its own families here too).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// This instance's flight recorder: metric history, SLO health
    /// verdicts, and the anomaly-incident log. Filled by the background
    /// scraper the net layer starts (`MQ_SCRAPE_MS`); library embedders
    /// can drive it directly via [`FlightRecorder::tick`].
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Snapshot of the slow-query log, oldest first. Armed by
    /// `MQ_SLOW_MS` / [`mq_obs::set_slow_ms_override`]; empty while
    /// disarmed.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        lock_recover(&self.slowlog).iter().cloned().collect()
    }

    /// Run one catalog mutation under the `catalog.update` span and the
    /// `mq_catalog_*` metrics.
    fn timed_update<T>(
        &self,
        op: impl FnOnce() -> Result<T, CatalogError>,
    ) -> Result<T, ServiceError> {
        let _span = trace::SpanGuard::start_always(trace::CATALOG_UPDATE);
        let t0 = trace::now_ns();
        let r = op();
        self.m
            .catalog_update_ns
            .observe_ns(trace::now_ns().saturating_sub(t0));
        if r.is_ok() {
            self.m.catalog_updates.inc();
        }
        Ok(r?)
    }

    /// Mutate `name` copy-on-write through an arbitrary closure (the
    /// instrumented face of [`Catalog::update_with`]): records the
    /// `catalog.update` span and update metrics like
    /// [`MqService::append_rows`] / [`MqService::replace_relation`].
    pub fn update_with(
        &self,
        name: &str,
        touch: impl FnOnce(&mut Database) -> Result<RelId, CatalogError>,
    ) -> Result<DbHandle, ServiceError> {
        self.timed_update(|| self.catalog.update_with(name, touch))
    }

    /// Register `db` under `name` (freezes and pre-warms it).
    pub fn register(&self, name: &str, db: Database) -> Result<DbHandle, ServiceError> {
        Ok(self.catalog.register(name, db)?)
    }

    /// Append rows to a relation — copy-on-write: bumps the entry
    /// version and only the touched relation's generation; running
    /// sessions finish on their snapshot.
    pub fn append_rows(
        &self,
        name: &str,
        rel: &str,
        rows: Vec<Tuple>,
    ) -> Result<DbHandle, ServiceError> {
        self.timed_update(|| self.catalog.append_rows(name, rel, rows))
    }

    /// Replace a relation's contents — copy-on-write, like
    /// [`MqService::append_rows`].
    pub fn replace_relation(
        &self,
        name: &str,
        rel: &str,
        rows: Vec<Tuple>,
    ) -> Result<DbHandle, ServiceError> {
        self.timed_update(|| self.catalog.replace_relation(name, rel, rows))
    }

    /// Open a session pinned to the current snapshot of `name`, with no
    /// budget.
    pub fn session(&self, name: &str) -> Result<Session<'_>, ServiceError> {
        self.session_with_budget(name, SessionBudget::default())
    }

    /// Open a budgeted session pinned to the current snapshot of `name`.
    pub fn session_with_budget(
        &self,
        name: &str,
        budget: SessionBudget,
    ) -> Result<Session<'_>, ServiceError> {
        Ok(Session {
            service: self,
            handle: self.catalog.snapshot(name)?,
            budget,
        })
    }

    /// Answer `req` against the **current** snapshot of its database
    /// (one-shot convenience; open a [`Session`] to pin a snapshot
    /// across several queries).
    pub fn query(&self, req: &MetaqueryRequest) -> Result<QueryOutcome, ServiceError> {
        let handle = self.catalog.snapshot(&req.db)?;
        self.query_at(&handle, req)
    }

    /// Answer `req` against an explicit snapshot. Identical concurrent
    /// requests (same snapshot version) coalesce onto one search.
    pub fn query_at(
        &self,
        handle: &DbHandle,
        req: &MetaqueryRequest,
    ) -> Result<QueryOutcome, ServiceError> {
        self.m.requests.inc();
        // Adopt the caller's trace request id (the net layer scopes the
        // connection thread before dispatching); mint one for direct
        // library callers so their spans assemble too.
        let ambient = trace::current_request();
        let req_id = if ambient != 0 {
            ambient
        } else {
            mq_obs::next_request_id()
        };
        let _scope = (ambient == 0).then(|| trace::request_scope(req_id));
        // Parse before joining the dedup table so malformed requests
        // fail fast without occupying a slot.
        let mq = parse_metaquery(&req.metaquery).map_err(|e| ServiceError::Parse(e.to_string()))?;
        let key = RequestKey {
            db: handle.name().to_string(),
            version: handle.version(),
            metaquery: req.metaquery.clone(),
            ty: req.ty,
            thresholds: req.thresholds,
            max_answers: req.max_answers,
            max_wall_ms: req.max_wall_ms,
        };
        let mut retries = 0u32;
        loop {
            let join_start = trace::now_ns();
            match self.inflight.join(key.clone()) {
                Joined::Owner(ticket) => {
                    let result = self.run_search(handle, &mq, req, req_id);
                    let result = ticket.publish(result);
                    return result.map(|c| QueryOutcome {
                        answers: c.answers,
                        db_version: c.db_version,
                        shared: false,
                        memo: c.memo,
                        req_id,
                    });
                }
                Joined::Shared(result) => {
                    // The join blocked until the owner published — that
                    // wait is this follower's whole service time.
                    let waited = trace::now_ns().saturating_sub(join_start);
                    self.m.deduped.inc();
                    self.m.follower_wait_ns.observe_ns(waited);
                    trace::record_span(trace::REQ_DEDUP_WAIT, req_id, join_start, waited);
                    return result.map(|c| QueryOutcome {
                        answers: c.answers,
                        db_version: c.db_version,
                        shared: true,
                        memo: c.memo,
                        req_id,
                    });
                }
                // The owner dropped its slot without publishing (it was
                // killed between joining and finishing — publish-side
                // panics are caught and published as errors, so this is
                // rare). Back off and re-join; give up after the
                // configured number of wakeups rather than spinning on a
                // crash-looping owner forever.
                Joined::Retry => {
                    self.m.dedup_retries.inc();
                    retries += 1;
                    if retries >= self.retry.max_attempts {
                        return Err(ServiceError::RetriesExhausted { attempts: retries });
                    }
                    std::thread::sleep(self.retry.backoff(retries));
                }
            }
        }
    }

    /// Execute one search under admission control, with a fresh memo
    /// service.
    fn run_search(
        &self,
        handle: &DbHandle,
        mq: &mq_core::ast::Metaquery,
        req: &MetaqueryRequest,
        req_id: u64,
    ) -> SearchResult {
        let wait_start = trace::now_ns();
        let _permit = {
            let _span = trace::SpanGuard::start_always(trace::REQ_ADMISSION);
            self.gate.acquire()
        };
        self.m
            .admission_wait_ns
            .observe_ns(trace::now_ns().saturating_sub(wait_start));
        self.m.executed.inc();
        let memos = Arc::new(SharedMemos::new());
        // Always-on totals are two relaxed increments per node; per-node
        // detail only when someone will read it (tracing on, or the
        // slow-query log armed).
        let detailed = mq_obs::trace_enabled() || mq_obs::slow_ms().is_some();
        let profile = Arc::new(if detailed {
            SearchProfile::detailed()
        } else {
            SearchProfile::new()
        });
        let search_start = trace::now_ns();
        // Panic isolation boundary: a panic anywhere inside the search
        // (engine bug, injected `search.panic` fault — worker panics
        // propagate here through the scope join) becomes an error the
        // owner *publishes*, so every coalesced follower shares it
        // instead of retrying a search that would panic again.
        // `AssertUnwindSafe` is sound: the search mutates only state
        // owned by this call (the memo service tolerates abandoned
        // in-flight entries), and on `Err` nothing from the closure is
        // reused.
        let searched = catch_unwind(AssertUnwindSafe(|| {
            let _span = trace::SpanGuard::start_always(trace::SEARCH_RUN);
            self.search_panic.maybe_panic();
            find_rules_instrumented(
                handle.database(),
                mq,
                req.ty,
                req.thresholds,
                Some(Arc::clone(&memos)),
                req.max_wall_ms,
                Some(Arc::clone(&profile)),
                req_id,
            )
        }));
        let wall_ns = trace::now_ns().saturating_sub(search_start);
        self.m.search_wall_ns.observe_ns(wall_ns);
        // Drain the profile's always-on totals into the service
        // families (worker executors flushed on drop, panic or not).
        self.m
            .sched_tasks
            .add(profile.tasks.load(Ordering::Relaxed));
        self.m
            .exec_nodes
            .add(profile.node_execs.load(Ordering::Relaxed));
        self.m
            .exec_memo_hits
            .add(profile.node_memo_hits.load(Ordering::Relaxed));
        self.log_if_slow(handle, req, req_id, wall_ns, &profile, &memos);
        let searched = match searched {
            Ok(r) => r,
            Err(payload) => {
                self.m.panics_caught.inc();
                return Err(ServiceError::SearchPanicked(panic_message(&*payload)));
            }
        };
        if matches!(&searched, Err(InstError::DeadlineExceeded { .. })) {
            self.m.deadline_exceeded.inc();
        }
        match searched {
            Ok(mut answers) => {
                if let Some(limit) = req.max_answers {
                    answers.truncate(limit);
                }
                let memo = memos.stats();
                self.m.memo_hits.add(memo.hits);
                self.m.memo_misses.add(memo.misses);
                Ok(CompletedSearch {
                    answers: Arc::new(answers),
                    db_version: handle.version(),
                    memo,
                })
            }
            Err(e) => Err(ServiceError::Engine(e)),
        }
    }

    /// Append a slow-query entry when the log is armed and `wall_ns`
    /// crosses the threshold (panicked/errored searches included — a
    /// slow failure is still a slow query).
    fn log_if_slow(
        &self,
        handle: &DbHandle,
        req: &MetaqueryRequest,
        req_id: u64,
        wall_ns: u64,
        profile: &SearchProfile,
        memos: &SharedMemos,
    ) {
        let Some(thresh_ms) = mq_obs::slow_ms() else {
            return;
        };
        let wall_ms = wall_ns / 1_000_000;
        if wall_ms < thresh_ms {
            return;
        }
        let nodes = profile
            .top_nodes(SLOWLOG_TOP_NODES)
            .into_iter()
            .map(|(id, stat)| {
                let label = memos
                    .describe_plan_node(PlanNodeId(id as u32))
                    .unwrap_or_else(|| format!("node#{id}"));
                (id, label, stat)
            })
            .collect();
        let mut log = lock_recover(&self.slowlog);
        if log.len() >= SLOWLOG_CAP {
            log.pop_front();
        }
        log.push_back(SlowQuery {
            req_id,
            db: handle.name().to_string(),
            metaquery: req.metaquery.clone(),
            wall_ms,
            nodes,
        });
    }

    /// Snapshot of the service counters (reads the registry handles).
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            requests: self.m.requests.get(),
            executed: self.m.executed.get(),
            deduped: self.m.deduped.get(),
            panics_caught: self.m.panics_caught.get(),
            deadline_exceeded: self.m.deadline_exceeded.get(),
            memo: MemoStats {
                hits: self.m.memo_hits.get(),
                misses: self.m.memo_misses.get(),
            },
        }
    }

    /// Zero hit/miss counters for registered database `name`, and an
    /// error for an unknown one. The service keeps no cross-search atom
    /// cache any more: a search's atoms are handles onto its snapshot's
    /// relations, which share columns and indexes across searches and
    /// untouched updates. The method stays for callers built against the
    /// old cache, which now read a zero hit rate.
    pub fn atom_cache_stats(&self, name: &str) -> Result<MemoStats, ServiceError> {
        self.catalog.snapshot(name)?;
        Ok(MemoStats::default())
    }
}

impl Default for MqService {
    fn default() -> Self {
        Self::new()
    }
}

/// A session pinned to one database snapshot, with a per-session budget.
/// Queries issued through the session are snapshot-consistent: catalog
/// updates published after the session opened are invisible to it.
pub struct Session<'s> {
    service: &'s MqService,
    handle: DbHandle,
    budget: SessionBudget,
}

impl Session<'_> {
    /// The pinned snapshot.
    pub fn handle(&self) -> &DbHandle {
        &self.handle
    }

    /// The snapshot version this session is pinned to.
    pub fn db_version(&self) -> u64 {
        self.handle.version()
    }

    /// Answer a metaquery against the pinned snapshot, under the
    /// session's budget.
    pub fn query(
        &self,
        metaquery: &str,
        ty: InstType,
        thresholds: Thresholds,
    ) -> Result<QueryOutcome, ServiceError> {
        let req = MetaqueryRequest {
            db: self.handle.name().to_string(),
            metaquery: metaquery.to_string(),
            ty,
            thresholds,
            max_answers: self.budget.max_answers,
            max_wall_ms: self.budget.max_wall_ms,
        };
        self.service.query_at(&self.handle, &req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_core::engine::find_rules::find_rules;
    use mq_relation::ints;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        let q = db.add_relation("q", 2);
        for i in 0..6i64 {
            db.insert(p, ints(&[i, i + 1]));
            db.insert(q, ints(&[i + 1, i + 2]));
        }
        db
    }

    const MQ: &str = "R(X,Z) <- P(X,Y), Q(Y,Z)";

    #[test]
    fn query_matches_direct_find_rules() {
        let svc = MqService::new();
        let db = sample_db();
        svc.register("tele", db.clone()).unwrap();
        let out = svc.query(&MetaqueryRequest::new("tele", MQ)).unwrap();
        let direct = find_rules(
            &db,
            &parse_metaquery(MQ).unwrap(),
            InstType::Zero,
            Thresholds::none(),
        )
        .unwrap();
        assert_eq!(*out.answers, direct);
        assert_eq!(out.db_version, 1);
        assert!(!out.shared);
        let m = svc.metrics();
        assert_eq!((m.requests, m.executed, m.deduped), (1, 1, 0));
    }

    #[test]
    fn parse_and_lookup_errors_fail_fast() {
        let svc = MqService::new();
        svc.register("tele", sample_db()).unwrap();
        assert!(matches!(
            svc.query(&MetaqueryRequest::new("nope", MQ)).unwrap_err(),
            ServiceError::Catalog(CatalogError::UnknownDb(_))
        ));
        assert!(matches!(
            svc.query(&MetaqueryRequest::new("tele", "not a metaquery"))
                .unwrap_err(),
            ServiceError::Parse(_)
        ));
        assert!(svc.inflight.is_empty());
    }

    #[test]
    fn session_budget_truncates_sorted_answers() {
        let svc = MqService::new();
        let db = sample_db();
        svc.register("tele", db.clone()).unwrap();
        let full = svc.query(&MetaqueryRequest::new("tele", MQ)).unwrap();
        assert!(full.answers.len() > 2);
        let sess = svc
            .session_with_budget(
                "tele",
                SessionBudget {
                    max_answers: Some(2),
                    ..SessionBudget::default()
                },
            )
            .unwrap();
        let limited = sess.query(MQ, InstType::Zero, Thresholds::none()).unwrap();
        assert_eq!(limited.answers.len(), 2);
        assert_eq!(&limited.answers[..], &full.answers[..2]);
    }

    #[test]
    fn admission_control_still_answers_everything() {
        let svc = Arc::new(MqService::with_config(ServiceConfig {
            max_concurrent: 1,
            ..ServiceConfig::default()
        }));
        let db = sample_db();
        svc.register("tele", db.clone()).unwrap();
        let expected = find_rules(
            &db,
            &parse_metaquery(MQ).unwrap(),
            InstType::Zero,
            Thresholds::none(),
        )
        .unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let svc = Arc::clone(&svc);
                let expected = expected.clone();
                s.spawn(move || {
                    let out = svc.query(&MetaqueryRequest::new("tele", MQ)).unwrap();
                    assert_eq!(*out.answers, expected);
                });
            }
        });
        let m = svc.metrics();
        assert_eq!(m.requests, 4);
        assert_eq!(m.executed + m.deduped, 4);
        assert!(m.executed >= 1);
    }

    #[test]
    fn zero_wall_budget_surfaces_deadline_error() {
        let svc = MqService::new();
        svc.register("tele", sample_db()).unwrap();
        let req = MetaqueryRequest {
            max_wall_ms: Some(0),
            ..MetaqueryRequest::new("tele", MQ)
        };
        let err = svc.query(&req).unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::Engine(InstError::DeadlineExceeded { budget_ms: 0 })
            ),
            "want deadline error, got {err:?}"
        );
        assert_eq!(svc.metrics().deadline_exceeded, 1);
        // A generous budget answers normally (and is a distinct dedup
        // identity from the expired request).
        let ok = svc
            .query(&MetaqueryRequest {
                max_wall_ms: Some(60_000),
                ..MetaqueryRequest::new("tele", MQ)
            })
            .unwrap();
        assert!(!ok.answers.is_empty());
    }

    // NOTE: fault-plan injection tests (search.panic isolation, chaos
    // byte-identity) live in `tests/chaos.rs`: `set_plan_override` is
    // process-global, so they serialize behind a lock in their own test
    // binary instead of racing this crate's unit tests.

    #[test]
    fn session_pins_snapshot_across_updates() {
        let svc = MqService::new();
        let db = sample_db();
        svc.register("tele", db.clone()).unwrap();
        let sess = svc.session("tele").unwrap();
        // Update lands after the session opened.
        svc.append_rows("tele", "p", vec![ints(&[50, 0])]).unwrap();
        let pinned = sess.query(MQ, InstType::Zero, Thresholds::none()).unwrap();
        let old_expected = find_rules(
            &db,
            &parse_metaquery(MQ).unwrap(),
            InstType::Zero,
            Thresholds::none(),
        )
        .unwrap();
        assert_eq!(*pinned.answers, old_expected, "session sees its snapshot");
        assert_eq!(pinned.db_version, 1);
        // A fresh query sees the update.
        let fresh = svc.query(&MetaqueryRequest::new("tele", MQ)).unwrap();
        assert_eq!(fresh.db_version, 2);
        assert_ne!(*fresh.answers, old_expected);
    }
}
