//! Per-layer probes for the traced run. Everything here calls a layer's
//! public functions or reads an instrument the program already has
//! (`SearchProfile`, `SharedMemos::stats`, the span rings); the
//! benchmark adds no tracing inside the program.

use crate::measure::{median, percentile, sorted};
use mq_core::engine::find_rules::{body_decomposition, find_rules_instrumented};
use mq_core::engine::memo::SharedMemos;
use mq_core::instantiate::InstError;
use mq_core::plan::PlanNodeId;
use mq_core::prelude::*;
use mq_obs::trace::SpanEvent;
use mq_obs::SearchProfile;
use mq_relation::hashjoin::GroupIndex;
use mq_relation::{Bindings, Database, Term, VarId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric a traced run prints, with its unit, in print
/// order. A layer a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("algebra.join_on.rows_per_s", "rows/s"),
    ("algebra.semijoin_on.rows_per_s", "rows/s"),
    ("algebra.project.rows_per_s", "rows/s"),
    ("algebra.count_distinct.rows_per_s", "rows/s"),
    ("hashjoin.group_index_build.rows_per_s", "rows/s"),
    ("exec.scan.self_ms", "ms"),
    ("exec.hashjoin.self_ms", "ms"),
    ("exec.semijoin.self_ms", "ms"),
    ("exec.project.self_ms", "ms"),
    ("exec.node_execs_per_search", "count"),
    ("exec.project.noop_ratio", "ratio"),
    ("exec.profiled_share", "ratio"),
    ("exec.rows_in_per_answer", "rows"),
    ("plan.nodes_per_search", "count"),
    ("hypertree.decompose_ms", "ms"),
    ("memo.hit_ratio", "ratio"),
    ("memo.misses_per_search", "count"),
    ("memo.atom_cache_hit_ratio", "ratio"),
    ("parallel.tasks_per_search", "count"),
    ("parallel.task_p50_us", "us"),
    ("parallel.busy_ratio", "ratio"),
    ("session.admission_wait_p99_us", "us"),
    ("session.search_p50_ms", "ms"),
    ("session.search_p99_ms", "ms"),
    ("dedup.wait_p99_us", "us"),
    ("dedup.share", "ratio"),
    ("net.serve_p50_ms", "ms"),
    ("net.write_p99_us", "us"),
    ("net.unattributed_p50_us", "us"),
    ("net.rtt_mean_us", "us"),
    ("net.admission_mean_us", "us"),
    ("net.dedup_wait_mean_us", "us"),
    ("net.search_mean_us", "us"),
    ("net.protocol_mean_us", "us"),
    ("net.write_mean_us", "us"),
    ("net.unattributed_mean_us", "us"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_p90_ms", "ms"),
    ("catalog.update_p50_ms", "ms"),
    ("catalog.freeze_p50_ms", "ms"),
    ("process.peak_rss_mb", "MiB"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.incomplete_span_sets", "count"),
    ("obs.traced_requests", "count"),
];

/// Per-layer values measured so far, by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// One timed kernel call: `(input rows, time)`.
type Kernel<'a> = dyn Fn() -> (usize, Duration) + 'a;

/// Throughput of each public kernel on two instantiated atoms of the
/// workload's own database, `left(X,Y)` and `right(Y,Z)`, at their fixed
/// sizes. Operands are rebuilt outside the clock before every timed call,
/// so cached group indexes never hide a build.
pub fn kernel_rates(
    db: &Database,
    left: &str,
    right: &str,
    budget: Duration,
    out: &mut LayerValues,
) {
    let (x, y, z) = (VarId(0), VarId(1), VarId(2));
    let (lrel, rrel) = (db.rel(left), db.rel(right));
    let lterms = [Term::Var(x), Term::Var(y)];
    let rterms = [Term::Var(y), Term::Var(z)];
    let fresh = || {
        (
            Bindings::from_atom(lrel, &lterms),
            Bindings::from_atom(rrel, &rterms),
        )
    };
    let (l, r) = fresh();
    let joined = l.join_on(&r, &[y]);
    let kernels: [(&'static str, &Kernel); 5] = [
        ("algebra.join_on.rows_per_s", &|| {
            let (l, r) = fresh();
            let t = Instant::now();
            black_box(l.join_on(&r, &[y]).len());
            (l.len() + r.len(), t.elapsed())
        }),
        ("algebra.semijoin_on.rows_per_s", &|| {
            let (l, r) = fresh();
            let t = Instant::now();
            black_box(l.semijoin_on(&r, &[y]).len());
            (l.len() + r.len(), t.elapsed())
        }),
        ("algebra.project.rows_per_s", &|| {
            let t = Instant::now();
            black_box(joined.project(&[x, z]).len());
            (joined.len(), t.elapsed())
        }),
        ("algebra.count_distinct.rows_per_s", &|| {
            let t = Instant::now();
            black_box(joined.count_distinct(&[x, z]));
            (joined.len(), t.elapsed())
        }),
        ("hashjoin.group_index_build.rows_per_s", &|| {
            let (l, _) = fresh();
            let cols = l.columnar();
            let t = Instant::now();
            black_box(GroupIndex::build_columnar(cols, &[1]).num_groups());
            (l.len(), t.elapsed())
        }),
    ];
    for (name, kernel) in kernels {
        let start = Instant::now();
        let mut rates = Vec::new();
        while rates.len() < 5 || start.elapsed() < budget {
            let (rows, dt) = kernel();
            rates.push(rows as f64 / dt.as_secs_f64().max(1e-9));
        }
        out.insert(name, median(&rates));
    }
}

/// Median wall time of `find_rules::body_decomposition`, averaged over
/// the metaqueries of a rotation (each entry counted as often as it
/// occurs).
pub fn decompose_ms(rotation: &[&Metaquery], reps: usize) -> f64 {
    let per_mq: Vec<f64> = rotation
        .iter()
        .map(|mq| {
            let times: Vec<f64> = (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    black_box(body_decomposition(mq).width);
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&times)
        })
        .collect();
    per_mq.iter().sum::<f64>() / per_mq.len().max(1) as f64
}

/// What one detailed-profile search recorded.
#[derive(Debug, Default)]
pub struct SearchSample {
    wall_ns: u64,
    answers: usize,
    /// Self time by operator kind: scan, hashjoin, semijoin, project.
    self_ns: [u64; 4],
    node_execs: u64,
    project_execs: u64,
    project_noop_execs: u64,
    rows_in: u64,
    plan_nodes: usize,
    memo_hits: u64,
    memo_misses: u64,
    tasks: u64,
    task_ns: Vec<u64>,
    complete: bool,
}

impl SearchSample {
    /// Wall time of the search call, milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    /// Worker time spent on the search: the scheduler tasks' spans, or
    /// the whole call when it ran as one sequential task.
    fn busy_ns(&self) -> u64 {
        if self.tasks <= 1 {
            self.wall_ns
        } else {
            self.task_ns.iter().sum()
        }
    }
}

const KINDS: [&str; 4] = ["scan(", "hashjoin(", "semijoin(", "project("];

/// One search through `find_rules_instrumented` with an owned memo
/// service, a detailed profile and its own request id; its spans are
/// collected from the rings right after it returns.
pub fn profiled_search(
    db: &Database,
    mq: &Metaquery,
    ty: InstType,
    th: Thresholds,
) -> Result<(Vec<MqAnswer>, SearchSample), InstError> {
    let req = mq_obs::next_request_id();
    let memos = Arc::new(SharedMemos::new());
    let profile = Arc::new(SearchProfile::detailed());
    let t = Instant::now();
    let answers = find_rules_instrumented(
        db,
        mq,
        ty,
        th,
        Some(Arc::clone(&memos)),
        None,
        Some(Arc::clone(&profile)),
        req,
    )?;
    let wall_ns = t.elapsed().as_nanos() as u64;
    let spans = mq_obs::trace::collect_request(req);
    let mut s = SearchSample {
        wall_ns,
        answers: answers.len(),
        node_execs: profile.node_execs.load(Ordering::Relaxed),
        tasks: profile.tasks.load(Ordering::Relaxed),
        ..SearchSample::default()
    };
    for (id, st) in profile.nodes_snapshot().iter().enumerate() {
        if st.execs == 0 {
            continue;
        }
        s.rows_in += st.rows_in;
        let label = memos
            .describe_plan_node(PlanNodeId(id as u32))
            .unwrap_or_default();
        if let Some(k) = KINDS.iter().position(|p| label.starts_with(p)) {
            s.self_ns[k] += st.wall_ns;
        }
        if label.starts_with("project(") {
            s.project_execs += st.execs;
            // A projection never adds rows, so equal totals mean every
            // execution of the node removed nothing.
            if st.rows_in == st.rows_out {
                s.project_noop_execs += st.execs;
            }
        }
    }
    s.plan_nodes = (0u32..)
        .take_while(|&i| memos.describe_plan_node(PlanNodeId(i)).is_some())
        .count();
    let memo = memos.stats();
    (s.memo_hits, s.memo_misses) = (memo.hits, memo.misses);
    s.task_ns = spans_named(&spans, "sched.task");
    // The sequential fallback runs as one task with no `sched.task` span.
    s.complete = s.tasks <= 1 || s.task_ns.len() as u64 == s.tasks;
    Ok((answers, s))
}

/// Durations (ns) of the spans called `name`.
pub fn spans_named(spans: &[SpanEvent], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.dur_ns)
        .collect()
}

/// Fold detailed-profile searches into the executor, planner, memo and
/// scheduler metrics.
pub fn search_layers(samples: &[SearchSample], out: &mut LayerValues) {
    let med = |f: &dyn Fn(&SearchSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    for (k, name) in [
        "exec.scan.self_ms",
        "exec.hashjoin.self_ms",
        "exec.semijoin.self_ms",
        "exec.project.self_ms",
    ]
    .into_iter()
    .enumerate()
    {
        out.insert(name, med(&|s| s.self_ns[k] as f64 / 1e6));
    }
    out.insert("exec.node_execs_per_search", med(&|s| s.node_execs as f64));
    let (noop, projects) = samples.iter().fold((0, 0), |(n, p), s| {
        (n + s.project_noop_execs, p + s.project_execs)
    });
    out.insert("exec.project.noop_ratio", ratio(noop, projects));
    out.insert(
        "exec.rows_in_per_answer",
        med(&|s| s.rows_in as f64 / s.answers.max(1) as f64),
    );
    out.insert("plan.nodes_per_search", med(&|s| s.plan_nodes as f64));
    let (hits, misses) = samples
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.memo_hits, m + s.memo_misses));
    out.insert("memo.hit_ratio", ratio(hits, hits + misses));
    out.insert("memo.misses_per_search", med(&|s| s.memo_misses as f64));
    out.insert("parallel.tasks_per_search", med(&|s| s.tasks as f64));
    let tasks = sorted(
        samples
            .iter()
            .flat_map(|s| s.task_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect(),
    );
    out.insert(
        "parallel.task_p50_us",
        percentile(&tasks, 0.5).unwrap_or(0.0),
    );
    let workers = rayon::current_num_threads() as u64;
    let busy: u64 = samples.iter().map(SearchSample::busy_ns).sum();
    let capacity: u64 = samples.iter().map(|s| s.wall_ns * workers).sum();
    out.insert("parallel.busy_ratio", ratio(busy, capacity));
    let profiled: u64 = samples.iter().map(|s| s.self_ns.iter().sum::<u64>()).sum();
    out.insert("exec.profiled_share", ratio(profiled, busy));
    let incomplete = samples.iter().filter(|s| !s.complete).count();
    *out.entry("obs.incomplete_span_sets").or_default() += incomplete as f64;
    *out.entry("obs.traced_requests").or_default() += samples.len() as f64;
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Traced `latency_p50_ms` against the untraced one, in percent.
pub fn trace_overhead_pct(untraced_p50: f64, traced_p50: f64) -> f64 {
    (traced_p50 - untraced_p50) / untraced_p50 * 100.0
}

/// Forces tracing on for its lifetime; restores the environment default
/// (`set_trace_override(None)`) on drop, error paths included.
pub struct TracingOn;

impl TracingOn {
    /// Turn tracing on.
    pub fn new() -> TracingOn {
        mq_obs::set_trace_override(Some(true));
        TracingOn
    }
}

impl Drop for TracingOn {
    fn drop(&mut self) {
        mq_obs::set_trace_override(None);
    }
}
