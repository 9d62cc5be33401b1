//! The `serve_mixed` workload: an in-process `NetServer` on loopback and
//! two client connections in closed loops. Connection 0 sends an
//! `append` as every tenth request; all other requests are a seeded
//! rotation of `mine` requests over one catalog database.

use crate::inputs::{self, AppendBatches, MineRequest, RequestStream, SERVE_APPEND_REL, SERVE_DB};
use crate::layers::{self, LayerValues, TracingOn};
use crate::measure::{self, median, percentile, sorted, supported, Ledger, Report};
use crate::mine::{push_layers, SETUP_REPS, TAIL_Q};
use mq_core::engine::find_rules::find_rules_seq;
use mq_core::prelude::*;
use mq_obs::trace::{collect_request, SpanEvent};
use mq_relation::Database;
use mq_service::{MqService, NetConfig, NetServer};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (never more than the box's cores).
const CONNECTIONS: usize = 2;

/// The rule lines `find_rules_seq` gives `req` over `db`, rendered as
/// the protocol renders an `ok mine` block.
fn expected_lines(db: &Database, req: &MineRequest) -> Result<Vec<String>, String> {
    let mq = parse_metaquery(req.metaquery).map_err(|e| e.to_string())?;
    let answers = find_rules_seq(db, &mq, req.ty, req.th).map_err(|e| e.to_string())?;
    answers
        .iter()
        .map(|a| {
            let rule = apply_instantiation(db, &mq, &a.inst).map_err(|e| e.to_string())?;
            Ok(format!(
                "rule {} sup={} cvr={} cnf={}",
                rule.render(db),
                a.indices.sup,
                a.indices.cvr,
                a.indices.cnf
            ))
        })
        .collect()
}

fn digest(lines: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    lines.hash(&mut h);
    h.finish()
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Send one request line and read its whole reply block.
    fn exchange(&mut self, request: &str) -> Result<Vec<String>, String> {
        self.stream
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let first = self.read_line()?;
        let n = parse_mine_header(&first).map_or(0, |h| h.answers);
        let mut block = Vec::with_capacity(n + 1);
        block.push(first);
        for _ in 0..n {
            block.push(self.read_line()?);
        }
        Ok(block)
    }

    fn quit(mut self) {
        let _ = self.stream.write_all(b"quit\n");
    }
}

/// The fields of an `ok mine N answer(s) version=V [deduped] req=ID` header.
#[derive(Debug, PartialEq, Eq)]
struct MineHeader {
    answers: usize,
    version: u64,
    deduped: bool,
    req: u64,
}

fn parse_mine_header(line: &str) -> Option<MineHeader> {
    let mut words = line.strip_prefix("ok mine ")?.split_whitespace();
    let answers = words.next()?.parse().ok()?;
    let (mut version, mut deduped, mut req) = (None, false, None);
    for w in words {
        if let Some(v) = w.strip_prefix("version=") {
            version = v.parse().ok();
        } else if let Some(r) = w.strip_prefix("req=") {
            req = r.parse().ok();
        } else if w == "deduped" {
            deduped = true;
        }
    }
    Some(MineHeader {
        answers,
        version: version?,
        deduped,
        req: req?,
    })
}

/// `(version, rows)` of an `ok update <db> version=V <rel> rows=N generation=G` reply.
fn parse_update_reply(line: &str) -> Option<(u64, usize)> {
    let rest = line.strip_prefix("ok update ")?;
    let field = |key: &str| rest.split_whitespace().find_map(|w| w.strip_prefix(key));
    Some((
        field("version=")?.parse().ok()?,
        field("rows=")?.parse().ok()?,
    ))
}

/// A served database ready for load.
struct Served {
    svc: Arc<MqService>,
    server: NetServer,
    base: Database,
    rotation: Vec<MineRequest>,
}

/// Register the database, bind the server, check the rotation's
/// references, and warm up over one connection.
fn prepare(seed: u64) -> Result<Served, String> {
    let base = inputs::serve_db(seed);
    let svc = Arc::new(MqService::new());
    svc.register(SERVE_DB, base.clone())
        .map_err(|e| e.to_string())?;
    let server = NetServer::bind(
        Arc::clone(&svc),
        NetConfig {
            max_connections: 2 * CONNECTIONS,
            ..NetConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let rotation = inputs::serve_rotation();
    let mut conn = Conn::connect(server.local_addr())?;
    for r in &rotation {
        let expected = expected_lines(&base, r)?;
        if expected.is_empty() {
            return Err(format!("`{}` answers nothing at version 1", r.line));
        }
        let block = conn.exchange(&r.line)?;
        let header =
            parse_mine_header(&block[0]).ok_or_else(|| format!("warm-up: {}", block[0]))?;
        if header.version != 1 || block[1..] != expected[..] {
            return Err(format!("warm-up `{}` differs from find_rules_seq", r.line));
        }
    }
    conn.quit();
    Ok(Served {
        svc,
        server,
        base,
        rotation,
    })
}

/// One `mine` reply as observed by a client.
struct MineObs {
    rotation: usize,
    version: u64,
    answers: usize,
    digest: u64,
    deduped: bool,
    rtt_ns: u64,
    /// Completion time, nanoseconds since the phase started.
    done_ns: u64,
    spans: Option<MineSpans>,
}

/// The span-derived parts of one traced `mine` request.
struct MineSpans {
    /// The round trip split into admission, dedup wait, search, the rest
    /// of `req.serve` (parsing and rendering), and the reply write.
    ledger: Ledger,
    serve_ns: u64,
    admission_ns: Vec<u64>,
    search_ns: Vec<u64>,
    dedup_wait_ns: Vec<u64>,
    complete: bool,
}

/// One `append` reply.
struct AppendObs {
    batch: Vec<(i64, i64)>,
    version: u64,
    rows: usize,
    rtt_ns: u64,
    update_ns: Vec<u64>,
    freeze_ns: Vec<u64>,
    complete: bool,
}

#[derive(Default)]
struct ConnLog {
    mines: Vec<MineObs>,
    appends: Vec<AppendObs>,
    attempted: u64,
    failed: u64,
}

/// Collect a request's spans, retrying briefly while `done` says the
/// set is still incomplete (the reply write is recorded by the server's
/// writer thread, which may finish after the client has read the reply).
fn collect_until(req: u64, done: impl Fn(&[SpanEvent]) -> bool) -> (Vec<SpanEvent>, bool) {
    for _ in 0..50 {
        let spans = collect_request(req);
        if done(&spans) {
            return (spans, true);
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    (collect_request(req), false)
}

fn has(spans: &[SpanEvent], name: &str) -> bool {
    spans.iter().any(|e| e.name == name)
}

fn mine_spans(req: u64, rtt_ns: u64) -> MineSpans {
    let (spans, complete) = collect_until(req, |s| {
        has(s, "req.serve")
            && has(s, "req.write")
            && (has(s, "search.run") || has(s, "req.dedup.wait"))
    });
    let named = |n| layers::spans_named(&spans, n);
    let sum = |n| named(n).iter().sum::<u64>();
    let serve_ns = sum("req.serve");
    let inner = [
        ("admission", sum("req.admission")),
        ("dedup_wait", sum("req.dedup.wait")),
        ("search", sum("search.run")),
    ];
    let protocol = serve_ns.saturating_sub(inner.iter().map(|p| p.1).sum());
    let mut parts = inner.to_vec();
    parts.extend([("protocol", protocol), ("write", sum("req.write"))]);
    MineSpans {
        ledger: Ledger {
            total_ns: rtt_ns,
            parts,
        },
        serve_ns,
        admission_ns: named("req.admission"),
        search_ns: named("search.run"),
        dedup_wait_ns: named("req.dedup.wait"),
        complete,
    }
}

/// Find the request id of the append this connection just sent: the
/// only id after `after` (and before a freshly minted probe id) whose
/// spans include a catalog update.
fn append_spans(after: u64, obs: &mut AppendObs) -> u64 {
    let probe = mq_obs::next_request_id();
    for req in after + 1..probe {
        if !has(&collect_request(req), "catalog.update") {
            continue;
        }
        let (spans, complete) = collect_until(req, |s| has(s, "req.write"));
        obs.update_ns = layers::spans_named(&spans, "catalog.update");
        obs.freeze_ns = layers::spans_named(&spans, "catalog.freeze");
        obs.complete = complete && !obs.freeze_ns.is_empty();
        return req;
    }
    after
}

/// Drive connection `c` until `stop` says the phase is over.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    seed: u64,
    c: usize,
    rotation: &[MineRequest],
    traced: bool,
    start: Instant,
    stop: &dyn Fn() -> bool,
    mines_done: &AtomicUsize,
) -> Result<ConnLog, String> {
    let mut conn = Conn::connect(addr)?;
    let mut log = ConnLog::default();
    let mut batches = AppendBatches::new(seed);
    // Any id this connection's requests get is above this one.
    let mut last_req = mq_obs::next_request_id();
    for item in RequestStream::new(seed, c, rotation) {
        if stop() {
            break;
        }
        log.attempted += 1;
        let batch = item
            .is_none()
            .then(|| batches.next().expect("endless batches"));
        let line = match (item, &batch) {
            (Some(i), _) => rotation[i].line.clone(),
            (None, b) => inputs::append_line(b.as_deref().unwrap_or_default()),
        };
        let t = Instant::now();
        let block = conn.exchange(&line)?;
        let rtt_ns = t.elapsed().as_nanos() as u64;
        match item {
            Some(i) => {
                let Some(h) = parse_mine_header(&block[0]) else {
                    log.failed += 1;
                    eprintln!("perfbench: `{line}` answered {}", block[0]);
                    continue;
                };
                last_req = last_req.max(h.req);
                mines_done.fetch_add(1, Ordering::Relaxed);
                log.mines.push(MineObs {
                    rotation: i,
                    version: h.version,
                    answers: h.answers,
                    digest: digest(&block[1..]),
                    deduped: h.deduped,
                    rtt_ns,
                    done_ns: start.elapsed().as_nanos() as u64,
                    spans: traced.then(|| mine_spans(h.req, rtt_ns)),
                });
            }
            None => {
                let Some((version, rows)) = parse_update_reply(&block[0]) else {
                    log.failed += 1;
                    eprintln!("perfbench: `{line}` answered {}", block[0]);
                    continue;
                };
                let mut obs = AppendObs {
                    batch: batch.unwrap_or_default(),
                    version,
                    rows,
                    rtt_ns,
                    update_ns: Vec::new(),
                    freeze_ns: Vec::new(),
                    complete: false,
                };
                if traced {
                    last_req = append_spans(last_req, &mut obs);
                }
                log.appends.push(obs);
            }
        }
    }
    conn.quit();
    Ok(log)
}

/// One closed-loop phase over both connections.
struct Phase {
    mines: Vec<MineObs>,
    appends: Vec<AppendObs>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    cpu_s: f64,
}

/// Drive both connections for `seconds`; with `need_tail`, on until the
/// tail percentile is supported (at most three times as long).
fn run_phase(
    s: &Served,
    seed: u64,
    seconds: f64,
    need_tail: bool,
    traced: bool,
) -> Result<Phase, String> {
    let addr = s.server.local_addr();
    let mines_done = AtomicUsize::new(0);
    let need = if need_tail {
        measure::samples_needed(TAIL_Q)
    } else {
        0
    };
    let cpu0 = measure::cpu_seconds()?;
    let start = Instant::now();
    let stop = || {
        let e = start.elapsed().as_secs_f64();
        e >= 3.0 * seconds || (e >= seconds && mines_done.load(Ordering::Relaxed) >= need)
    };
    let logs: Vec<Result<ConnLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (stop, done, rot) = (&stop, &mines_done, &s.rotation);
                scope.spawn(move || drive(addr, seed, c, rot, traced, start, stop, done))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = measure::cpu_seconds()? - cpu0;
    let mut ph = Phase {
        mines: Vec::new(),
        appends: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s,
        cpu_s,
    };
    for log in logs {
        let log = log?;
        ph.mines.extend(log.mines);
        // Only connection 0 writes, so its appends stay in send order.
        ph.appends.extend(log.appends);
        ph.attempted += log.attempted;
        ph.failed += log.failed;
    }
    Ok(ph)
}

/// Check every reply against `find_rules_seq` over the snapshot version
/// it names. Version `v` is the base database plus the first `v - 1`
/// appended batches, in send order; it is rebuilt locally.
fn check(s: &Served, appends: &[&AppendObs], mines: &[&MineObs]) -> Result<u64, String> {
    let mut mismatches = 0;
    let mut needed: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    for m in mines {
        needed.entry(m.version).or_default().insert(m.rotation);
    }
    for (k, a) in appends.iter().enumerate() {
        let want = 2 + k as u64;
        if a.version != want {
            mismatches += 1;
            eprintln!(
                "perfbench: append answered version {}, expected {want}",
                a.version
            );
        }
        needed.entry(want).or_default();
    }
    let rel = s
        .base
        .rel_id(SERVE_APPEND_REL)
        .ok_or("served db lacks the append relation")?;
    let mut db = s.base.clone();
    let mut version = 1;
    let mut rows_at: BTreeMap<u64, usize> = BTreeMap::new();
    // Appends only add rows, so versions with equally many rows hold
    // equal databases: references are computed once per row count.
    let mut by_rows: BTreeMap<(usize, usize), (usize, u64)> = BTreeMap::new();
    let mut expected: BTreeMap<(u64, usize), (usize, u64)> = BTreeMap::new();
    for (&v, idxs) in &needed {
        while version < v {
            let a = appends
                .get((version - 1) as usize)
                .ok_or_else(|| format!("a reply names version {v}, beyond the appends sent"))?;
            inputs::apply_batch(&mut db, &a.batch);
            version += 1;
        }
        let rows = db.relation(rel).len();
        rows_at.insert(v, rows);
        for &i in idxs {
            let want = match by_rows.get(&(rows, i)) {
                Some(&w) => w,
                None => {
                    let lines = expected_lines(&db, &s.rotation[i])?;
                    let w = (lines.len(), digest(&lines));
                    by_rows.insert((rows, i), w);
                    w
                }
            };
            expected.insert((v, i), want);
        }
    }
    for (k, a) in appends.iter().enumerate() {
        if rows_at.get(&(2 + k as u64)) != Some(&a.rows) {
            mismatches += 1;
            eprintln!("perfbench: append {k} reports {} rows", a.rows);
        }
    }
    for m in mines {
        if expected.get(&(m.version, m.rotation)) != Some(&(m.answers, m.digest)) {
            mismatches += 1;
            eprintln!(
                "perfbench: `{}` at version {} differs from find_rules_seq",
                s.rotation[m.rotation].line, m.version
            );
        }
    }
    Ok(mismatches)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn pct(values: Vec<f64>, q: f64) -> f64 {
    percentile(&sorted(values), q).unwrap_or(0.0)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Run `serve_mixed`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut served: Option<Served> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut old) = served.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        served = Some(prepare(seed)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut s = served.expect("at least one set-up");
    // A traced run splits its time between an untraced and a traced phase.
    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let atoms0 = s
        .svc
        .atom_cache_stats(SERVE_DB)
        .map_err(|e| e.to_string())?;
    let untraced = run_phase(&s, seed, phase_s, !trace, false)?;
    let peak_rss = measure::peak_rss_mb()?;
    let atoms1 = s
        .svc
        .atom_cache_stats(SERVE_DB)
        .map_err(|e| e.to_string())?;
    let traced = if trace {
        let _on = TracingOn::new();
        Some(run_phase(&s, seed, phase_s, false, true)?)
    } else {
        None
    };
    // Correctness, outside the timed phases; the traced phase's appends
    // continue from the untraced phase's last version.
    let phases: Vec<&Phase> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let appends: Vec<&AppendObs> = phases.iter().flat_map(|p| &p.appends).collect();
    let mines: Vec<&MineObs> = phases.iter().flat_map(|p| &p.mines).collect();
    let mismatches = check(&s, &appends, &mines)?;
    let mut report = Report {
        correct: mismatches == 0,
        attempted: untraced.attempted,
        failed: untraced.failed,
        ..Report::default()
    };
    let lat = sorted(untraced.mines.iter().map(|m| ms(m.rtt_ns)).collect());
    let mut by_completion: Vec<&MineObs> = untraced.mines.iter().collect();
    by_completion.sort_by_key(|m| m.done_ns);
    let in_order: Vec<f64> = by_completion.iter().map(|m| ms(m.rtt_ns)).collect();
    if !trace && !supported(lat.len(), TAIL_Q) {
        return Err(format!(
            "only {} mine requests completed: too few for p99",
            lat.len()
        ));
    }
    let p50 = percentile(&lat, 0.5).ok_or("no mine request completed")?;
    let writes: Vec<f64> = untraced.appends.iter().map(|a| ms(a.rtt_ns)).collect();
    eprintln!(
        "perfbench: {} requests ({} mine, {} append) in {:.2}s, {} failed, {} mismatched, \
         error_ratio {}, write_p50_ms {:.3}, write_p90_ms {:.3}",
        untraced.attempted,
        untraced.mines.len(),
        untraced.appends.len(),
        untraced.wall_s,
        untraced.failed,
        mismatches,
        layers::ratio(untraced.failed, untraced.attempted),
        pct(writes.clone(), 0.5),
        pct(writes.clone(), 0.9),
    );
    if !trace {
        let ops = (untraced.mines.len() + untraced.appends.len()) as f64;
        report.push("setup_s", median(&setup_times), "s");
        report.push("latency_p50_ms", p50, "ms");
        report.push(
            "latency_p99_ms",
            measure::segmented_percentile(&in_order, TAIL_Q).expect("supported"),
            "ms",
        );
        report.push(
            "throughput_ops_s",
            lat.len() as f64 / untraced.wall_s,
            "1/s",
        );
        report.push("cpu_ms_per_op", untraced.cpu_s * 1e3 / ops, "ms");
        s.server.shutdown();
        return Ok(report);
    }
    let t = traced.expect("traced phase ran");
    report.attempted += t.attempted;
    report.failed += t.failed;
    let mut values = LayerValues::from([("process.peak_rss_mb", peak_rss)]);
    values.insert("serve.write_p50_ms", pct(writes.clone(), 0.5));
    values.insert("serve.write_p90_ms", pct(writes, 0.9));
    let atoms = mq_core::engine::memo::MemoStats {
        hits: atoms1.hits - atoms0.hits,
        misses: atoms1.misses - atoms0.misses,
    };
    values.insert("memo.atom_cache_hit_ratio", atoms.hit_rate());
    served_layers(&t, &mut values);
    let traced_p50 = pct(t.mines.iter().map(|m| ms(m.rtt_ns)).collect(), 0.5);
    values.insert(
        "obs.trace_overhead_pct",
        layers::trace_overhead_pct(p50, traced_p50),
    );
    // Search-level layers: the rotation searched in process over the
    // final snapshot, ten times per entry.
    let snapshot = s
        .svc
        .catalog()
        .snapshot(SERVE_DB)
        .map_err(|e| e.to_string())?;
    let db = snapshot.database();
    let mut samples = Vec::new();
    let mut mqs = Vec::new();
    {
        let _on = TracingOn::new();
        for r in &s.rotation {
            let mq = parse_metaquery(r.metaquery).map_err(|e| e.to_string())?;
            for _ in 0..10 {
                let (_, sample) =
                    layers::profiled_search(db, &mq, r.ty, r.th).map_err(|e| e.to_string())?;
                samples.push(sample);
            }
            mqs.extend(std::iter::repeat_n(mq, r.weight as usize));
        }
    }
    layers::search_layers(&samples, &mut values);
    layers::kernel_rates(db, "r0", "r1", Duration::from_millis(100), &mut values);
    let mq_refs: Vec<&Metaquery> = mqs.iter().collect();
    values.insert("hypertree.decompose_ms", layers::decompose_ms(&mq_refs, 50));
    s.server.shutdown();
    push_layers(&mut report, &values);
    Ok(report)
}

/// Session, dedup, transport and catalog metrics from the traced phase.
fn served_layers(t: &Phase, values: &mut LayerValues) {
    let spans: Vec<&MineSpans> = t.mines.iter().filter_map(|m| m.spans.as_ref()).collect();
    let flat = |f: fn(&MineSpans) -> &Vec<u64>| -> Vec<u64> {
        spans.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let to_us = |v: Vec<u64>| v.into_iter().map(us).collect::<Vec<f64>>();
    values.insert(
        "session.admission_wait_p99_us",
        pct(to_us(flat(|s| &s.admission_ns)), 0.99),
    );
    let search: Vec<f64> = flat(|s| &s.search_ns).into_iter().map(ms).collect();
    values.insert("session.search_p50_ms", pct(search.clone(), 0.5));
    values.insert("session.search_p99_ms", pct(search, 0.99));
    values.insert(
        "dedup.wait_p99_us",
        pct(to_us(flat(|s| &s.dedup_wait_ns)), 0.99),
    );
    let shared = t.mines.iter().filter(|m| m.deduped).count() as u64;
    values.insert("dedup.share", layers::ratio(shared, t.mines.len() as u64));
    let part = |name: &str| -> Vec<f64> { spans.iter().map(|s| us(s.ledger.part(name))).collect() };
    let residual: Vec<f64> = spans
        .iter()
        .map(|s| s.ledger.residual_ns() as f64 / 1e3)
        .collect();
    let rtt: Vec<f64> = spans.iter().map(|s| us(s.ledger.total_ns)).collect();
    let serve: Vec<f64> = spans.iter().map(|s| ms(s.serve_ns)).collect();
    values.insert("net.serve_p50_ms", pct(serve, 0.5));
    values.insert("net.write_p99_us", pct(part("write"), 0.99));
    values.insert("net.unattributed_p50_us", pct(residual.clone(), 0.5));
    values.insert("net.rtt_mean_us", mean(&rtt));
    for (name, part_name) in [
        ("net.admission_mean_us", "admission"),
        ("net.dedup_wait_mean_us", "dedup_wait"),
        ("net.search_mean_us", "search"),
        ("net.protocol_mean_us", "protocol"),
        ("net.write_mean_us", "write"),
    ] {
        values.insert(name, mean(&part(part_name)));
    }
    values.insert("net.unattributed_mean_us", mean(&residual));
    let update: Vec<f64> = t
        .appends
        .iter()
        .flat_map(|a| a.update_ns.iter().map(|&n| ms(n)))
        .collect();
    let freeze: Vec<f64> = t
        .appends
        .iter()
        .flat_map(|a| a.freeze_ns.iter().map(|&n| ms(n)))
        .collect();
    values.insert("catalog.update_p50_ms", pct(update, 0.5));
    values.insert("catalog.freeze_p50_ms", pct(freeze, 0.5));
    let incomplete = spans.iter().filter(|s| !s.complete).count()
        + t.appends.iter().filter(|a| !a.complete).count();
    *values.entry("obs.incomplete_span_sets").or_default() += incomplete as f64;
    *values.entry("obs.traced_requests").or_default() += (spans.len() + t.appends.len()) as f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rotation_entry_answers_on_several_seeds() {
        for seed in 1..=5 {
            let db = inputs::serve_db(seed);
            for r in inputs::serve_rotation() {
                assert!(
                    !expected_lines(&db, &r).unwrap().is_empty(),
                    "{} on seed {seed}",
                    r.line
                );
            }
        }
    }

    #[test]
    fn mine_headers_parse() {
        assert_eq!(
            parse_mine_header("ok mine 3 answer(s) version=7 deduped req=42"),
            Some(MineHeader {
                answers: 3,
                version: 7,
                deduped: true,
                req: 42
            })
        );
        assert_eq!(
            parse_mine_header("ok mine 0 answer(s) version=1 req=5").map(|h| (h.deduped, h.req)),
            Some((false, 5))
        );
        assert_eq!(parse_mine_header("err deadline too slow"), None);
        assert_eq!(
            parse_update_reply("ok update mixed version=4 r0 rows=1003 generation=4"),
            Some((4, 1003))
        );
        assert_eq!(parse_update_reply("ok mine 1 answer(s)"), None);
    }
}
