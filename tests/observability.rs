//! End-to-end coverage of the observability stack (`mq-obs` + the
//! serving layer's instrumentation).
//!
//! What must hold:
//!
//! * registry snapshots taken while writer threads hammer the handles
//!   are **torn-free** — every counter reads monotonically across
//!   snapshots, never above the true total, and lands exactly on it
//!   once the writers join;
//! * the Prometheus rendering parses under the strict in-tree parser at
//!   any point, including mid-hammer;
//! * over real TCP, the `metrics` command answers a dump covering every
//!   serving metric family, and `trace <req-id>` answers the span tree
//!   of a previously mined request (the id comes back in the `mine`
//!   header);
//! * arming the slow-query log captures a per-plan-node profile for
//!   queries over the threshold, served through the `slowlog` command.
//!
//! The slow-log test flips the **process-global** `MQ_SLOW_MS` override,
//! so it restores it through a drop guard; no other test in this binary
//! reads that global.

use metaquery::service::{handle_line, MetaqueryRequest, MqService, NetConfig, NetServer};
use mq_obs::{parse_prometheus, Registry};
use mq_relation::ints;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ── Registry under concurrent writers ───────────────────────────────

const WRITERS: usize = 4;
const INCS_PER_WRITER: u64 = 20_000;

/// Pull one counter/derived-count value out of a snapshot.
fn snap_value(snap: &[(String, u64)], name: &str) -> Option<u64> {
    snap.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// Opens the writers' start flag when dropped: after the reader's first
/// snapshot, or when the reader panics before it, so a failing reader
/// fails the test instead of leaving the writers waiting.
struct Gate(Arc<AtomicBool>);

impl Drop for Gate {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn registry_snapshots_are_torn_free_under_concurrent_writers() {
    let registry = Arc::new(Registry::new());
    let total = registry.counter("mq_test_hammer_total", "hammered counter");
    let depth = registry.gauge("mq_test_hammer_depth", "hammered gauge");
    let lat = registry.histogram("mq_test_hammer_ns", "hammered histogram");
    let done = Arc::new(AtomicBool::new(false));
    // The writers start only once the reader has taken its first
    // snapshot, so a fast machine cannot finish the hammer before the
    // reader has looked at all.
    let open = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let (total, depth, lat) = (total.clone(), depth.clone(), lat.clone());
                let open = Arc::clone(&open);
                s.spawn(move || {
                    while !open.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    for i in 0..INCS_PER_WRITER {
                        depth.inc();
                        total.inc();
                        lat.observe_ns(i * 100);
                        depth.dec();
                    }
                })
            })
            .collect();
        // Reader: snapshots and renderings taken mid-hammer must be
        // coherent — counters monotone, never overshooting the true
        // total, and the text form always parseable.
        let reader = {
            let registry = Arc::clone(&registry);
            let done = Arc::clone(&done);
            let mut gate = Some(Gate(Arc::clone(&open)));
            s.spawn(move || {
                let cap = WRITERS as u64 * INCS_PER_WRITER;
                let (mut last_total, mut last_count) = (0u64, 0u64);
                let mut rounds = 0u64;
                while !done.load(Ordering::Acquire) {
                    let snap = registry.snapshot();
                    let t = snap_value(&snap, "mq_test_hammer_total").expect("counter in snap");
                    let c = snap_value(&snap, "mq_test_hammer_ns").expect("hist in snap");
                    assert!(
                        t >= last_total,
                        "counter went backwards: {last_total} -> {t}"
                    );
                    assert!(
                        c >= last_count,
                        "hist count went backwards: {last_count} -> {c}"
                    );
                    assert!(t <= cap, "counter overshot the writers' total: {t} > {cap}");
                    assert!(
                        c <= cap,
                        "hist count overshot the writers' total: {c} > {cap}"
                    );
                    (last_total, last_count) = (t, c);
                    if rounds.is_multiple_of(64) {
                        parse_prometheus(&registry.render_prometheus())
                            .expect("mid-hammer rendering must stay parseable");
                    }
                    rounds += 1;
                    gate.take();
                }
                rounds
            })
        };
        for w in writers {
            w.join().expect("writer thread");
        }
        done.store(true, Ordering::Release);
        let rounds = reader.join().expect("reader thread");
        assert!(rounds > 0, "reader never snapshotted");
    });

    // Quiescent: exact totals, no lost updates, gauge back to zero.
    let cap = WRITERS as u64 * INCS_PER_WRITER;
    let snap = registry.snapshot();
    assert_eq!(snap_value(&snap, "mq_test_hammer_total"), Some(cap));
    assert_eq!(snap_value(&snap, "mq_test_hammer_ns"), Some(cap));
    assert_eq!(snap_value(&snap, "mq_test_hammer_depth"), Some(0));
    let samples = parse_prometheus(&registry.render_prometheus()).expect("final rendering");
    let total = samples
        .iter()
        .find(|s| s.name == "mq_test_hammer_total")
        .expect("counter sample");
    assert_eq!(total.value, cap as f64);
}

// ── TCP exposition ──────────────────────────────────────────────────

fn test_db() -> mq_relation::Database {
    let mut db = mq_relation::Database::new();
    let p = db.add_relation("p", 2);
    let q = db.add_relation("q", 2);
    for i in 0..8i64 {
        db.insert(p, ints(&[i, i + 1]));
        db.insert(q, ints(&[i + 1, i + 2]));
    }
    db
}

const MINE: &str = "mine tele sup=1/10 cvr=1/10 cnf=1/10 :: R(X,Z) <- P(X,Y), Q(Y,Z)";

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) -> String {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        self.read_line()
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "server closed the connection");
        line.trim_end().to_string()
    }

    /// Read `n` follow-up lines (count parsed from a framed header).
    fn read_block(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.read_line()).collect()
    }
}

/// The trailing `key=<number>` of a header field.
fn header_num(header: &str, key: &str) -> u64 {
    let at = header
        .rfind(key)
        .unwrap_or_else(|| panic!("no `{key}` in header {header:?}"));
    header[at + key.len()..]
        .split_whitespace()
        .next()
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("unparsable `{key}` in header {header:?}"))
}

#[test]
fn tcp_metrics_and_trace_cover_the_serving_stack() {
    let svc = Arc::new(MqService::new());
    svc.register("tele", test_db()).expect("register tele");
    let mut server = NetServer::bind(Arc::clone(&svc), NetConfig::default()).expect("bind server");
    let mut client = Client::connect(server.local_addr());

    // Mine once so every family has traffic; the header hands back the
    // request's trace id.
    let header = client.send(MINE);
    assert!(header.starts_with("ok mine "), "mine failed: {header}");
    let answers = header_num(&header, "ok mine ") as usize;
    client.read_block(answers);
    let req_id = header_num(&header, "req=");
    assert!(req_id > 0, "mine header carries no request id: {header}");

    // `metrics`: a parseable Prometheus dump covering every serving
    // family, counters consistent with the traffic we just generated.
    let header = client.send("metrics");
    let n = header_num(&header, "lines=") as usize;
    let dump = client.read_block(n).join("\n");
    let samples = parse_prometheus(&dump).expect("metrics dump must parse");
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("`{name}` missing from dump"))
            .value
    };
    for family in [
        "mq_net_",
        "mq_session_",
        "mq_dedup_",
        "mq_memo_",
        "mq_sched_",
        "mq_exec_",
        "mq_catalog_",
        "mq_faults_",
    ] {
        assert!(
            samples.iter().any(|s| s.name.starts_with(family)),
            "no `{family}*` sample in the metrics dump"
        );
    }
    assert!(value("mq_session_requests_total") >= 1.0);
    assert!(value("mq_session_executed_total") >= 1.0);
    assert!(value("mq_exec_nodes_total") >= 1.0);
    assert!(value("mq_sched_tasks_total") >= 1.0);
    assert!(value("mq_net_accepted_total") >= 1.0);
    assert!(value("mq_net_requests_total") >= 1.0);
    assert_eq!(value("mq_net_err_replies_total"), 0.0);

    // `trace <req-id>`: the span tree of the mined request, including
    // the always-on serve and search spans.
    let header = client.send(&format!("trace {req_id}"));
    assert!(header.starts_with("ok trace "), "trace failed: {header}");
    let spans = client.read_block(header_num(&header, "spans=") as usize);
    assert!(!spans.is_empty(), "traced request recorded no spans");
    for name in ["name=req.serve", "name=search.run"] {
        assert!(
            spans.iter().any(|l| l.contains(name)),
            "span `{name}` missing from trace: {spans:?}"
        );
    }

    // A bogus id parses but has no buffered spans.
    let header = client.send("trace 18446744073709551614");
    assert!(header.starts_with("ok trace "), "{header}");
    assert_eq!(header_num(&header, "spans="), 0);

    let _ = client.stream.write_all(b"quit\n");
    server.shutdown();
}

// ── Slow-query log ──────────────────────────────────────────────────

/// Restores the process-global slow-ms override even if the test
/// panics.
struct ArmedSlowLog;

impl ArmedSlowLog {
    fn arm(ms: u64) -> ArmedSlowLog {
        mq_obs::set_slow_ms_override(Some(ms));
        ArmedSlowLog
    }
}

impl Drop for ArmedSlowLog {
    fn drop(&mut self) {
        mq_obs::set_slow_ms_override(None);
    }
}

/// A join-heavy database big enough that the chain metaquery takes well
/// over the 1ms slow-log threshold.
fn heavy_db() -> mq_relation::Database {
    let mut db = mq_relation::Database::new();
    let p = db.add_relation("p", 2);
    let q = db.add_relation("q", 2);
    let mut x = 11i64;
    for i in 0..1500i64 {
        x = (x * 37 + 13 * (i + 1)) % 997;
        db.insert(p, ints(&[x % 40, (x + i) % 40]));
        db.insert(q, ints(&[(x + i) % 40, x % 40]));
    }
    db
}

#[test]
fn armed_slowlog_captures_a_per_node_profile() {
    let _armed = ArmedSlowLog::arm(1);
    let svc = Arc::new(MqService::new());
    svc.register("big", heavy_db()).expect("register big");
    let req = MetaqueryRequest::new("big", "R(X,Z) <- P(X,Y), Q(Y,Z)");
    let out = svc.query(&req).expect("heavy query");
    assert!(!out.answers.is_empty(), "heavy workload found no rules");

    let entries = svc.slow_queries();
    assert!(
        !entries.is_empty(),
        "a multi-ms search with a 1ms threshold must land in the slow log"
    );
    let e = entries.last().expect("slow entry");
    assert_eq!(e.req_id, out.req_id, "slow entry is not the served query");
    assert_eq!(e.db, "big");
    assert!(e.wall_ms >= 1);
    assert!(
        !e.nodes.is_empty(),
        "an armed slow log must capture the per-plan-node profile"
    );
    for (_, label, stat) in &e.nodes {
        assert!(!label.is_empty());
        assert!(stat.execs > 0 || stat.memo_hits > 0 || stat.wall_ns > 0);
    }
    // At least one node should carry a rendered plan label (the ids are
    // hash-consed plan nodes, not opaque).
    assert!(
        e.nodes.iter().any(|(_, label, _)| label.contains('(')),
        "no rendered plan-op label in {:?}",
        e.nodes
    );

    // The protocol view serves the same entries.
    let reply = handle_line(&svc, "slowlog");
    let lines = reply.lines();
    assert!(
        lines[0].starts_with("ok slowlog ") && !lines[0].starts_with("ok slowlog 0 "),
        "protocol slowlog is empty: {:?}",
        lines[0]
    );
    assert!(
        lines.iter().any(|l| l.starts_with("node #")),
        "protocol slowlog carries no node lines"
    );
}
