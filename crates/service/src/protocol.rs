//! A line-oriented text protocol over the service (the `mq serve` mode).
//!
//! One request per line, one-or-more response lines per request; every
//! response block starts with `ok …` or `err …` so clients can frame
//! replies without counting lines ahead of time. Commands:
//!
//! ```text
//! ping
//! open <name> <path>                       load a textio database file
//! mine <name> [type=0|1|2] [sup=K] [cvr=K] [cnf=K] [limit=N] :: <metaquery>
//! append <name> <relation> <v,v,..> [<v,v,..> ...]
//! replace <name> <relation> [<v,v,..> ...]
//! dump <name> <relation> [limit]           rows in insertion order
//! stats <name>
//! metrics                                  Prometheus-text registry dump
//! health                                   SLO verdict, rules, incidents
//! top [window]                             hottest counter series (default 10s)
//! history <series> [window]                raw scrape samples (default 1m)
//! trace [<req-id>|last]                    span tree of one request
//! slowlog                                  slow-query log (MQ_SLOW_MS)
//! quit
//! ```
//!
//! Values in `append`/`replace` rows are integers or bare symbols
//! (interned into the database's symbol table during the copy-on-write
//! update). `mine` thresholds accept `1/2`, `0.5` or `0`, exactly like
//! the `mq mine` CLI; answers render as instantiated rules with their
//! indices, one per line, prefixed `rule `.
//!
//! ## Error replies
//!
//! Every failure is a **structured** one-line reply
//! `err <code> <message>`: a stable machine-readable code first, a
//! human-readable message after. Codes: `usage` (malformed command or
//! flags), `parse` (metaquery text), `io` (file or socket I/O,
//! including injected faults), `unknown-db`, `duplicate-db`,
//! `unknown-relation`, `arity`, `update-panic` (a panicking update
//! closure, isolated per entry), `deadline` (the search overran its
//! wall budget), `panic` (the search panicked and was caught),
//! `retries` (dedup followers exhausted their retry budget), `engine`
//! (any other engine rejection), `internal` (a broken internal
//! invariant, e.g. an update snapshot disagreeing with itself),
//! `oversized` (request line over the transport limit), `busy`
//! (connection admission refused), and `shutting-down` (server
//! draining). A malformed line never tears down the connection — the
//! handler answers `err …` and keeps reading. The machine-readable
//! contract (checked by `mq-lint`'s `err-code-stability` rule) lives in
//! ARCHITECTURE.md's failure-handling section.

use crate::session::{MetaqueryRequest, MqService, ServiceError};
use mq_core::instantiate::{apply_instantiation, InstError, InstType};
use mq_relation::{parse_database, Database, Frac, Tuple, Value};

/// The reply to one protocol line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Response lines to send back (first line is `ok …` or `err …`).
    Lines(Vec<String>),
    /// The client asked to close the connection.
    Quit,
    /// The client asked the server to shut down gracefully (stop
    /// accepting, drain in-flight connections). The stdin/stdout server
    /// treats it like [`Reply::Quit`]; the TCP server starts a drain.
    Shutdown,
}

impl Reply {
    fn ok(line: impl Into<String>) -> Reply {
        Reply::Lines(vec![format!("ok {}", line.into())])
    }

    /// A structured error reply: `err <code> <message>`.
    pub(crate) fn err(code: &str, msg: impl std::fmt::Display) -> Reply {
        Reply::Lines(vec![format!("err {code} {msg}")])
    }

    /// An error reply for a service failure, coded by failure class.
    fn service_err(e: ServiceError) -> Reply {
        Reply::err(error_code(&e), e)
    }

    /// The reply's text lines (empty for [`Reply::Quit`] /
    /// [`Reply::Shutdown`]).
    pub fn lines(&self) -> &[String] {
        match self {
            Reply::Lines(lines) => lines,
            Reply::Quit | Reply::Shutdown => &[],
        }
    }
}

/// The stable machine-readable code for a service failure (the first
/// word after `err` in protocol replies).
pub fn error_code(e: &ServiceError) -> &'static str {
    use crate::catalog::CatalogError;
    match e {
        ServiceError::Catalog(CatalogError::UnknownDb(_)) => "unknown-db",
        ServiceError::Catalog(CatalogError::DuplicateDb(_)) => "duplicate-db",
        ServiceError::Catalog(CatalogError::UnknownRelation { .. }) => "unknown-relation",
        ServiceError::Catalog(CatalogError::ArityMismatch { .. }) => "arity",
        ServiceError::Catalog(CatalogError::UpdatePanicked { .. }) => "update-panic",
        ServiceError::Parse(_) => "parse",
        ServiceError::Engine(InstError::DeadlineExceeded { .. }) => "deadline",
        ServiceError::Engine(_) => "engine",
        ServiceError::SearchPanicked(_) => "panic",
        ServiceError::RetriesExhausted { .. } => "retries",
    }
}

/// Per-connection protocol options (the transport layer's knobs).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtoOptions {
    /// Wall-clock budget applied to `mine` requests that carry no
    /// explicit `wall=` flag (`None` = unbounded).
    pub default_wall_ms: Option<u64>,
}

/// Handle one protocol line against `service` (default options).
pub fn handle_line(service: &MqService, line: &str) -> Reply {
    handle_line_opts(service, line, &ProtoOptions::default())
}

/// Handle one protocol line against `service` under explicit options.
pub fn handle_line_opts(service: &MqService, line: &str, opts: &ProtoOptions) -> Reply {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Reply::Lines(Vec::new());
    }
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((cmd, rest)) => (cmd, rest.trim()),
        None => (line, ""),
    };
    match cmd {
        "ping" => Reply::ok("pong"),
        "quit" | "exit" => Reply::Quit,
        "shutdown" => Reply::Shutdown,
        "open" => cmd_open(service, rest),
        "mine" => cmd_mine(service, rest, opts),
        "append" => cmd_update(service, rest, UpdateKind::Append),
        "replace" => cmd_update(service, rest, UpdateKind::Replace),
        "dump" => cmd_dump(service, rest),
        "stats" => cmd_stats(service, rest),
        "metrics" => cmd_metrics(service),
        "health" => cmd_health(service),
        "top" => cmd_top(service, rest),
        "history" => cmd_history(service, rest),
        "trace" => cmd_trace(rest),
        "slowlog" => cmd_slowlog(service),
        other => Reply::err(
            "usage",
            format_args!(
                "unknown command `{other}` \
                 (ping|open|mine|append|replace|dump|stats|metrics|health|top|history|trace\
                 |slowlog|shutdown|quit)"
            ),
        ),
    }
}

fn cmd_open(service: &MqService, rest: &str) -> Reply {
    let Some((name, path)) = rest.split_once(char::is_whitespace) else {
        return Reply::err("usage", "usage: open <name> <path>");
    };
    let text = match std::fs::read_to_string(path.trim()) {
        Ok(t) => t,
        Err(e) => return Reply::err("io", format_args!("cannot read `{}`: {e}", path.trim())),
    };
    let db = match parse_database(&text) {
        Ok(db) => db,
        Err(e) => return Reply::err("parse", format_args!("cannot parse `{}`: {e}", path.trim())),
    };
    register_db(service, name, db)
}

/// Register a database under `name` (shared by `open` and in-process
/// embedders that already hold a [`Database`]).
pub fn register_db(service: &MqService, name: &str, db: Database) -> Reply {
    let relations = db.num_relations();
    let tuples = db.total_tuples();
    match service.register(name, db) {
        Ok(h) => Reply::ok(format!(
            "open {name} version={} relations={relations} tuples={tuples}",
            h.version()
        )),
        Err(e) => Reply::service_err(e),
    }
}

fn cmd_mine(service: &MqService, rest: &str, opts: &ProtoOptions) -> Reply {
    let Some((head, mq_text)) = rest.split_once("::") else {
        return Reply::err(
            "usage",
            "usage: mine <name> [type=T] [sup=K] [cvr=K] [cnf=K] [limit=N] [wall=MS] \
             :: <metaquery>",
        );
    };
    let mut words = head.split_whitespace();
    let Some(name) = words.next() else {
        return Reply::err("usage", "mine: missing database name");
    };
    let mut req = MetaqueryRequest::new(name, mq_text.trim());
    req.max_wall_ms = opts.default_wall_ms;
    for word in words {
        let Some((key, value)) = word.split_once('=') else {
            return Reply::err(
                "usage",
                format_args!("mine: malformed flag `{word}` (want key=value)"),
            );
        };
        match key {
            "type" => {
                req.ty = match value {
                    "0" => InstType::Zero,
                    "1" => InstType::One,
                    "2" => InstType::Two,
                    other => {
                        return Reply::err("usage", format_args!("mine: invalid type `{other}`"))
                    }
                }
            }
            "sup" | "cvr" | "cnf" => {
                let k = match value.parse::<Frac>() {
                    Ok(k) if k.is_probability() => k,
                    _ => {
                        return Reply::err(
                            "usage",
                            format_args!("mine: threshold `{value}` must be a fraction in [0, 1]"),
                        )
                    }
                };
                match key {
                    "sup" => req.thresholds.sup = Some(k),
                    "cvr" => req.thresholds.cvr = Some(k),
                    _ => req.thresholds.cnf = Some(k),
                }
            }
            "limit" => match value.parse::<usize>() {
                Ok(n) => req.max_answers = Some(n),
                Err(_) => {
                    return Reply::err("usage", format_args!("mine: invalid limit `{value}`"))
                }
            },
            "wall" => match value.parse::<u64>() {
                Ok(ms) => req.max_wall_ms = Some(ms),
                Err(_) => {
                    return Reply::err(
                        "usage",
                        format_args!("mine: invalid wall budget `{value}` (milliseconds)"),
                    )
                }
            },
            other => return Reply::err("usage", format_args!("mine: unknown flag `{other}`")),
        }
    }
    // Pin one snapshot for both the search and the rendering, so a
    // concurrent update can't make the rendered rules disagree with the
    // answered version.
    let handle = match service.catalog().snapshot(name) {
        Ok(h) => h,
        Err(e) => return Reply::service_err(ServiceError::from(e)),
    };
    let out = match service.query_at(&handle, &req) {
        Ok(out) => out,
        Err(e) => return Reply::service_err(e),
    };
    let mq = match mq_core::parse::parse_metaquery(&req.metaquery) {
        Ok(mq) => mq,
        Err(e) => return Reply::err("parse", format_args!("invalid metaquery: {e}")),
    };
    let db = handle.database();
    // `req=` hands the client the trace id to feed `trace <req-id>`.
    let mut lines = vec![format!(
        "ok mine {} answer(s) version={}{} req={}",
        out.answers.len(),
        out.db_version,
        if out.shared { " deduped" } else { "" },
        out.req_id
    )];
    for a in out.answers.iter() {
        match apply_instantiation(db, &mq, &a.inst) {
            Ok(rule) => lines.push(format!(
                "rule {} sup={} cvr={} cnf={}",
                rule.render(db),
                a.indices.sup,
                a.indices.cvr,
                a.indices.cnf
            )),
            Err(e) => lines.push(format!("rule <unrenderable: {e}>")),
        }
    }
    Reply::Lines(lines)
}

enum UpdateKind {
    Append,
    Replace,
}

fn cmd_update(service: &MqService, rest: &str, kind: UpdateKind) -> Reply {
    let mut words = rest.split_whitespace();
    let (Some(name), Some(rel)) = (words.next(), words.next()) else {
        return Reply::err(
            "usage",
            "usage: append|replace <name> <relation> [<v,v,..> ...]",
        );
    };
    let raw_rows: Vec<&str> = words.collect();
    if matches!(kind, UpdateKind::Append) && raw_rows.is_empty() {
        return Reply::err("usage", "append: no rows given");
    }
    // Interning bare-word symbols needs the (cloned) database of the
    // update itself, so row parsing happens inside the copy-on-write
    // closure. Routed through the service (not the bare catalog) so the
    // update lands in the catalog.update span and mq_catalog_* metrics.
    let result = service.update_with(name, |db| {
        let rel_id =
            db.rel_id(rel)
                .ok_or_else(|| crate::catalog::CatalogError::UnknownRelation {
                    db: name.to_string(),
                    relation: rel.to_string(),
                })?;
        let arity = db.relation(rel_id).arity();
        let mut rows: Vec<Tuple> = Vec::with_capacity(raw_rows.len());
        for raw in &raw_rows {
            let values: Vec<Value> = raw
                .split(',')
                .map(|tok| {
                    let tok = tok.trim();
                    match tok.parse::<i64>() {
                        Ok(n) => Value::Int(n),
                        Err(_) => db.sym(tok),
                    }
                })
                .collect();
            if values.len() != arity {
                return Err(crate::catalog::CatalogError::ArityMismatch {
                    relation: rel.to_string(),
                    expected: arity,
                    got: values.len(),
                });
            }
            rows.push(values.into_boxed_slice());
        }
        match kind {
            UpdateKind::Append => {
                for row in rows {
                    db.insert(rel_id, row);
                }
            }
            UpdateKind::Replace => db.relation_mut(rel_id).replace_rows(rows),
        }
        Ok(rel_id)
    });
    match result {
        Ok(h) => {
            // The closure above resolved `rel` in the updated clone, so
            // it must exist in the published snapshot — but answer a
            // structured error rather than tearing down the connection
            // if that invariant ever breaks.
            let Some(rel_id) = h.database().rel_id(rel) else {
                return Reply::err(
                    "internal",
                    format_args!("updated relation `{rel}` missing from published snapshot"),
                );
            };
            Reply::ok(format!(
                "update {name} version={} {rel} rows={} generation={}",
                h.version(),
                h.database().relation(rel_id).len(),
                h.generation(rel_id)
            ))
        }
        Err(e) => Reply::service_err(e),
    }
}

/// Serve a relation's rows, in insertion order, from the pinned
/// snapshot's immutable database.
fn cmd_dump(service: &MqService, rest: &str) -> Reply {
    let mut words = rest.split_whitespace();
    let (Some(name), Some(rel)) = (words.next(), words.next()) else {
        return Reply::err("usage", "usage: dump <name> <relation> [limit]");
    };
    let limit = match words.next() {
        None => usize::MAX,
        Some(tok) => match tok.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Reply::err("usage", format_args!("dump: invalid limit `{tok}`")),
        },
    };
    let handle = match service.catalog().snapshot(name) {
        Ok(h) => h,
        Err(e) => return Reply::service_err(ServiceError::from(e)),
    };
    let db = handle.database();
    let Some(rel_id) = db.rel_id(rel) else {
        return Reply::err(
            "unknown-relation",
            format_args!("database `{name}` has no relation `{rel}`"),
        );
    };
    let relation = db.relation(rel_id);
    let mut lines = vec![format!(
        "ok dump {name} {rel} rows={} generation={} version={}",
        relation.len(),
        handle.generation(rel_id),
        handle.version()
    )];
    let symbols = db.symbols();
    // Read the first `limit` rows in place: no copy of the whole relation.
    let rows = relation.columnar();
    for i in 0..rows.len().min(limit) {
        let cells: Vec<String> = (0..rows.arity())
            .map(|c| rows.value(i, c).display(symbols).to_string())
            .collect();
        lines.push(format!("row {}", cells.join(",")));
    }
    Reply::Lines(lines)
}

fn cmd_stats(service: &MqService, rest: &str) -> Reply {
    let name = rest.trim();
    if name.is_empty() {
        return Reply::err("usage", "usage: stats <name>");
    }
    let handle = match service.catalog().snapshot(name) {
        Ok(h) => h,
        Err(e) => return Reply::service_err(ServiceError::from(e)),
    };
    let db = handle.database();
    let atom = handle.atom_cache().stats();
    let mut lines = vec![format!(
        "ok stats {name} version={} relations={} tuples={} atom_cache_hits={} atom_cache_misses={}",
        handle.version(),
        db.num_relations(),
        db.total_tuples(),
        atom.hits,
        atom.misses
    )];
    for id in db.rel_ids() {
        let rel = db.relation(id);
        lines.push(format!(
            "relation {}/{} rows={} generation={}",
            rel.name(),
            rel.arity(),
            rel.len(),
            handle.generation(id)
        ));
    }
    Reply::Lines(lines)
}

/// Dump the service's whole metric registry (session, dedup, memo,
/// scheduler, executor, catalog, net, fault families) in Prometheus
/// text exposition format, framed by a line count so line-oriented
/// clients know how much to read.
fn cmd_metrics(service: &MqService) -> Reply {
    let dump = service.registry().render_prometheus();
    let body: Vec<String> = dump.lines().map(str::to_string).collect();
    let mut lines = Vec::with_capacity(body.len() + 1);
    lines.push(format!("ok metrics lines={}", body.len()));
    lines.extend(body);
    Reply::Lines(lines)
}

/// Serve the flight recorder's latest verdict: one `rule` line per SLO
/// rule (name, verdict, numeric evidence), then the buffered incident
/// log — each `incident` line followed by the hottest plan nodes and
/// slowest live spans captured at detection time. Default-Healthy with
/// `scrapes=0` when the recorder is off (`MQ_SCRAPE_MS=0`).
fn cmd_health(service: &MqService) -> Reply {
    let rec = service.recorder();
    let report = rec.health();
    let mut body = Vec::new();
    for r in &report.rules {
        body.push(format!(
            "rule {} {} {}",
            r.rule,
            r.verdict.as_str(),
            r.evidence
        ));
    }
    for i in &rec.incidents() {
        body.push(format!(
            "incident t_ms={} series={} rate_per_s={:.3} baseline_mean={:.3} baseline_mad={:.3}",
            i.t_ms, i.series, i.rate, i.baseline_mean, i.baseline_mad
        ));
        // Node lines arrive pre-formatted (`node #<id> …`) from the
        // service's slow-query log.
        body.extend(i.nodes.iter().cloned());
        body.extend(i.slow_spans.iter().map(|s| format!("span {s}")));
    }
    let mut lines = Vec::with_capacity(body.len() + 1);
    lines.push(format!(
        "ok health {} t_ms={} scrapes={} lines={}",
        report.verdict.as_str(),
        report.t_ms,
        rec.scrapes(),
        body.len()
    ));
    lines.extend(body);
    Reply::Lines(lines)
}

/// Rank the hottest counter series by windowed per-second rate
/// (default window 10 s), then attach the hottest plan nodes of the
/// latest slow query for drill-down context.
fn cmd_top(service: &MqService, rest: &str) -> Reply {
    let token = match rest.trim() {
        "" => "10s",
        t => t,
    };
    let Some(window_ms) = mq_obs::parse_window(token) else {
        return Reply::err(
            "usage",
            format_args!("top: invalid window `{token}` (want e.g. 10s|1m|5m)"),
        );
    };
    let now_ms = mq_obs::trace::now_ns() / 1_000_000;
    let top = service
        .recorder()
        .history()
        .top_rates(window_ms, now_ms, 10);
    let mut body: Vec<String> = top
        .iter()
        .map(|(name, rate)| format!("series {name} rate_per_s={rate:.3}"))
        .collect();
    if let Some(e) = service.slow_queries().last() {
        for (id, label, n) in &e.nodes {
            body.push(format!(
                "node #{id} {label} wall_ns={} execs={} memo_hits={} rows_in={} rows_out={}",
                n.wall_ns, n.execs, n.memo_hits, n.rows_in, n.rows_out
            ));
        }
    }
    let mut lines = Vec::with_capacity(body.len() + 1);
    lines.push(format!("ok top window={token} lines={}", body.len()));
    lines.extend(body);
    Reply::Lines(lines)
}

/// Serve one series' raw buffered scrape samples within the trailing
/// window (default 1 m), oldest first — timestamps are monotone, at
/// most [`mq_obs::history::RING_SAMPLES`] points.
fn cmd_history(service: &MqService, rest: &str) -> Reply {
    let mut words = rest.split_whitespace();
    let Some(series) = words.next() else {
        return Reply::err("usage", "usage: history <series> [window]");
    };
    let token = words.next().unwrap_or("1m");
    if words.next().is_some() {
        return Reply::err("usage", "usage: history <series> [window]");
    }
    let Some(window_ms) = mq_obs::parse_window(token) else {
        return Reply::err(
            "usage",
            format_args!("history: invalid window `{token}` (want e.g. 10s|1m|5m)"),
        );
    };
    let history = service.recorder().history();
    if history.ring(series).is_none() {
        return Reply::err(
            "usage",
            format_args!("history: unknown series `{series}` (nothing scraped under that name)"),
        );
    }
    let now_ms = mq_obs::trace::now_ns() / 1_000_000;
    let pts = history.points(series, window_ms, now_ms);
    let mut lines = Vec::with_capacity(pts.len() + 1);
    lines.push(format!(
        "ok history {series} window={token} lines={}",
        pts.len()
    ));
    for p in &pts {
        lines.push(format!("point t_ms={} v={}", p.t_ms, p.value.as_scalar()));
    }
    Reply::Lines(lines)
}

/// Render one request's buffered span tree. `trace last` (or bare
/// `trace`) picks the most recent traced request other than the one
/// serving this command.
fn cmd_trace(rest: &str) -> Reply {
    use mq_obs::trace;
    let arg = rest.trim();
    let req = if arg.is_empty() || arg == "last" {
        match trace::latest_request(trace::current_request()) {
            Some(r) => r,
            None => return Reply::Lines(vec!["ok trace req=0 spans=0".to_string()]),
        }
    } else {
        match arg.parse::<u64>() {
            Ok(r) => r,
            Err(_) => {
                return Reply::err(
                    "usage",
                    format_args!("trace: invalid request id `{arg}` (want a number or `last`)"),
                )
            }
        }
    };
    let spans = trace::collect_request(req);
    let mut lines = vec![format!("ok trace req={req} spans={}", spans.len())];
    for s in &spans {
        lines.push(format!(
            "span depth={} name={} start_ns={} dur_ns={}",
            s.depth, s.name, s.start_ns, s.dur_ns
        ));
    }
    Reply::Lines(lines)
}

/// Render the slow-query log: one `slow` line per entry, followed by
/// its hottest plan nodes. Empty unless `MQ_SLOW_MS` armed the log.
fn cmd_slowlog(service: &MqService) -> Reply {
    let entries = service.slow_queries();
    let mut lines = vec![format!("ok slowlog {} entries", entries.len())];
    for e in &entries {
        lines.push(format!(
            "slow req={} db={} wall_ms={} mq={}",
            e.req_id, e.db, e.wall_ms, e.metaquery
        ));
        for (id, label, n) in &e.nodes {
            lines.push(format!(
                "node #{id} {label} wall_ns={} execs={} memo_hits={} rows_in={} rows_out={}",
                n.wall_ns, n.execs, n.memo_hits, n.rows_in, n.rows_out
            ));
        }
    }
    Reply::Lines(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_relation::ints;

    fn service_with_db() -> MqService {
        let svc = MqService::new();
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        let q = db.add_relation("q", 2);
        for i in 0..5i64 {
            db.insert(p, ints(&[i, i + 1]));
            db.insert(q, ints(&[i + 1, i + 2]));
        }
        svc.register("tele", db).unwrap();
        svc
    }

    fn first_line(reply: &Reply) -> &str {
        &reply.lines()[0]
    }

    #[test]
    fn ping_quit_unknown() {
        let svc = MqService::new();
        assert_eq!(handle_line(&svc, "ping"), Reply::ok("pong"));
        assert_eq!(handle_line(&svc, "quit"), Reply::Quit);
        assert_eq!(handle_line(&svc, ""), Reply::Lines(Vec::new()));
        assert!(first_line(&handle_line(&svc, "bogus x")).starts_with("err "));
    }

    #[test]
    fn mine_renders_rules() {
        let svc = service_with_db();
        // No thresholds: every instantiation qualifies (they are strict
        // lower bounds, so sup=0 would already filter zero-support rules).
        let reply = handle_line(&svc, "mine tele type=0 :: R(X,Z) <- P(X,Y), Q(Y,Z)");
        let lines = reply.lines();
        assert!(lines[0].starts_with("ok mine "), "got: {}", lines[0]);
        assert!(lines[0].contains("version=1"));
        assert!(lines.len() > 1, "some rules expected");
        assert!(lines[1].starts_with("rule "));
        assert!(lines[1].contains("sup="));
        // limit caps the rule lines.
        let limited = handle_line(&svc, "mine tele limit=1 :: R(X,Z) <- P(X,Y), Q(Y,Z)");
        assert_eq!(limited.lines().len(), 2);
    }

    #[test]
    fn mine_flag_errors() {
        let svc = service_with_db();
        assert!(
            first_line(&handle_line(&svc, "mine tele sup=2 :: R(X,Z) <- P(X,Y)"))
                .starts_with("err ")
        );
        assert!(first_line(&handle_line(&svc, "mine tele :: not a metaquery")).starts_with("err "));
        assert!(
            first_line(&handle_line(&svc, "mine nosuch :: R(X,Z) <- P(X,Y)")).starts_with("err ")
        );
        assert!(first_line(&handle_line(&svc, "mine tele")).starts_with("err "));
    }

    #[test]
    fn append_replace_and_stats_roundtrip() {
        let svc = service_with_db();
        let reply = handle_line(&svc, "append tele p 10,11 11,12");
        assert!(
            first_line(&reply).starts_with("ok update tele version=2"),
            "got: {}",
            first_line(&reply)
        );
        assert!(first_line(&reply).contains("rows=7"));
        assert!(first_line(&reply).contains("generation=2"));
        let reply = handle_line(&svc, "replace tele q 0,ann");
        assert!(first_line(&reply).contains("version=3"));
        assert!(first_line(&reply).contains("rows=1"));
        let stats = handle_line(&svc, "stats tele");
        let lines = stats.lines();
        assert!(lines[0].starts_with("ok stats tele version=3"));
        assert!(lines
            .iter()
            .any(|l| l == "relation p/2 rows=7 generation=2"));
        assert!(lines
            .iter()
            .any(|l| l == "relation q/2 rows=1 generation=3"));
        // Arity errors surface as err.
        assert!(first_line(&handle_line(&svc, "append tele p 1,2,3")).starts_with("err "));
        assert!(first_line(&handle_line(&svc, "append tele zz 1,2")).starts_with("err "));
        // A failed update did not bump the version.
        assert!(first_line(&handle_line(&svc, "stats tele")).contains("version=3"));
    }

    #[test]
    fn dump_and_stats_follow_appends_in_insertion_order() {
        let svc = service_with_db();
        let reply = handle_line(&svc, "dump tele p");
        let lines = reply.lines();
        assert!(lines[0].starts_with("ok dump tele p rows=5 generation=1"));
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[1], "row 0,1");
        // An append lists the old rows first, then the new ones in
        // insertion order; the duplicate `0,1` is dropped (set semantics).
        let _ = handle_line(&svc, "append tele p 9,9 0,1 7,7");
        let reply = handle_line(&svc, "dump tele p");
        let expected = [
            "ok dump tele p rows=7 generation=2 version=2",
            "row 0,1",
            "row 1,2",
            "row 2,3",
            "row 3,4",
            "row 4,5",
            "row 9,9",
            "row 7,7",
        ];
        assert_eq!(reply.lines(), expected);
        // `stats` counts the same snapshot the dump read.
        let total = svc
            .catalog()
            .snapshot("tele")
            .unwrap()
            .database()
            .total_tuples();
        assert_eq!(total, 12);
        let stats = handle_line(&svc, "stats tele");
        assert!(
            stats.lines()[0].contains(&format!(" tuples={total} ")),
            "got: {}",
            stats.lines()[0]
        );
        assert!(stats
            .lines()
            .iter()
            .any(|l| l == "relation p/2 rows=7 generation=2"));
        // Limit caps the row lines, not the `rows=` count.
        let reply = handle_line(&svc, "dump tele p 2");
        assert_eq!(reply.lines(), &expected[..3]);
        // Replacements show up (and symbols render).
        let _ = handle_line(&svc, "replace tele p 7,ann");
        let reply = handle_line(&svc, "dump tele p");
        let lines = reply.lines();
        assert!(lines[0].starts_with("ok dump tele p rows=1 generation=3"));
        assert_eq!(lines[1..], ["row 7,ann"]);
        assert!(first_line(&handle_line(&svc, "dump tele zz")).starts_with("err "));
        assert!(first_line(&handle_line(&svc, "dump nosuch p")).starts_with("err "));
        assert!(first_line(&handle_line(&svc, "dump tele p x")).starts_with("err "));
    }

    #[test]
    fn errors_are_structured_code_plus_message() {
        let svc = service_with_db();
        assert!(first_line(&handle_line(&svc, "bogus x")).starts_with("err usage "));
        assert!(
            first_line(&handle_line(&svc, "mine nosuch :: R(X,Z) <- P(X,Y)"))
                .starts_with("err unknown-db ")
        );
        assert!(
            first_line(&handle_line(&svc, "mine tele :: not a metaquery"))
                .starts_with("err parse ")
        );
        assert!(first_line(&handle_line(&svc, "append tele p 1,2,3")).starts_with("err arity "));
        assert!(first_line(&handle_line(&svc, "append tele zz 1,2"))
            .starts_with("err unknown-relation "));
        assert!(first_line(&handle_line(&svc, "dump tele p x")).starts_with("err usage "));
        assert_eq!(handle_line(&svc, "shutdown"), Reply::Shutdown);
    }

    #[test]
    fn mine_wall_flag_and_default_wall_budget() {
        let svc = service_with_db();
        // wall=0: already expired, surfaced as a structured deadline
        // error (the connection stays usable).
        let r = handle_line(&svc, "mine tele wall=0 :: R(X,Z) <- P(X,Y), Q(Y,Z)");
        assert!(
            first_line(&r).starts_with("err deadline "),
            "got: {}",
            first_line(&r)
        );
        // The transport's default budget applies when no flag is given…
        let opts = ProtoOptions {
            default_wall_ms: Some(0),
        };
        let r = handle_line_opts(&svc, "mine tele :: R(X,Z) <- P(X,Y), Q(Y,Z)", &opts);
        assert!(first_line(&r).starts_with("err deadline "));
        // …and an explicit flag overrides it.
        let r = handle_line_opts(
            &svc,
            "mine tele wall=60000 :: R(X,Z) <- P(X,Y), Q(Y,Z)",
            &opts,
        );
        assert!(first_line(&r).starts_with("ok mine "));
        assert!(
            first_line(&handle_line(&svc, "mine tele wall=x :: R(X,Z) <- P(X,Y)"))
                .starts_with("err usage ")
        );
    }

    #[test]
    fn metrics_is_a_parsable_prometheus_dump() {
        let svc = service_with_db();
        let _ = handle_line(&svc, "mine tele :: R(X,Z) <- P(X,Y), Q(Y,Z)");
        let _ = handle_line(&svc, "mine tele :: R(X,Z) <- P(X,Y), Q(Y,Z)");
        let reply = handle_line(&svc, "metrics");
        let lines = reply.lines();
        assert!(
            lines[0].starts_with("ok metrics lines="),
            "got: {}",
            lines[0]
        );
        let body = lines[1..].join("\n");
        let samples = mq_obs::parse_prometheus(&body).expect("valid Prometheus text");
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing sample {name}"))
                .value
        };
        assert_eq!(get("mq_session_requests_total"), 2.0);
        assert_eq!(get("mq_session_executed_total"), 2.0);
        assert_eq!(get("mq_session_search_wall_ns_count"), 2.0);
    }

    #[test]
    fn health_top_history_verbs() {
        let svc = service_with_db();
        // Before any scrape: default-Healthy, zero body lines.
        let idle = handle_line(&svc, "health");
        assert!(
            first_line(&idle).starts_with("ok health healthy"),
            "got: {}",
            first_line(&idle)
        );
        assert!(first_line(&idle).contains("scrapes=0"));
        // Two deterministic scrapes at the live trace clock with
        // traffic in between, so windowed rates are measurable.
        let rec = svc.recorder();
        rec.tick(svc.registry());
        let _ = handle_line(&svc, "mine tele :: R(X,Z) <- P(X,Y), Q(Y,Z)");
        std::thread::sleep(std::time::Duration::from_millis(10));
        rec.tick(svc.registry());

        let health = handle_line(&svc, "health");
        let lines = health.lines();
        assert!(
            lines[0].starts_with("ok health healthy"),
            "got: {}",
            lines[0]
        );
        assert!(lines[0].contains("scrapes=2"), "got: {}", lines[0]);
        let framed: usize = lines[0]
            .rsplit("lines=")
            .next()
            .unwrap()
            .parse()
            .expect("lines= count");
        assert_eq!(lines.len() - 1, framed);
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("rule error-rate healthy ")),
            "want a named rule line: {lines:?}"
        );

        let top = handle_line(&svc, "top 1m");
        let tl = top.lines();
        assert!(
            tl[0].starts_with("ok top window=1m lines="),
            "got: {}",
            tl[0]
        );
        assert!(
            tl.iter()
                .any(|l| l.starts_with("series mq_session_requests_total rate_per_s=")),
            "want the session counter ranked: {tl:?}"
        );

        let hist = handle_line(&svc, "history mq_session_requests_total 5m");
        let hl = hist.lines();
        assert!(
            hl[0].starts_with("ok history mq_session_requests_total window=5m lines=2"),
            "got: {}",
            hl[0]
        );
        assert!(hl[1].starts_with("point t_ms="));
        let t = |line: &str| -> u64 {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix("t_ms="))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(
            t(&hl[1]) <= t(&hl[2]),
            "timestamps must be monotone: {hl:?}"
        );

        // Structured usage errors: bad window, unknown series, extra args.
        assert!(first_line(&handle_line(&svc, "top banana")).starts_with("err usage "));
        assert!(first_line(&handle_line(&svc, "history")).starts_with("err usage "));
        assert!(first_line(&handle_line(&svc, "history nosuch_series")).starts_with("err usage "));
        assert!(first_line(&handle_line(
            &svc,
            "history mq_session_requests_total 1m extra"
        ))
        .starts_with("err usage "));
        assert!(first_line(&handle_line(
            &svc,
            "history mq_session_requests_total banana"
        ))
        .starts_with("err usage "));
    }

    #[test]
    fn trace_command_returns_request_spans() {
        let svc = service_with_db();
        let reply = handle_line(&svc, "mine tele :: R(X,Z) <- P(X,Y), Q(Y,Z)");
        let head = first_line(&reply);
        let req = head
            .split_whitespace()
            .find_map(|w| w.strip_prefix("req="))
            .expect("mine reply carries req=")
            .to_string();
        let traced = handle_line(&svc, &format!("trace {req}"));
        let lines = traced.lines();
        assert!(
            lines[0].starts_with(&format!("ok trace req={req} spans=")),
            "got: {}",
            lines[0]
        );
        assert!(
            lines.iter().any(|l| l.contains("name=search.run")),
            "want a search.run span, got: {lines:?}"
        );
        // Bad ids are structured usage errors; an armed-but-empty log
        // still frames.
        assert!(first_line(&handle_line(&svc, "trace zz")).starts_with("err usage "));
        assert_eq!(
            first_line(&handle_line(&svc, "slowlog")),
            "ok slowlog 0 entries"
        );
    }
}
