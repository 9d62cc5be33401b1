//! `mq` — command-line metaquery miner.
//!
//! ```text
//! mq mine     --db FILE --metaquery 'R(X,Z) <- P(X,Y), Q(Y,Z)'
//!             [--type 0|1|2] [--sup K] [--cvr K] [--cnf K]
//!             [--engine findrules|naive] [--limit N]
//! mq decide   --db FILE --metaquery MQ --index sup|cvr|cnf --k K [--type T]
//! mq classify --metaquery MQ
//! mq stats    --db FILE
//! mq serve    [--db NAME=FILE] [--tcp ADDR] [--wall MS] [--max-conns N]
//! ```
//!
//! Thresholds accept `1/2`, `0.5` or `0`; they are strict lower bounds,
//! exactly as in the paper. Database files use the text format of
//! `mq_relation::textio` (one `relation(v1, v2, ...)` fact per line).
//!
//! `serve` starts the concurrent metaquery service on stdin/stdout: a
//! catalog of named databases behind the line protocol of
//! `mq_service::protocol` (`open`/`mine`/`append`/`replace`/`stats`/
//! `metrics`/`quit`), with copy-on-write updates, versioned snapshots
//! that share untouched relations' columns and indexes, and in-flight
//! request dedup. `--db NAME=FILE` preloads a database into the catalog.
//!
//! `serve --tcp ADDR` serves the same protocol over TCP instead
//! (thread-per-connection, hardened: per-request deadlines via `--wall
//! MS` or the `wall=` flag, panic isolation, bounded request lines and
//! reply queues, `--max-conns N` admission, graceful drain on the
//! `shutdown` command). The process exits once a client issues
//! `shutdown` and the drain completes.

use metaquery::core::acyclic::classify;
use metaquery::core::engine::find_rules::body_decomposition;
use metaquery::core::engine::{find_rules::find_rules, naive};
use metaquery::core::instantiate::check_body_size;
use metaquery::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mq mine     --db FILE --metaquery MQ [--type 0|1|2] [--sup K] [--cvr K] [--cnf K] [--engine findrules|naive] [--limit N]\n  mq decide   --db FILE --metaquery MQ --index sup|cvr|cnf --k K [--type 0|1|2]\n  mq classify --metaquery MQ\n  mq stats    --db FILE\n  mq serve    [--db NAME=FILE] [--tcp ADDR] [--wall MS] [--max-conns N]"
    );
    std::process::exit(2);
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if i + 1 >= args.len() {
                eprintln!("missing value for --{name}");
                usage();
            }
            flags.insert(name.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            eprintln!("unexpected argument `{a}`");
            usage();
        }
    }
    flags
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> &'a str {
    match flags.get(name) {
        Some(v) => v,
        None => {
            eprintln!("missing required flag --{name}");
            usage();
        }
    }
}

fn load_db(path: &str) -> Database {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{path}`: {e}");
            std::process::exit(1);
        }
    };
    match mq_relation::parse_database(&text) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot parse `{path}`: {e}");
            std::process::exit(1);
        }
    }
}

fn load_mq(text: &str) -> Metaquery {
    match parse_metaquery(text) {
        Ok(mq) => mq,
        Err(e) => {
            eprintln!("invalid metaquery: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_type(flags: &HashMap<String, String>) -> InstType {
    match flags.get("type").map(String::as_str).unwrap_or("0") {
        "0" => InstType::Zero,
        "1" => InstType::One,
        "2" => InstType::Two,
        other => {
            eprintln!("invalid --type `{other}` (expected 0, 1 or 2)");
            usage();
        }
    }
}

fn parse_frac(s: &str) -> Frac {
    match s.parse::<Frac>() {
        Ok(f) if f.is_probability() => f,
        Ok(_) => {
            eprintln!("threshold `{s}` must be in [0, 1]");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn cmd_mine(flags: HashMap<String, String>) -> ExitCode {
    let db = load_db(required(&flags, "db"));
    let mq = load_mq(required(&flags, "metaquery"));
    let ty = parse_type(&flags);
    let thresholds = Thresholds {
        sup: flags.get("sup").map(|s| parse_frac(s)),
        cvr: flags.get("cvr").map(|s| parse_frac(s)),
        cnf: flags.get("cnf").map(|s| parse_frac(s)),
    };
    let limit: usize = flags
        .get("limit")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(usize::MAX);
    let engine = flags
        .get("engine")
        .map(String::as_str)
        .unwrap_or("findrules");
    let result = match engine {
        "findrules" => find_rules(&db, &mq, ty, thresholds),
        "naive" => naive::find_all(&db, &mq, ty, thresholds),
        other => {
            eprintln!("unknown engine `{other}`");
            usage();
        }
    };
    match result {
        Ok(mut answers) => {
            answers.sort_by(|a, b| b.indices.cnf.cmp(&a.indices.cnf).then(a.inst.cmp(&b.inst)));
            println!("{} rule(s):", answers.len().min(limit));
            for a in answers.iter().take(limit) {
                // An answer that fails to re-instantiate is an engine bug;
                // report it inline rather than aborting the whole listing.
                let rendered = match apply_instantiation(&db, &mq, &a.inst) {
                    Ok(rule) => rule.render(&db),
                    Err(e) => format!("<unrenderable: {e}>"),
                };
                println!(
                    "  {:<60} sup={} cvr={} cnf={}",
                    rendered, a.indices.sup, a.indices.cvr, a.indices.cnf
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_decide(flags: HashMap<String, String>) -> ExitCode {
    let db = load_db(required(&flags, "db"));
    let mq = load_mq(required(&flags, "metaquery"));
    let ty = parse_type(&flags);
    let kind = match required(&flags, "index") {
        "sup" => IndexKind::Sup,
        "cvr" => IndexKind::Cvr,
        "cnf" => IndexKind::Cnf,
        other => {
            eprintln!("unknown index `{other}`");
            usage();
        }
    };
    let k = parse_frac(required(&flags, "k"));
    let problem = MqProblem {
        index: kind,
        threshold: k,
        ty,
    };
    match metaquery::core::engine::find_rules::decide(&db, &mq, problem) {
        Ok(yes) => {
            println!("{problem}: {}", if yes { "YES" } else { "NO" });
            if yes {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_classify(flags: HashMap<String, String>) -> ExitCode {
    let mq = load_mq(required(&flags, "metaquery"));
    println!("metaquery : {mq}");
    println!("pure      : {}", mq.is_pure());
    println!("safe      : {}", mq.is_safe());
    println!("class     : {:?}", classify(&mq));
    if let Err(e) = check_body_size(&mq) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let d = body_decomposition(&mq);
    println!(
        "body      : hypertree width {} ({} decomposition vertices)",
        d.width, d.vertices
    );
    ExitCode::SUCCESS
}

fn cmd_stats(flags: HashMap<String, String>) -> ExitCode {
    let db = load_db(required(&flags, "db"));
    println!(
        "{} relations, {} tuples, max relation size d = {}, max arity b = {}",
        db.num_relations(),
        db.total_tuples(),
        db.max_relation_size(),
        db.max_arity()
    );
    for rel in db.relations() {
        println!("  {}/{}: {} tuples", rel.name(), rel.arity(), rel.len());
    }
    ExitCode::SUCCESS
}

fn cmd_serve(flags: HashMap<String, String>) -> ExitCode {
    use std::io::{BufRead, Write};

    let service = metaquery::service::MqService::new();
    if let Some(spec) = flags.get("db") {
        let Some((name, path)) = spec.split_once('=') else {
            eprintln!("--db wants NAME=FILE, got `{spec}`");
            usage();
        };
        let db = load_db(path);
        let reply = metaquery::service::register_db(&service, name, db);
        for line in reply.lines() {
            eprintln!("{line}");
        }
    }
    if let Some(addr) = flags.get("tcp") {
        return serve_tcp(service, addr, &flags);
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stdin error: {e}");
                return ExitCode::FAILURE;
            }
        };
        match metaquery::service::handle_line(&service, &line) {
            metaquery::service::Reply::Quit | metaquery::service::Reply::Shutdown => break,
            reply => {
                // A client hanging up mid-reply (broken pipe) is a
                // normal way for a serve session to end, not a crash.
                let wrote = reply
                    .lines()
                    .iter()
                    .try_for_each(|out| writeln!(stdout, "{out}"))
                    .and_then(|()| stdout.flush());
                if let Err(e) = wrote {
                    if e.kind() != std::io::ErrorKind::BrokenPipe {
                        eprintln!("stdout error: {e}");
                    }
                    break;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Serve the line protocol over TCP until a client issues `shutdown`.
fn serve_tcp(
    service: metaquery::service::MqService,
    addr: &str,
    flags: &HashMap<String, String>,
) -> ExitCode {
    use metaquery::service::{NetConfig, NetServer};

    let mut cfg = NetConfig {
        addr: addr.to_string(),
        ..NetConfig::default()
    };
    if let Some(wall) = flags.get("wall") {
        match wall.parse::<u64>() {
            Ok(ms) => cfg.default_wall_ms = Some(ms),
            Err(_) => {
                eprintln!("--wall wants milliseconds, got `{wall}`");
                usage();
            }
        }
    }
    if let Some(n) = flags.get("max-conns") {
        match n.parse::<usize>() {
            Ok(n) => cfg.max_connections = n,
            Err(_) => {
                eprintln!("--max-conns wants a count, got `{n}`");
                usage();
            }
        }
    }
    let mut server = match NetServer::bind(std::sync::Arc::new(service), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind `{addr}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("serving on {}", server.local_addr());
    // Block until a client issues `shutdown` (the supported stop path —
    // installing a SIGTERM handler would need unsafe signal code).
    while !server.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let report = server.shutdown();
    eprintln!(
        "shutdown: {} connection(s) drained, {} aborted",
        report.drained, report.aborted
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let flags = parse_flags(&args[1..]);
    match args[0].as_str() {
        "mine" => cmd_mine(flags),
        "decide" => cmd_decide(flags),
        "classify" => cmd_classify(flags),
        "stats" => cmd_stats(flags),
        "serve" => cmd_serve(flags),
        _ => usage(),
    }
}
