//! Robustness: the parsers must never panic on arbitrary input, and the
//! streaming engine API must honor early termination.

use metaquery::core::engine::find_rules::find_rules_with;
use metaquery::prelude::*;
use mq_relation::{ints, parse_database};
use proptest::prelude::*;
use std::ops::ControlFlow;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The metaquery parser returns Ok or Err — never panics — on
    /// arbitrary strings (including ones that look almost right).
    #[test]
    fn metaquery_parser_never_panics(input in ".{0,60}") {
        let _ = parse_metaquery(&input);
    }

    #[test]
    fn metaquery_parser_never_panics_on_near_misses(
        head in "[A-Za-z][A-Za-z0-9_']{0,5}",
        args in "[A-Za-z_,() ]{0,20}",
        body in "[A-Za-z0-9_,()<>:not ]{0,40}",
    ) {
        let _ = parse_metaquery(&format!("{head}({args}) <- {body}"));
    }

    /// The database text parser never panics either.
    #[test]
    fn database_parser_never_panics(input in "(.|\\n){0,120}") {
        let _ = parse_database(&input);
    }

    #[test]
    fn database_parser_never_panics_on_near_misses(
        name in "[a-z][a-z0-9_]{0,6}",
        cells in "[a-zA-Z0-9_,\"\\- ]{0,30}",
    ) {
        let _ = parse_database(&format!("{name}({cells})\n"));
    }
}

fn demo_db() -> Database {
    let mut db = Database::new();
    let p = db.add_relation("p", 2);
    let q = db.add_relation("q", 2);
    let r = db.add_relation("r", 2);
    for (a, b) in [(1, 2), (2, 3), (3, 4)] {
        db.insert(p, ints(&[a, b]));
        db.insert(q, ints(&[b, a]));
        db.insert(r, ints(&[a, b]));
    }
    db
}

#[test]
fn streaming_stops_after_first_answer() {
    let db = demo_db();
    let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
    let mut seen = 0;
    let stopped = find_rules_with(&db, &mq, InstType::Zero, Thresholds::none(), |_| {
        seen += 1;
        ControlFlow::Break(())
    })
    .unwrap();
    assert!(stopped);
    assert_eq!(seen, 1);
}

#[test]
fn streaming_visits_all_without_break() {
    let db = demo_db();
    let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
    let mut seen = 0;
    let stopped = find_rules_with(&db, &mq, InstType::Zero, Thresholds::none(), |_| {
        seen += 1;
        ControlFlow::Continue(())
    })
    .unwrap();
    assert!(!stopped);
    // 3 relations, 3 patterns: 27 type-0 instantiations, all reported
    // under no thresholds.
    assert_eq!(seen, 27);
}

#[test]
fn streaming_budget_pattern() {
    // A realistic consumer: stop after collecting a budget of answers.
    let db = demo_db();
    let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
    let budget = 5;
    let mut collected = Vec::new();
    find_rules_with(&db, &mq, InstType::Zero, Thresholds::none(), |a| {
        collected.push(a.clone());
        if collected.len() >= budget {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .unwrap();
    assert_eq!(collected.len(), budget);
}

/// A body past the hypertree search's 64-bit masks is a structured error
/// before any decomposition, from the library and from a served `mine`
/// (whose 64 KiB line limit admits such a body).
#[test]
fn body_beyond_the_mask_is_an_engine_error() {
    use metaquery::core::instantiate::InstError;
    use metaquery::service::{MqService, NetConfig, NetServer};
    use std::io::{BufRead, BufReader, Write};
    use std::sync::Arc;

    let mq = metaquery::datagen::metaqueries::chain(65);
    let err = find_rules(&demo_db(), &mq, InstType::Zero, Thresholds::none()).unwrap_err();
    assert!(
        matches!(
            err,
            InstError::BodyTooLarge {
                literals: 65,
                vars: 66
            }
        ),
        "got {err:?}"
    );

    let svc = Arc::new(MqService::new());
    svc.register("demo", demo_db()).unwrap();
    let mut server = NetServer::bind(svc, NetConfig::default()).unwrap();
    let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let line = format!("mine demo :: {mq}\n");
    assert!(line.len() < NetConfig::default().max_line_len);
    conn.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(conn.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.starts_with("err engine "), "got: {reply}");
    drop(conn);
    server.shutdown();
}
