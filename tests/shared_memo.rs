//! Cross-thread shared-memo stress coverage.
//!
//! The shared memo service (`mq-store`'s `ShardedMemo` under
//! `mq_core::engine::memo`) lets every scheduler worker read and publish
//! into one global memo. These tests hammer a single search's memo from
//! a forced 4-worker pool and assert the contract the service must keep:
//! `find_rules` output is **byte-identical** to the sequential engine.
//!
//! The thread override (`set_thread_override`) is thread-local: each
//! test sets it on its own thread, so the tests need no lock.

use metaquery::core::engine::find_rules::{find_rules, find_rules_instrumented, find_rules_seq};
use metaquery::core::engine::memo::SharedMemos;
use metaquery::prelude::*;
use std::sync::Arc;

/// A deterministic pseudo-random database over `rels` (no RNG dep).
fn stress_db(rels: &[(&str, usize)], rows: usize, dom: i64) -> Database {
    let mut db = Database::new();
    let mut x = 7i64;
    for &(name, ar) in rels {
        let id = db.add_relation(name, ar);
        for i in 0..rows {
            let row: Vec<_> = (0..ar)
                .map(|j| {
                    x = (x * 31 + 17 * (i as i64 + 1) + j as i64) % 1009;
                    mq_relation::Value::Int(x % dom)
                })
                .collect();
            db.insert(id, row.into_boxed_slice());
        }
    }
    db
}

/// Four workers hammer one shared memo across metaquery shapes that
/// exercise single-atom plans, multi-atom λ labels (width 2) and shared
/// predicate variables. Every round must reproduce the sequential
/// answers byte-identically. The split depth is the constant
/// `parallel::SPLIT_DEPTH`.
#[test]
fn four_workers_hammer_one_shared_memo_at_both_split_depths() {
    let db = stress_db(&[("p", 2), ("q", 2), ("r", 2)], 24, 6);
    for text in [
        "R(X,Z) <- P(X,Y), Q(Y,Z)",
        "P(X,Y) <- P(Y,Z), Q(Z,W)",
        "R(X0,X1) <- P0(X0,X1), P1(X1,X2), P2(X2,X0)",
    ] {
        let mq = parse_metaquery(text).unwrap();
        for th in [
            Thresholds::none(),
            Thresholds::all(Frac::new(1, 10), Frac::new(1, 10), Frac::new(1, 10)),
        ] {
            let reference = find_rules_seq(&db, &mq, InstType::Zero, th).unwrap();
            rayon::set_thread_override(Some(4));
            // Several rounds: the first warms the memo inside one call;
            // later calls re-create the service and re-race the
            // publication paths from a cold start.
            for round in 0..3 {
                let got = find_rules(&db, &mq, InstType::Zero, th).unwrap();
                assert_eq!(
                    got, reference,
                    "shared-memo answers diverged for {text} at round={round}"
                );
            }
            rayon::set_thread_override(None);
        }
    }
}

/// A shared-memo search actually exercises the service: the instance
/// counters record traffic, and repeated executions inside one search
/// produce hits (the whole point of sharing). Instance stats attribute
/// exactly this search — no drain-the-globals dance.
#[test]
fn shared_memo_counters_record_hits() {
    let db = stress_db(&[("p", 2), ("q", 2)], 16, 4);
    let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
    let memos = Arc::new(SharedMemos::new());
    let got = find_rules_instrumented(
        &db,
        &mq,
        InstType::Zero,
        Thresholds::none(),
        Some(Arc::clone(&memos)),
        None,
        None,
        0,
    )
    .unwrap();
    let reference = find_rules(&db, &mq, InstType::Zero, Thresholds::none()).unwrap();
    assert_eq!(got, reference, "externally-owned memo service diverged");
    let stats = memos.stats();
    assert!(
        stats.hits > 0 && stats.misses > 0,
        "a multi-candidate search must both miss (first eval) and hit \
         (re-use), got {stats:?}"
    );
    assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
}
