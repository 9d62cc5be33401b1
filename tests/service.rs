//! End-to-end coverage of the serving subsystem (`mq-service`).
//!
//! The contract under test: **every served answer is byte-identical to a
//! cold `find_rules_seq` run over the snapshot it was answered against**
//! — across concurrent sessions hammering one catalog entry, across
//! in-flight dedup (one search fanned out to many callers), and across
//! copy-on-write updates (new sessions see the new snapshot, pinned
//! sessions stay on theirs, and a superseded relation version is freed
//! once no snapshot reads it).

use metaquery::core::engine::find_rules::find_rules_seq;
use metaquery::prelude::*;
use metaquery::service::{MetaqueryRequest, MqService, ServiceConfig, SessionBudget};
use std::sync::{Arc, Barrier};

/// A deterministic pseudo-random database (no RNG dependency).
fn stress_db(rels: &[(&str, usize)], rows: usize, dom: i64) -> Database {
    let mut db = Database::new();
    let mut x = 11i64;
    for &(name, ar) in rels {
        let id = db.add_relation(name, ar);
        for i in 0..rows {
            let row: Vec<_> = (0..ar)
                .map(|j| {
                    x = (x * 37 + 13 * (i as i64 + 1) + j as i64) % 997;
                    mq_relation::Value::Int(x % dom)
                })
                .collect();
            db.insert(id, row.into_boxed_slice());
        }
    }
    db
}

const SHAPES: [&str; 3] = [
    "R(X,Z) <- P(X,Y), Q(Y,Z)",
    "P(X,Y) <- P(Y,Z), Q(Z,W)",
    "R(X0,X1) <- P0(X0,X1), P1(X1,X2), P2(X2,X0)",
];

fn seq_reference(db: &Database, mq_text: &str, th: Thresholds) -> Vec<MqAnswer> {
    let mq = parse_metaquery(mq_text).unwrap();
    find_rules_seq(db, &mq, InstType::Zero, th).unwrap()
}

/// Many sessions over one catalog entry, mixed metaquery shapes and
/// thresholds: every outcome must be byte-identical to the sequential
/// reference over the same snapshot.
#[test]
fn concurrent_sessions_match_find_rules_seq() {
    let db = stress_db(&[("p", 2), ("q", 2), ("r", 2)], 20, 6);
    let svc = MqService::new();
    svc.register("tele", db.clone()).unwrap();
    let thresholds = [
        Thresholds::none(),
        Thresholds::all(Frac::new(1, 10), Frac::new(1, 10), Frac::new(1, 10)),
    ];
    let expected: Vec<Vec<Vec<MqAnswer>>> = SHAPES
        .iter()
        .map(|mq| {
            thresholds
                .iter()
                .map(|&th| seq_reference(&db, mq, th))
                .collect()
        })
        .collect();
    std::thread::scope(|s| {
        for session in 0..4 {
            let svc = &svc;
            let expected = &expected;
            s.spawn(move || {
                let sess = svc.session("tele").unwrap();
                // Each session walks the shapes in a different order.
                for k in 0..SHAPES.len() {
                    let i = (k + session) % SHAPES.len();
                    for (j, &th) in thresholds.iter().enumerate() {
                        let out = sess.query(SHAPES[i], InstType::Zero, th).unwrap();
                        assert_eq!(
                            *out.answers, expected[i][j],
                            "session {session} diverged on {} ({th:?})",
                            SHAPES[i]
                        );
                        assert_eq!(out.db_version, 1);
                    }
                }
            });
        }
    });
    let m = svc.metrics();
    assert_eq!(m.requests, 4 * (SHAPES.len() as u64) * 2);
    assert_eq!(m.executed + m.deduped, m.requests);
}

/// Identical concurrent requests coalesce onto one search: everyone gets
/// the same (shared) answers, and at least one caller was served without
/// executing. A barrier releases all callers at once so the overlap
/// window is the whole search.
#[test]
fn dedup_coalesces_identical_in_flight_requests() {
    const CALLERS: usize = 8;
    // Big enough that one search takes a few milliseconds — the overlap
    // window the followers land in.
    let db = stress_db(&[("p", 2), ("q", 2), ("r", 2)], 60, 12);
    let svc = Arc::new(MqService::new());
    svc.register("tele", db.clone()).unwrap();
    let expected = seq_reference(&db, SHAPES[0], Thresholds::none());
    let barrier = Arc::new(Barrier::new(CALLERS));
    let mut handles = Vec::new();
    for _ in 0..CALLERS {
        let svc = Arc::clone(&svc);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            svc.query(&MetaqueryRequest::new("tele", SHAPES[0]))
                .unwrap()
        }));
    }
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut shared = 0;
    for out in &outcomes {
        assert_eq!(*out.answers, expected);
        if out.shared {
            shared += 1;
            // A deduplicated caller holds the owner's very Vec.
            assert!(outcomes
                .iter()
                .any(|o| !o.shared && Arc::ptr_eq(&o.answers, &out.answers)));
        }
    }
    let m = svc.metrics();
    assert_eq!(m.deduped as usize, shared);
    assert_eq!(m.executed as usize + shared, CALLERS);
    assert!(
        shared >= 1,
        "8 barrier-released identical requests must overlap at least once \
         (executed={}, deduped={shared})",
        m.executed
    );
}

/// A copy-on-write update bumps the version: post-update queries match
/// the sequential reference on the *new* database, a session opened
/// before the update keeps answering from the *old* snapshot, and no
/// combination ever serves stale (or too-fresh) bindings.
#[test]
fn generation_bump_never_serves_stale_answers() {
    let old_db = stress_db(&[("p", 2), ("q", 2)], 16, 5);
    let svc = MqService::new();
    svc.register("tele", old_db.clone()).unwrap();
    let th = Thresholds::none();

    // Warm the caches on the old snapshot.
    let warm = svc
        .query(&MetaqueryRequest::new("tele", SHAPES[0]))
        .unwrap();
    assert_eq!(*warm.answers, seq_reference(&old_db, SHAPES[0], th));

    // Pin a session, then update mid-flight.
    let pinned = svc.session("tele").unwrap();
    // Values outside the generated domain, so the rows are guaranteed
    // new and the update genuinely changes the relation.
    let new_handle = svc
        .append_rows(
            "tele",
            "q",
            vec![
                mq_relation::ints(&[100, 100]),
                mq_relation::ints(&[200, 200]),
            ],
        )
        .unwrap();
    assert_eq!(new_handle.version(), 2);
    let new_db = (**new_handle.database()).clone();

    // The pinned session still answers from the old rows...
    let old_again = pinned.query(SHAPES[0], InstType::Zero, th).unwrap();
    assert_eq!(*old_again.answers, seq_reference(&old_db, SHAPES[0], th));
    assert_eq!(old_again.db_version, 1);

    // ...while fresh queries see the update exactly.
    let fresh = svc
        .query(&MetaqueryRequest::new("tele", SHAPES[0]))
        .unwrap();
    assert_eq!(*fresh.answers, seq_reference(&new_db, SHAPES[0], th));
    assert_eq!(fresh.db_version, 2);
    assert_ne!(*fresh.answers, *old_again.answers, "update must be visible");

    // Interleave once more: old and new snapshots answered back to back,
    // sharing the untouched relation p, stay consistent with their own
    // rows.
    let old_final = pinned.query(SHAPES[1], InstType::Zero, th).unwrap();
    assert_eq!(*old_final.answers, seq_reference(&old_db, SHAPES[1], th));
    let new_final = svc
        .query(&MetaqueryRequest::new("tele", SHAPES[1]))
        .unwrap();
    assert_eq!(*new_final.answers, seq_reference(&new_db, SHAPES[1], th));
}

/// The service keeps no copy of a relation beyond the snapshots that
/// read it: once an update supersedes a snapshot and its last handle is
/// dropped, the old relation version — and the indexes a search built
/// over it — are freed, even though a search ran on it.
#[test]
fn superseded_relation_versions_are_freed() {
    let db = stress_db(&[("p", 2), ("q", 2)], 16, 5);
    let svc = MqService::new();
    let old = svc.register("tele", db).unwrap();
    svc.query(&MetaqueryRequest::new("tele", SHAPES[0]))
        .unwrap();
    let old_index = Arc::downgrade(&old.database().rel("q").group_index(&[0]));
    let new = svc
        .append_rows("tele", "q", vec![mq_relation::ints(&[100, 100])])
        .unwrap();
    drop(old);
    let out = svc
        .query(&MetaqueryRequest::new("tele", SHAPES[0]))
        .unwrap();
    assert_eq!(
        *out.answers,
        seq_reference(new.database(), SHAPES[0], Thresholds::none())
    );
    assert!(
        old_index.upgrade().is_none(),
        "the superseded q's index must be freed with its last snapshot"
    );
}

/// Budgeted sessions truncate the sorted answer list deterministically,
/// and bounded admission (max_concurrent=1) serializes execution without
/// losing or corrupting any request.
#[test]
fn budgets_and_admission_control() {
    let db = stress_db(&[("p", 2), ("q", 2)], 14, 5);
    let svc = Arc::new(MqService::with_config(ServiceConfig {
        max_concurrent: 1,
        ..ServiceConfig::default()
    }));
    svc.register("tele", db.clone()).unwrap();
    let expected = seq_reference(&db, SHAPES[0], Thresholds::none());
    assert!(expected.len() > 3);

    let budgeted = svc
        .session_with_budget(
            "tele",
            SessionBudget {
                max_answers: Some(3),
                ..SessionBudget::default()
            },
        )
        .unwrap();
    let out = budgeted
        .query(SHAPES[0], InstType::Zero, Thresholds::none())
        .unwrap();
    assert_eq!(&out.answers[..], &expected[..3], "sorted prefix is kept");

    // Distinct requests (different budgets) under a 1-permit gate: all
    // answered, none coalesced (the budget is part of the dedup key).
    std::thread::scope(|s| {
        for limit in 1..=4usize {
            let svc = Arc::clone(&svc);
            let expected = expected.clone();
            s.spawn(move || {
                let req = MetaqueryRequest {
                    max_answers: Some(limit),
                    ..MetaqueryRequest::new("tele", SHAPES[0])
                };
                let out = svc.query(&req).unwrap();
                assert_eq!(&out.answers[..], &expected[..limit]);
            });
        }
    });
}
