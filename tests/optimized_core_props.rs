//! Equivalence of the optimized join/semijoin core with the naive
//! materializing reference implementation (`mq_relation::algebra::baseline`),
//! and determinism of the parallel `findRules` driver.
//!
//! The optimized kernels hash keys straight out of column storage, cache
//! per-relation and per-bindings indexes, and share storage across
//! clones; the baseline materializes one boxed key per row with fresh hash
//! tables per operation. On any database they must produce identical row
//! *sets* (row order is not part of the algebra's contract, so rows are
//! compared sorted).

use metaquery::cq::{is_fully_reduced, FullReducer, JoinTree};
use metaquery::prelude::*;
use mq_relation::algebra::baseline;
use mq_relation::{ints, Bindings, HeadScratch, HeadTable, Term, VarId};
use proptest::prelude::*;

fn relation_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..6, 0i64..6), 0..16)
}

fn build_db(p: &[(i64, i64)], q: &[(i64, i64)], h: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    let pr = db.add_relation("p", 2);
    let qr = db.add_relation("q", 2);
    let hr = db.add_relation("h", 2);
    for &(a, b) in p {
        db.insert(pr, ints(&[a, b]));
    }
    for &(a, b) in q {
        db.insert(qr, ints(&[a, b]));
    }
    for &(a, b) in h {
        db.insert(hr, ints(&[a, b]));
    }
    db
}

fn v(i: u32) -> VarId {
    VarId(i)
}

/// The head table of `heads` against bodies over `X`, `Y`, `Z`
/// (`v(0..3)`).
fn head_table(heads: &[Bindings]) -> HeadTable {
    let refs: Vec<&Bindings> = heads.iter().collect();
    HeadTable::build(&refs, &[v(0), v(1), v(2)])
}

/// `p(X,Y) ⋈ q(Y,Z)` in its natural column order, permuted to
/// `[Y,Z,X]`, and empty.
fn bodies(db: &Database) -> [Bindings; 3] {
    let (x, y, z) = (v(0), v(1), v(2));
    let body = Bindings::from_atom(db.rel("p"), &[Term::Var(x), Term::Var(y)]).join(
        &Bindings::from_atom(db.rel("q"), &[Term::Var(y), Term::Var(z)]),
    );
    let permuted = body.project(&[y, z, x]);
    let empty = Bindings::empty(body.vars().to_vec());
    [body, permuted, empty]
}

/// Every head's table counts against every body equal the oracle
/// semijoins, the op reports `|b|`, and the table streams each body once
/// per key holding a row.
fn check_head_table(table: &HeadTable, heads: &[Bindings], bodies: &[Bindings]) {
    let mut scratch = HeadScratch::new();
    for b in bodies {
        let body_len = table.count(b, &Bindings::unit(), &mut scratch);
        let keys_with_rows: std::collections::BTreeSet<Vec<VarId>> = heads
            .iter()
            .filter(|h| !h.is_empty())
            .map(|h| {
                let mut key: Vec<VarId> = h
                    .vars()
                    .iter()
                    .copied()
                    .filter(|&u| b.position(u).is_some())
                    .collect();
                key.sort_unstable();
                key
            })
            .filter(|key| !key.is_empty())
            .collect();
        assert_eq!(body_len, b.len());
        assert_eq!(table.live_keys(), keys_with_rows.len());
        for (hd, got) in heads.iter().zip(scratch.counts()) {
            assert_eq!(
                (got.head_hits, got.body_hits),
                (
                    baseline::semijoin(hd, b).len(),
                    baseline::semijoin(b, hd).len()
                ),
                "head over {:?} against body over {:?} ({} rows)",
                hd.vars(),
                b.vars(),
                b.len()
            );
        }
    }
}

/// Sorted row multiset projected onto `vars` — the order-insensitive,
/// column-order-insensitive comparison key for join results.
fn canon(b: &Bindings, vars: &[VarId]) -> Vec<Box<[mq_relation::Value]>> {
    b.project(vars).sorted().to_rows()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Optimized join ≡ baseline join (as row sets over the same vars).
    #[test]
    fn join_matches_baseline(
        p in relation_strategy(),
        q in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &[]);
        let a = Bindings::from_atom(db.rel("p"), &[Term::Var(v(0)), Term::Var(v(1))]);
        let b = Bindings::from_atom(db.rel("q"), &[Term::Var(v(1)), Term::Var(v(2))]);
        let fast = a.join(&b);
        let slow = baseline::join(&a, &b);
        let all = [v(0), v(1), v(2)];
        prop_assert_eq!(fast.len(), slow.len());
        prop_assert_eq!(canon(&fast, &all), canon(&slow, &all));
    }

    /// Optimized join_atom ≡ baseline from_atom + join.
    #[test]
    fn join_atom_matches_baseline(
        p in relation_strategy(),
        q in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &[]);
        let a = Bindings::from_atom(db.rel("p"), &[Term::Var(v(0)), Term::Var(v(1))]);
        let terms = [Term::Var(v(1)), Term::Var(v(1))]; // repeated variable
        let fast = a.join_atom(db.rel("q"), &terms);
        let slow = baseline::join(&a, &baseline::from_atom(db.rel("q"), &terms));
        let all = [v(0), v(1)];
        prop_assert_eq!(fast.len(), slow.len());
        prop_assert_eq!(canon(&fast, &all), canon(&slow, &all));
    }

    /// Optimized semijoin/antijoin/count ≡ baseline.
    #[test]
    fn semijoin_matches_baseline(
        p in relation_strategy(),
        q in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &[]);
        let a = Bindings::from_atom(db.rel("p"), &[Term::Var(v(0)), Term::Var(v(1))]);
        let b = Bindings::from_atom(db.rel("q"), &[Term::Var(v(1)), Term::Var(v(2))]);
        let semi = a.semijoin(&b);
        prop_assert_eq!(a.semijoin_count(&b), semi.len());
        let semi = semi.sorted();
        let semi_base = baseline::semijoin(&a, &b).sorted();
        prop_assert_eq!(semi.to_rows(), semi_base.to_rows());
        let anti = a.antijoin(&b).sorted();
        let anti_base = baseline::antijoin(&a, &b).sorted();
        prop_assert_eq!(anti.to_rows(), anti_base.to_rows());
    }

    /// The findHeads head table ≡ the two oracle semijoins,
    /// `(|h ⋉ b|, |b ⋉ h|)`, for every head merged into one table:
    /// `[X,Z]` and `[Z,X]` heads (one shared key), a head padded with a
    /// variable absent from the bodies (the type-2 shape), a
    /// repeated-variable head, and heads sharing no variable with the
    /// bodies — against the body join in its natural and a permuted
    /// column order, and against an empty body.
    #[test]
    fn head_counts_match_baseline_semijoins(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &h);
        let (x, y, z, pad, other) = (v(0), v(1), v(2), v(8), v(9));
        let head = |a: VarId, b: VarId| Bindings::from_atom(db.rel("h"), &[Term::Var(a), Term::Var(b)]);
        let heads = [
            head(x, z),
            head(z, x),
            head(x, pad),
            head(y, y),
            head(pad, other),
            Bindings::empty(vec![pad, other]),
        ];
        let table = head_table(&heads);
        let keys: Vec<Vec<VarId>> = table.keys().map(<[VarId]>::to_vec).collect();
        prop_assert_eq!(keys, vec![vec![x, z], vec![x], vec![y]]);
        check_head_table(&table, &heads, &bodies(&db));
    }

    /// Heads with two different keys get two tables, and each body is
    /// streamed once per key.
    #[test]
    fn head_counts_with_two_keys(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &h);
        let (x, y, z) = (v(0), v(1), v(2));
        let head = |a: VarId, b: VarId| Bindings::from_atom(db.rel("h"), &[Term::Var(a), Term::Var(b)]);
        let heads = [head(x, z), head(y, x), head(z, x)];
        let table = head_table(&heads);
        let keys: Vec<Vec<VarId>> = table.keys().map(<[VarId]>::to_vec).collect();
        prop_assert_eq!(keys, vec![vec![x, z], vec![x, y]]);
        check_head_table(&table, &heads, &bodies(&db));
    }

    /// A tiny domain in which the heads hold every key: every body row
    /// passes the filter and hits the table.
    #[test]
    fn head_counts_when_every_body_key_hits(
        p in relation_strategy(),
        q in relation_strategy(),
    ) {
        let bit = |rel: &[(i64, i64)]| rel.iter().map(|&(a, b)| (a % 2, b % 2)).collect::<Vec<_>>();
        let square = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let db = build_db(&bit(&p), &bit(&q), &square);
        let (x, z, pad) = (v(0), v(2), v(8));
        let head = |a: VarId, b: VarId| Bindings::from_atom(db.rel("h"), &[Term::Var(a), Term::Var(b)]);
        let heads = [head(x, z), head(z, x), head(x, pad)];
        let table = head_table(&heads);
        let bodies = bodies(&db);
        check_head_table(&table, &heads, &bodies);
        let mut scratch = HeadScratch::new();
        table.count(&bodies[0], &Bindings::unit(), &mut scratch);
        for c in scratch.counts() {
            prop_assert_eq!(c.body_hits, bodies[0].len());
        }
    }

    /// Optimized project/count_distinct ≡ baseline.
    #[test]
    fn project_matches_baseline(
        p in relation_strategy(),
        keep0 in proptest::bool::ANY,
    ) {
        let db = build_db(&p, &[], &[]);
        let a = Bindings::from_atom(db.rel("p"), &[Term::Var(v(0)), Term::Var(v(1))]);
        let vars = if keep0 { vec![v(0)] } else { vec![v(1), v(0)] };
        let fast = a.project(&vars);
        prop_assert_eq!(a.count_distinct(&vars), fast.len());
        prop_assert_eq!(a.count_distinct(&vars), baseline::count_distinct(&a, &vars));
        let fast = fast.sorted();
        let slow = baseline::project(&a, &vars).sorted();
        prop_assert_eq!(fast.to_rows(), slow.to_rows());
    }

    /// The full reducer (one `Bindings::semijoin` per step) fully
    /// reduces and matches the same program run on the baseline
    /// semijoin.
    #[test]
    fn full_reduce_matches_baseline(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &h);
        let cq = metaquery::cq::Cq::new(vec![
            metaquery::cq::Atom::vars_atom(db.rel_id("p").unwrap(), &[v(0), v(1)]),
            metaquery::cq::Atom::vars_atom(db.rel_id("q").unwrap(), &[v(1), v(2)]),
            metaquery::cq::Atom::vars_atom(db.rel_id("h").unwrap(), &[v(2), v(3)]),
        ]);
        let tree = JoinTree::for_cq(&cq).unwrap();
        let reducer = FullReducer::from_join_tree(&tree);
        let mut fast: Vec<Bindings> = cq
            .atoms
            .iter()
            .map(|a| Bindings::from_atom(db.relation(a.rel), &a.terms))
            .collect();
        let mut slow = fast.clone();
        reducer.run(&mut fast);
        // Reference: every step with the baseline semijoin.
        for step in reducer.steps() {
            slow[step.target] = baseline::semijoin(&slow[step.target], &slow[step.source]);
        }
        for (f, s) in fast.iter().zip(slow.iter()) {
            let (f, s) = (f.clone().sorted(), s.clone().sorted());
            prop_assert_eq!(f.to_rows(), s.to_rows());
        }
        prop_assert!(is_fully_reduced(&fast));
    }

    /// The cost-guided λ-join planner and its partial-join memo must not
    /// change answers: planned `find_rules` ≡ the naive guess-and-check
    /// engine on random cyclic (hypertree width 2) metaqueries — the
    /// shapes whose completed decompositions put several atoms, including
    /// variable-disjoint pairs, into one vertex's λ label.
    #[test]
    fn planned_node_joins_match_naive_on_width2_cycles(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
        four_cycle in proptest::bool::ANY,
        ksup in 0u64..3,
    ) {
        let db = build_db(&p, &q, &h);
        let text = if four_cycle {
            "R(X0,X1) <- P0(X0,X1), P1(X1,X2), P2(X2,X3), P3(X3,X0)"
        } else {
            "R(X0,X1) <- P0(X0,X1), P1(X1,X2), P2(X2,X0)"
        };
        let mq = parse_metaquery(text).unwrap();
        prop_assert_eq!(
            metaquery::core::engine::find_rules::body_decomposition(&mq).width,
            2
        );
        let th = Thresholds::all(Frac::new(ksup, 4), Frac::ZERO, Frac::ZERO);
        let planned = find_rules(&db, &mq, InstType::Zero, th).unwrap();
        let reference = naive_find_all(&db, &mq, InstType::Zero, th).unwrap();
        prop_assert_eq!(planned, reference);
    }

    /// Parallel findRules returns exactly the sequential engine's answers,
    /// in the same (sorted) order.
    #[test]
    fn parallel_find_rules_deterministic(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
        ksup in 0u64..3,
    ) {
        rayon::set_thread_override(Some(3));
        let db = build_db(&p, &q, &h);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let th = Thresholds::all(Frac::new(ksup, 4), Frac::ZERO, Frac::ZERO);
        let par = find_rules(&db, &mq, InstType::Zero, th).unwrap();
        let seq =
            metaquery::core::engine::find_rules::find_rules_seq(&db, &mq, InstType::Zero, th)
                .unwrap();
        prop_assert_eq!(par, seq);
        rayon::set_thread_override(None);
    }

    /// The cross-worker shared memo service must not change answers:
    /// with 4 workers hammering one global memo, `find_rules` stays
    /// byte-identical to `find_rules_seq` on random databases, for chain
    /// and width-2 cycle shapes (single- and multi-atom λ labels).
    #[test]
    fn shared_memo_find_rules_matches_seq(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
        cyclic in proptest::bool::ANY,
        ksup in 0u64..3,
    ) {
        let db = build_db(&p, &q, &h);
        let text = if cyclic {
            "R(X0,X1) <- P0(X0,X1), P1(X1,X2), P2(X2,X0)"
        } else {
            "R(X,Z) <- P(X,Y), Q(Y,Z)"
        };
        let mq = parse_metaquery(text).unwrap();
        let th = Thresholds::all(Frac::new(ksup, 4), Frac::ZERO, Frac::ZERO);
        let seq =
            metaquery::core::engine::find_rules::find_rules_seq(&db, &mq, InstType::Zero, th)
                .unwrap();
        rayon::set_thread_override(Some(4));
        let par = find_rules(&db, &mq, InstType::Zero, th).unwrap();
        rayon::set_thread_override(None);
        prop_assert_eq!(par, seq);
    }

    /// `find_rules` and the naive baseline engine give identical answers
    /// on chain, triangle and `I(X) <- O(X), N(X)` shapes, at types 0
    /// and 2. Type 2 pads the last shape's unary patterns onto binary
    /// relations with variables outside every decomposition vertex,
    /// which the engine joins into each atom's home vertex.
    #[test]
    fn columnar_and_baseline_agree(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
        shape in 0usize..3,
        padded in proptest::bool::ANY,
        ksup in 0u64..3,
    ) {
        let db = build_db(&p, &q, &h);
        let text = match shape {
            0 => "R(X,Z) <- P(X,Y), Q(Y,Z)",
            1 => "R(X0,X1) <- P0(X0,X1), P1(X1,X2), P2(X2,X0)",
            _ => "I(X) <- O(X), N(X)",
        };
        let ty = if padded { InstType::Two } else { InstType::Zero };
        let mq = parse_metaquery(text).unwrap();
        let th = Thresholds::all(Frac::new(ksup, 4), Frac::ZERO, Frac::ZERO);
        let reference = naive_find_all(&db, &mq, ty, th).unwrap();
        let got = find_rules(&db, &mq, ty, th).unwrap();
        prop_assert_eq!(&got, &reference, "columnar find_rules diverged on {}", text);
    }

    /// The Plan IR → Executor pipeline must not change answers: planned
    /// `find_rules` ≡ the naive guess-and-check engine on random chains,
    /// stars and width-2 cycles — the shapes exercising single-atom
    /// plans, shared-variable fans, and multi-atom λ labels (including
    /// variable-disjoint pairs) respectively.
    #[test]
    fn plan_ir_executor_matches_naive(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
        shape in 0usize..5,
        ksup in 0u64..3,
    ) {
        let db = build_db(&p, &q, &h);
        let text = match shape {
            0 => "R(X0,X1) <- P0(X0,X1)",                                     // chain(1)
            1 => "R(X0,X2) <- P0(X0,X1), P1(X1,X2)",                          // chain(2)
            2 => "R(X0) <- P0(X0,X1), P1(X0,X2), P2(X0,X3)",                  // star(3)
            3 => "R(X0,X1) <- P0(X0,X1), P1(X1,X2), P2(X2,X0)",               // triangle
            _ => "R(X0,X1) <- P0(X0,X1), P1(X1,X2), P2(X2,X3), P3(X3,X0)",    // 4-cycle
        };
        let mq = parse_metaquery(text).unwrap();
        let th = Thresholds::all(Frac::new(ksup, 4), Frac::ZERO, Frac::ZERO);
        let planned = find_rules(&db, &mq, InstType::Zero, th).unwrap();
        let reference = naive_find_all(&db, &mq, InstType::Zero, th).unwrap();
        prop_assert_eq!(planned, reference);
    }
}

/// The head table streams each body row once per key, whatever the
/// number of heads, and a padded head's cover counts its whole key
/// group: every head row whose key occurs in the body.
#[test]
fn head_counts_stream_each_body_row_once_per_key() {
    let (x, y, pad) = (v(0), v(1), v(5));
    let rows = |pairs: &[(i64, i64)]| pairs.iter().map(|&(a, b)| ints(&[a, b])).collect();
    // 6 body rows over keys X ∈ {1, 2, 3}.
    let body = Bindings::from_parts(
        vec![x, y],
        rows(&[(1, 0), (1, 1), (2, 0), (3, 0), (3, 1), (3, 2)]),
    );
    // Padded head: key X = 1 has two rows, X = 3 one, X = 9 misses.
    let padded = Bindings::from_parts(vec![pad, x], rows(&[(0, 1), (1, 1), (0, 3), (0, 9)]));
    let plain = Bindings::from_parts(vec![x], [1, 3, 4, 5].iter().map(|&a| ints(&[a])).collect());
    let table = HeadTable::build(&[&padded, &plain], &[x, y]);
    let mut scratch = HeadScratch::new();
    assert_eq!(
        table.count(&body, &Bindings::unit(), &mut scratch),
        body.len()
    );
    assert_eq!(
        table.live_keys(),
        1,
        "two heads over one key stream the body once"
    );
    let got: Vec<(usize, usize)> = scratch
        .counts()
        .iter()
        .map(|c| (c.head_hits, c.body_hits))
        .collect();
    assert_eq!(got, vec![(3, 5), (2, 5)]);
    for (hd, c) in [&padded, &plain].iter().zip(&got) {
        assert_eq!(
            *c,
            (
                baseline::semijoin(hd, &body).len(),
                baseline::semijoin(&body, hd).len()
            )
        );
    }
}

/// The scheduler must be deterministic across thread counts:
/// byte-identical `find_rules` output for `MQ_THREADS ∈ {1, 2, 4}` (set
/// via the thread-local override — env mutation is unsound under
/// concurrent reads), on shapes whose enumeration actually spans
/// multiple patterns and a shared predicate variable. The split depth
/// is the constant `parallel::SPLIT_DEPTH`, so only the thread count
/// varies.
#[test]
fn find_rules_deterministic_across_threads_and_split_depths() {
    use mq_relation::ints;

    let mut db = Database::new();
    let rels = [("p", 2), ("q", 2), ("r", 2)];
    let mut x = 0i64;
    for (name, ar) in rels {
        let id = db.add_relation(name, ar);
        for i in 0..14 {
            x = (x * 31 + 17) % 97; // deterministic pseudo-data
            db.insert(id, ints(&[x % 5, (x + i) % 5]));
        }
    }
    for text in [
        "R(X,Z) <- P(X,Y), Q(Y,Z)",
        "P(X,Y) <- P(Y,Z), Q(Z,W)", // shared pv between head and body
        "R(X0,X1) <- P0(X0,X1), P1(X1,X2), P2(X2,X0)", // width 2
    ] {
        let mq = parse_metaquery(text).unwrap();
        for th in [
            Thresholds::none(),
            Thresholds::all(Frac::new(1, 10), Frac::new(1, 10), Frac::new(1, 10)),
        ] {
            let reference =
                metaquery::core::engine::find_rules::find_rules_seq(&db, &mq, InstType::Zero, th)
                    .unwrap();
            for threads in [1usize, 2, 4] {
                rayon::set_thread_override(Some(threads));
                let got = find_rules(&db, &mq, InstType::Zero, th).unwrap();
                rayon::set_thread_override(None);
                assert_eq!(
                    got, reference,
                    "output must be byte-identical for {text} at MQ_THREADS={threads}"
                );
            }
        }
    }
}
