//! Cross-engine agreement: the naive enumerate-and-measure engine and the
//! Figure 4 `findRules` engine must return identical answer sets on every
//! input — across instantiation types, thresholds, metaquery shapes
//! (including cyclic bodies, fixed atoms, shared predicate variables and
//! mixed arities), and database skews.

use metaquery::core::engine::{find_rules::find_rules, naive, sort_answers};
use metaquery::datagen::{metaqueries, RandomDbSpec, SkewedDbSpec};
use metaquery::prelude::*;
use rand::prelude::*;

fn assert_agree(db: &Database, mq: &Metaquery, ty: InstType, th: Thresholds, label: &str) {
    let mut a = naive::find_all(db, mq, ty, th).unwrap();
    let mut b = find_rules(db, mq, ty, th).unwrap();
    sort_answers(&mut a);
    sort_answers(&mut b);
    assert_eq!(a.len(), b.len(), "{label}: answer counts differ");
    assert_eq!(a, b, "{label}: answers differ");
}

fn threshold_grid() -> Vec<Thresholds> {
    vec![
        Thresholds::none(),
        Thresholds::all(Frac::ZERO, Frac::ZERO, Frac::ZERO),
        Thresholds::all(Frac::new(1, 2), Frac::new(1, 2), Frac::new(1, 2)),
        Thresholds::all(Frac::new(1, 4), Frac::ZERO, Frac::new(3, 4)),
        Thresholds::single(IndexKind::Sup, Frac::new(2, 3)),
        Thresholds::single(IndexKind::Cvr, Frac::new(1, 3)),
        Thresholds::single(IndexKind::Cnf, Frac::new(1, 5)),
    ]
}

#[test]
fn chain_metaqueries_all_types() {
    for seed in 0..4 {
        let db = RandomDbSpec {
            n_relations: 3,
            arity: 2,
            rows: 14,
            domain: 5,
            seed,
        }
        .generate();
        let mq = metaqueries::chain(2);
        for ty in InstType::ALL {
            for th in threshold_grid() {
                assert_agree(&db, &mq, ty, th, &format!("chain2 seed={seed} {ty}"));
            }
        }
    }
}

#[test]
fn longer_chains_and_stars() {
    for seed in 0..3 {
        let db = RandomDbSpec {
            n_relations: 2,
            arity: 2,
            rows: 12,
            domain: 4,
            seed: 100 + seed,
        }
        .generate();
        for mq in [metaqueries::chain(3), metaqueries::star(3)] {
            assert_agree(
                &db,
                &mq,
                InstType::Zero,
                Thresholds::all(Frac::ZERO, Frac::ZERO, Frac::ZERO),
                &format!("shape seed={seed}"),
            );
        }
    }
}

#[test]
fn cyclic_bodies_width_two() {
    for seed in 0..3 {
        let db = RandomDbSpec {
            n_relations: 2,
            arity: 2,
            rows: 10,
            domain: 4,
            seed: 200 + seed,
        }
        .generate();
        let mq = metaqueries::cycle(4);
        assert_agree(
            &db,
            &mq,
            InstType::Zero,
            Thresholds::all(Frac::new(1, 10), Frac::ZERO, Frac::ZERO),
            &format!("cycle4 seed={seed}"),
        );
    }
}

#[test]
fn skewed_databases() {
    for skew in [0.0, 1.0, 2.5] {
        let db = SkewedDbSpec {
            n_relations: 3,
            arity: 2,
            rows: 25,
            domain: 8,
            skew,
            seed: 300,
        }
        .generate();
        let mq = metaqueries::chain(2);
        for ty in [InstType::Zero, InstType::One] {
            assert_agree(
                &db,
                &mq,
                ty,
                Thresholds::all(Frac::new(1, 2), Frac::new(1, 4), Frac::new(1, 4)),
                &format!("skew={skew} {ty}"),
            );
        }
    }
}

#[test]
fn mixed_arities_type2() {
    let mut rng = StdRng::seed_from_u64(400);
    for round in 0..3 {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        let t = db.add_relation("t", 3);
        for _ in 0..8 {
            db.insert(
                p,
                mq_relation::ints(&[rng.gen_range(0..4), rng.gen_range(0..4)]),
            );
            db.insert(
                t,
                mq_relation::ints(&[
                    rng.gen_range(0..4),
                    rng.gen_range(0..4),
                    rng.gen_range(0..4),
                ]),
            );
        }
        let mq = metaqueries::chain(2);
        assert_agree(
            &db,
            &mq,
            InstType::Two,
            Thresholds::all(Frac::new(1, 10), Frac::ZERO, Frac::ZERO),
            &format!("type2 round={round}"),
        );
    }
}

#[test]
fn fixed_atoms_and_shared_predvars() {
    let mut rng = StdRng::seed_from_u64(500);
    for round in 0..4 {
        let mut db = Database::new();
        let e = db.add_relation("e", 2);
        let a = db.add_relation("a", 1);
        let b = db.add_relation("b", 1);
        for _ in 0..10 {
            db.insert(
                e,
                mq_relation::ints(&[rng.gen_range(0..5), rng.gen_range(0..5)]),
            );
        }
        for _ in 0..4 {
            db.insert(a, mq_relation::ints(&[rng.gen_range(0..5)]));
            db.insert(b, mq_relation::ints(&[rng.gen_range(0..5)]));
        }
        // Semi-acyclic with a fixed atom and a shared predicate variable.
        let mq = parse_metaquery("N(X) <- N(Y), e(X,Y)").unwrap();
        for th in threshold_grid() {
            assert_agree(
                &db,
                &mq,
                InstType::Zero,
                th,
                &format!("fixed round={round}"),
            );
        }
        // Head fixed, body patterns.
        let mq2 = parse_metaquery("e(X,Y) <- P(X,Z), Q(Z,Y)").unwrap();
        assert_agree(
            &db,
            &mq2,
            InstType::Zero,
            Thresholds::all(Frac::ZERO, Frac::ZERO, Frac::ZERO),
            &format!("fixed-head round={round}"),
        );
    }
}

#[test]
fn decide_agrees_on_reduction_instances() {
    // The reduction instances are adversarial inputs for the engines:
    // many repeated predicate variables and a wide body.
    use metaquery::reductions::{reduce_3col, Graph};
    let mut rng = StdRng::seed_from_u64(600);
    for _ in 0..4 {
        let g = Graph::random(5, 0.5, &mut rng);
        if g.edges.is_empty() {
            continue;
        }
        let inst = reduce_3col::reduce(&g);
        for kind in IndexKind::ALL {
            let p = MqProblem {
                index: kind,
                threshold: Frac::ZERO,
                ty: InstType::Zero,
            };
            assert_eq!(
                naive::decide(&inst.db, &inst.mq, p).unwrap(),
                metaquery::core::engine::find_rules::decide(&inst.db, &inst.mq, p).unwrap(),
                "3col graph {g:?} via {kind}"
            );
        }
    }
}

#[test]
fn telecom_database_full_sweep() {
    let db = metaquery::datagen::telecom::db1();
    let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
    for ty in InstType::ALL {
        for th in threshold_grid() {
            assert_agree(&db, &mq, ty, th, &format!("telecom {ty}"));
        }
    }
}

/// Two relations over disjoint values: every body joining `lo` with
/// `hi` is empty. Under thresholds that accept all-zero rules, those
/// bodies are still answered, so the counted reductions must report
/// them exactly as the naive engine does.
#[test]
fn empty_reductions_under_zero_accepting_thresholds() {
    let mut rng = StdRng::seed_from_u64(700);
    for round in 0..4 {
        let mut db = Database::new();
        let lo = db.add_relation("lo", 2);
        let hi = db.add_relation("hi", 2);
        for _ in 0..10 {
            let (a, b) = (rng.gen_range(0..4), rng.gen_range(0..4));
            db.insert(lo, mq_relation::ints(&[a, b]));
            db.insert(hi, mq_relation::ints(&[a + 10, b + 10]));
        }
        let mq = metaqueries::chain(2);
        for ty in InstType::ALL {
            for th in [
                Thresholds::none(),
                Thresholds::all(Frac::ZERO, Frac::ZERO, Frac::ZERO),
                Thresholds::single(IndexKind::Cvr, Frac::ZERO),
            ] {
                assert_agree(&db, &mq, ty, th, &format!("empty round={round} {ty}"));
            }
        }
    }
}

/// A three-vertex chain of type 1: permuted atoms over one relation
/// all share that relation's columns and index cache. The search runs
/// twice on one database, so the second reads every index the first
/// left in the relations' caches.
#[test]
fn three_vertex_chain_type1_on_shared_indexes() {
    use metaquery::core::engine::find_rules::body_decomposition;
    let mq = metaqueries::chain(3);
    assert_eq!(body_decomposition(&mq).vertices, 3);
    for seed in 0..3 {
        let db = RandomDbSpec {
            n_relations: 2,
            arity: 2,
            rows: 12,
            domain: 4,
            seed,
        }
        .generate();
        for pass in 0..2 {
            for th in threshold_grid() {
                assert_agree(
                    &db,
                    &mq,
                    InstType::One,
                    th,
                    &format!("chain3 seed={seed} pass={pass}"),
                );
            }
        }
    }
}

/// Type-2 bodies whose ternary atoms are padded with a variable outside
/// every χ: the padding joins into the atom's (gathered) home vertex.
#[test]
fn type2_padded_bodies() {
    let mut rng = StdRng::seed_from_u64(800);
    for round in 0..3 {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        let t = db.add_relation("t", 3);
        for _ in 0..10 {
            let v = |rng: &mut StdRng| rng.gen_range(0..4);
            db.insert(p, mq_relation::ints(&[v(&mut rng), v(&mut rng)]));
            db.insert(
                t,
                mq_relation::ints(&[v(&mut rng), v(&mut rng), v(&mut rng)]),
            );
        }
        let mq = metaqueries::chain(2);
        for th in threshold_grid() {
            assert_agree(
                &db,
                &mq,
                InstType::Two,
                th,
                &format!("padded round={round}"),
            );
        }
    }
}

/// Negated bodies build `b` from the same first-half relations, then
/// antijoin it.
#[test]
fn negated_bodies() {
    for seed in 0..3 {
        let db = RandomDbSpec {
            n_relations: 3,
            arity: 2,
            rows: 14,
            domain: 5,
            seed: 900 + seed,
        }
        .generate();
        for text in [
            "R(X,Z) <- P(X,Y), Q(Y,Z), not S(X,Z)",
            "R(X,Z) <- P(X,Y), Q(Y,Z), not P(Z,X)",
        ] {
            let mq = parse_metaquery(text).unwrap();
            for th in threshold_grid() {
                assert_agree(&db, &mq, InstType::Zero, th, &format!("{text} seed={seed}"));
            }
        }
    }
}
