//! Acyclic and semi-acyclic metaqueries (Definition 3.31) and the
//! tractable evaluation of Theorem 3.32.
//!
//! The hypergraph `H(MQ)` has **both** ordinary and predicate variables as
//! vertices (one edge per literal scheme); the semi-hypergraph `SH(MQ)`
//! keeps ordinary variables only. `MQ` is acyclic/semi-acyclic iff the
//! corresponding hypergraph is GYO-acyclic. Acyclicity implies
//! semi-acyclicity.
//!
//! For acyclic metaqueries, `⟨DB, MQ, I, 0, 0⟩` is LOGCFL-complete
//! (Theorem 3.32); the membership direction is an executable logspace-style
//! reduction to an acyclic BCQ over a derived database `DDB`:
//! each relation name `r` becomes a constant `n_r`, each arity `a` in the
//! database becomes a relation `u_a` of arity `a+1` holding `(n_r, t)` for
//! every tuple `t ∈ r`, and each literal scheme `L(X1..Xa)` becomes the
//! atom `u_a(L, X1, ..., Xa)` with the predicate variable demoted to an
//! ordinary variable.

use crate::ast::{Metaquery, Pred};
use crate::index::IndexKind;
use mq_cq::{acyclic_satisfiable, Atom, Cq, Hypergraph};
use mq_relation::{Database, Term, Value, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// Structural class of a metaquery (Definition 3.31).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MqClass {
    /// `H(MQ)` is acyclic (hence also semi-acyclic).
    Acyclic,
    /// `SH(MQ)` is acyclic but `H(MQ)` is not.
    SemiAcyclic,
    /// Even `SH(MQ)` is cyclic.
    Cyclic,
}

/// Build `H(MQ)`: vertices are ordinary *and* predicate variables.
pub fn full_hypergraph(mq: &Metaquery) -> Hypergraph {
    // Ordinary variables use their ids; predicate variables are offset
    // past the largest ordinary id.
    let offset = mq.vars.len() as u32;
    let edges: Vec<BTreeSet<u32>> = mq
        .literal_schemes()
        .map(|l| {
            let mut e: BTreeSet<u32> = l.args.iter().map(|v| v.0).collect();
            if let Pred::Var(p) = l.pred {
                e.insert(offset + p.0);
            }
            e
        })
        .collect();
    Hypergraph::new(edges)
}

/// Build `SH(MQ)`: ordinary variables only.
pub fn semi_hypergraph(mq: &Metaquery) -> Hypergraph {
    let edges: Vec<BTreeSet<u32>> = mq
        .literal_schemes()
        .map(|l| l.args.iter().map(|v| v.0).collect())
        .collect();
    Hypergraph::new(edges)
}

/// Classify a metaquery per Definition 3.31.
pub fn classify(mq: &Metaquery) -> MqClass {
    if full_hypergraph(mq).is_acyclic() {
        MqClass::Acyclic
    } else if semi_hypergraph(mq).is_acyclic() {
        MqClass::SemiAcyclic
    } else {
        MqClass::Cyclic
    }
}

/// The derived instance of Theorem 3.32's membership proof: an acyclic
/// conjunctive query `QMQ` over a derived database `DDB` such that
/// `⟨DB, MQ, I, 0, 0⟩` is a YES instance iff `QMQ` is satisfiable.
#[derive(Debug)]
pub struct DerivedInstance {
    /// The derived database with the `u_a` relations.
    pub ddb: Database,
    /// The derived conjunctive query.
    pub query: Cq,
}

/// Build `⟨DDB, QMQ⟩` from `⟨DB, MQ, I⟩` (Theorem 3.32).
///
/// When `index == IndexKind::Sup` the head literal scheme is omitted from
/// `QMQ` (support's certifying set is the body alone; Proposition 3.20).
pub fn derived_instance(db: &Database, mq: &Metaquery, index: IndexKind) -> DerivedInstance {
    let mut ddb = Database::new();

    // Collect the arities used by literal schemes and by DB relations.
    let mut arities: BTreeSet<usize> = db.relations().map(|r| r.arity()).collect();
    for l in mq.literal_schemes() {
        arities.insert(l.arity());
    }

    // u_a relations: (n_r, t1, ..., ta). Relation-name constants are the
    // relation ids as integers.
    let mut u_rel = BTreeMap::new();
    for &a in &arities {
        let id = ddb.add_relation(format!("u{a}"), a + 1);
        u_rel.insert(a, id);
    }
    for rid in db.rel_ids() {
        let rel = db.relation(rid);
        let a = rel.arity();
        let n_r = Value::Int(rid.0 as i64);
        for row in rel.to_rows() {
            let mut t = Vec::with_capacity(a + 1);
            t.push(n_r);
            t.extend(row.iter().copied());
            ddb.insert(u_rel[&a], t.into_boxed_slice());
        }
    }

    // QMQ: each literal scheme becomes a u_a atom; predicate variables
    // become ordinary variables (offset past the metaquery's pool).
    let offset = mq.vars.len() as u32;
    let mut atoms = Vec::new();
    let include_head = index != IndexKind::Sup;
    let schemes: Vec<_> = if include_head {
        mq.literal_schemes().collect()
    } else {
        mq.body.iter().collect()
    };
    for l in schemes {
        let a = l.arity();
        let first: Term = match &l.pred {
            Pred::Var(p) => Term::Var(VarId(offset + p.0)),
            Pred::Rel(name) => {
                let rid = db
                    .rel_id(name)
                    .unwrap_or_else(|| panic!("relation `{name}` not in DB"));
                Term::Const(Value::Int(rid.0 as i64))
            }
        };
        let mut terms = Vec::with_capacity(a + 1);
        terms.push(first);
        terms.extend(l.args.iter().map(|&v| Term::Var(v)));
        atoms.push(Atom::new(u_rel[&a], terms));
    }
    DerivedInstance {
        ddb,
        query: Cq::new(atoms),
    }
}

/// Polynomial-time decision of `⟨DB, MQ, I, 0, 0⟩` for **acyclic**
/// metaqueries (Theorem 3.32). Returns `None` when `MQ` is not acyclic
/// (the reduction produces a cyclic query and the LOGCFL algorithm does
/// not apply — callers should fall back to a general engine).
pub fn decide_acyclic_zero(db: &Database, mq: &Metaquery, index: IndexKind) -> Option<bool> {
    if classify(mq) != MqClass::Acyclic {
        return None;
    }
    let derived = derived_instance(db, mq, index);
    // QMQ is acyclic because H(MQ) is: same hypergraph.
    acyclic_satisfiable(&derived.ddb, &derived.query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::naive;
    use crate::engine::MqProblem;
    use crate::instantiate::InstType;
    use crate::parse::parse_metaquery;
    use mq_relation::{ints, Frac};
    use rand::prelude::*;

    /// §3.4's examples: MQ1 acyclic, MQ2 cyclic (as metaqueries — MQ2's
    /// SH is still acyclic so it is semi-acyclic), N(X) <- N(Y), E(X,Y)
    /// semi-acyclic but not acyclic.
    #[test]
    fn paper_classifications() {
        let mq1 = parse_metaquery("P(X,Y) <- P(Y,Z), Q(Z,W)").unwrap();
        assert_eq!(classify(&mq1), MqClass::Acyclic);
        let mq2 = parse_metaquery("P(X,Y) <- Q(Y,Z), P(Z,W)").unwrap();
        assert_eq!(classify(&mq2), MqClass::SemiAcyclic);
        let mq3 = parse_metaquery("N(X) <- N(Y), E(X,Y)").unwrap();
        assert_eq!(classify(&mq3), MqClass::SemiAcyclic);
    }

    #[test]
    fn cyclic_classification() {
        // body triangle over ordinary variables, same pred var everywhere
        let mq = parse_metaquery("E(X,Y) <- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        assert_eq!(classify(&mq), MqClass::Cyclic);
    }

    /// Metaquery (4) is *cyclic*: its head shares X with the first body
    /// literal and Z with the second, closing a triangle in both H and SH.
    #[test]
    fn metaquery_4_is_cyclic() {
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        assert_eq!(classify(&mq), MqClass::Cyclic);
        // Dropping Z from the head breaks the triangle: acyclic.
        let open = parse_metaquery("R(X,Y) <- P(X,Y), Q(Y,Z)").unwrap();
        assert_eq!(classify(&open), MqClass::Acyclic);
    }

    #[test]
    fn derived_instance_matches_naive_decision() {
        let mut rng = StdRng::seed_from_u64(11);
        let mq = parse_metaquery("R(X,Y) <- P(X,Y), Q(Y,Z)").unwrap();
        for round in 0..15 {
            let mut db = Database::new();
            let p = db.add_relation("p", 2);
            let q = db.add_relation("q", 2);
            // Sparse domains make NO instances common.
            let dom = 3 + (round % 3) as i64 * 3;
            for _ in 0..6 {
                db.insert(p, ints(&[rng.gen_range(0..dom), rng.gen_range(0..dom)]));
                db.insert(q, ints(&[rng.gen_range(0..dom), rng.gen_range(0..dom)]));
            }
            for kind in IndexKind::ALL {
                let fast = decide_acyclic_zero(&db, &mq, kind).expect("acyclic metaquery");
                let slow = naive::decide(
                    &db,
                    &mq,
                    MqProblem {
                        index: kind,
                        threshold: Frac::ZERO,
                        ty: InstType::Zero,
                    },
                )
                .unwrap();
                assert_eq!(fast, slow, "disagree on {kind} round {round}");
            }
        }
    }

    #[test]
    fn derived_instance_shape() {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        db.insert(p, ints(&[1, 2]));
        db.add_relation("t", 3);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let derived = derived_instance(&db, &mq, IndexKind::Cnf);
        // u2 holds p's tuple tagged with its id; u3 exists and is empty.
        assert_eq!(derived.ddb.rel("u2").arity(), 3);
        assert_eq!(derived.ddb.rel("u2").len(), 1);
        assert_eq!(derived.ddb.rel("u3").len(), 0);
        assert_eq!(derived.query.atoms.len(), 3); // head + 2 body
                                                  // For sup the head is dropped.
        let derived_sup = derived_instance(&db, &mq, IndexKind::Sup);
        assert_eq!(derived_sup.query.atoms.len(), 2);
    }

    #[test]
    fn non_acyclic_returns_none() {
        let mut db = Database::new();
        db.add_relation("e", 2);
        let mq = parse_metaquery("N(X) <- N(Y), E(X,Y)").unwrap();
        assert!(decide_acyclic_zero(&db, &mq, IndexKind::Sup).is_none());
    }

    #[test]
    fn predicate_variable_consistency_respected() {
        // P occurs twice; DDB encoding shares the demoted variable so both
        // occurrences must pick the same relation constant.
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        let q = db.add_relation("q", 2);
        db.insert(p, ints(&[1, 2]));
        db.insert(q, ints(&[2, 3]));
        let mq = parse_metaquery("P(X,Y) <- P(Y,Z), Q(Z,W)").unwrap();
        let fast = decide_acyclic_zero(&db, &mq, IndexKind::Sup).expect("acyclic");
        let slow = naive::decide(
            &db,
            &mq,
            MqProblem {
                index: IndexKind::Sup,
                threshold: Frac::ZERO,
                ty: InstType::Zero,
            },
        )
        .unwrap();
        assert_eq!(fast, slow);
    }
}
