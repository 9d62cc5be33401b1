//! Every worked example in the paper, as a test.
//!
//! §2.1 Figures 1-2 (the telecom database and metaquery (4)), §2.2's
//! index narratives, §3.4's acyclicity classifications, §4's join-tree /
//! full-reducer / hypertree-decomposition examples (Figure 3, Examples
//! 4.3, 4.5, 4.8, 4.10, 4.11).

use metaquery::core::acyclic::{classify, MqClass};
use metaquery::cq::{hypertree_width_of_sets, Atom, Cq, FullReducer, JoinTree};
use metaquery::datagen::telecom;
use metaquery::prelude::*;
use mq_relation::VarId;

/// §2.1: the type-0 instantiation of metaquery (4) shown in the paper
/// produces `UsPT(X,Z) <- UsCa(X,Y), CaTe(Y,Z)`.
#[test]
fn section_2_1_type0_instantiation_exists() {
    let db = telecom::db1();
    let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
    let insts = enumerate_instantiations(&db, &mq, InstType::Zero).unwrap();
    let rendered: Vec<String> = insts
        .iter()
        .map(|i| apply_instantiation(&db, &mq, i).unwrap().render(&db))
        .collect();
    assert!(rendered.contains(&"UsPT(X,Z) <- UsCa(X,Y), CaTe(Y,Z)".to_string()));
    // 3 relations, 3 patterns: 27 type-0 instantiations.
    assert_eq!(insts.len(), 27);
}

/// §2.1: under type-1 the additional permuted rule
/// `UsPT(X,Z) <- UsCa(Y,X), CaTe(Y,Z)` is also produced.
#[test]
fn section_2_1_type1_permutation() {
    let db = telecom::db1();
    let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
    let insts = enumerate_instantiations(&db, &mq, InstType::One).unwrap();
    let rendered: Vec<String> = insts
        .iter()
        .map(|i| apply_instantiation(&db, &mq, i).unwrap().render(&db))
        .collect();
    assert!(rendered.contains(&"UsPT(X,Z) <- UsCa(X,Y), CaTe(Y,Z)".to_string()));
    assert!(rendered.contains(&"UsPT(X,Z) <- UsCa(Y,X), CaTe(Y,Z)".to_string()));
}

/// §2.1 Figure 2: under type-2 the ternary UsPT absorbs the head pattern
/// with a fresh Model variable: `UsPT(X,Z,_) <- UsCa(Y,X), CaTe(Y,Z)`.
#[test]
fn section_2_1_type2_padding() {
    let db = telecom::db2();
    let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
    let insts = enumerate_instantiations(&db, &mq, InstType::Two).unwrap();
    let found = insts.iter().any(|i| {
        let rule = apply_instantiation(&db, &mq, i).unwrap();
        let head_name = db.relation(rule.head.rel).name();
        head_name == "UsPT" && rule.head.terms.len() == 3
    });
    assert!(found, "type-2 must match the widened UsPT");
}

/// §2.2: support/confidence/cover of the paper's instantiation on DB1
/// (hand-computed: body join = 7 tuples, 5 extend to the head, all 3
/// head tuples implied, all 3 UsCa tuples join).
#[test]
fn section_2_2_index_values() {
    let db = telecom::db1();
    let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
    let answers = naive_find_all(&db, &mq, InstType::Zero, Thresholds::none()).unwrap();
    let a = answers
        .iter()
        .find(|a| {
            apply_instantiation(&db, &mq, &a.inst).unwrap().render(&db)
                == "UsPT(X,Z) <- UsCa(X,Y), CaTe(Y,Z)"
        })
        .unwrap();
    assert_eq!(a.indices.sup, Frac::ONE);
    assert_eq!(a.indices.cvr, Frac::ONE);
    assert_eq!(a.indices.cnf, Frac::new(5, 7));
}

/// §3.4: MQ1 is acyclic, MQ2 is not acyclic, N(X) <- N(Y), E(X,Y) is
/// semi-acyclic but not acyclic.
#[test]
fn section_3_4_classifications() {
    assert_eq!(
        classify(&parse_metaquery("P(X,Y) <- P(Y,Z), Q(Z,W)").unwrap()),
        MqClass::Acyclic
    );
    assert_ne!(
        classify(&parse_metaquery("P(X,Y) <- Q(Y,Z), P(Z,W)").unwrap()),
        MqClass::Acyclic
    );
    assert_eq!(
        classify(&parse_metaquery("N(X) <- N(Y), E(X,Y)").unwrap()),
        MqClass::SemiAcyclic
    );
}

fn v(i: u32) -> VarId {
    VarId(i)
}

/// Example 4.3 / Figure 3: {P(A,B), Q(B,C), R(C,D)} has a join tree with
/// Q(B,C) adjacent to both P(A,B) and R(C,D).
#[test]
fn example_4_3_figure_3_join_tree() {
    let mut db = Database::new();
    let p = db.add_relation("P", 2);
    let q = db.add_relation("Q", 2);
    let r = db.add_relation("R", 2);
    let cq = Cq::new(vec![
        Atom::vars_atom(p, &[v(0), v(1)]),
        Atom::vars_atom(q, &[v(1), v(2)]),
        Atom::vars_atom(r, &[v(2), v(3)]),
    ]);
    let tree = JoinTree::for_cq(&cq).expect("acyclic");
    let adj = |a: usize, b: usize| tree.parent[a] == Some(b) || tree.parent[b] == Some(a);
    assert!(adj(0, 1), "P(A,B) — Q(B,C) edge of Figure 3");
    assert!(adj(1, 2), "Q(B,C) — R(C,D) edge of Figure 3");
    assert!(!adj(0, 2), "P and R are not adjacent in Figure 3");
}

/// Example 4.5: the full reducer of {p(A,B), q(B,C), r(C,D)} rooted at q
/// has two first-half and two mirrored second-half steps.
#[test]
fn example_4_5_full_reducer() {
    let mut db = Database::new();
    let p = db.add_relation("p", 2);
    let q = db.add_relation("q", 2);
    let r = db.add_relation("r", 2);
    let cq = Cq::new(vec![
        Atom::vars_atom(p, &[v(0), v(1)]),
        Atom::vars_atom(q, &[v(1), v(2)]),
        Atom::vars_atom(r, &[v(2), v(3)]),
    ]);
    let tree = JoinTree::for_cq(&cq).unwrap();
    let red = FullReducer::from_join_tree(&tree);
    assert_eq!(red.first_half.len(), 2);
    assert_eq!(red.second_half.len(), 2);
    for (a, b) in red.first_half.iter().rev().zip(red.second_half.iter()) {
        assert_eq!((a.target, a.source), (b.source, b.target));
    }
}

/// Examples 4.8 and 4.10: Qex = {P(A,B), Q(B,C), R(C,D), S(B,D)} has
/// hypertree width exactly 2 and is not semi-acyclic.
#[test]
fn examples_4_8_and_4_10_hypertree_width() {
    let mut db = Database::new();
    let p = db.add_relation("P", 2);
    let q = db.add_relation("Q", 2);
    let r = db.add_relation("R", 2);
    let s = db.add_relation("S", 2);
    let cq = Cq::new(vec![
        Atom::vars_atom(p, &[v(0), v(1)]),
        Atom::vars_atom(q, &[v(1), v(2)]),
        Atom::vars_atom(r, &[v(2), v(3)]),
        Atom::vars_atom(s, &[v(1), v(3)]),
    ]);
    assert!(JoinTree::for_cq(&cq).is_none(), "Qex is not semi-acyclic");
    let edges: Vec<_> = cq.atoms.iter().map(|a| a.var_set()).collect();
    let (w, ht) = hypertree_width_of_sets(&edges).unwrap();
    assert_eq!(w, 2, "Example 4.10: hw(Qex) = 2");
    ht.validate_sets(&edges).unwrap();
}

/// Example 4.11: the acy() construction — node relations of the width-2
/// decomposition joined together equal the original query's join.
#[test]
fn example_4_11_acy_construction() {
    use mq_relation::ints;
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(411);
    for _ in 0..5 {
        let mut db = Database::new();
        let rels: Vec<_> = ["P", "Q", "R", "S"]
            .iter()
            .map(|n| db.add_relation(*n, 2))
            .collect();
        for &rel in &rels {
            for _ in 0..10 {
                db.insert(rel, ints(&[rng.gen_range(0..4), rng.gen_range(0..4)]));
            }
        }
        let cq = Cq::new(vec![
            Atom::vars_atom(rels[0], &[v(0), v(1)]),
            Atom::vars_atom(rels[1], &[v(1), v(2)]),
            Atom::vars_atom(rels[2], &[v(2), v(3)]),
            Atom::vars_atom(rels[3], &[v(1), v(3)]),
        ]);
        let edges: Vec<_> = cq.atoms.iter().map(|a| a.var_set()).collect();
        let (_, mut ht) = hypertree_width_of_sets(&edges).unwrap();
        ht.complete();
        // Join of all node bindings == direct join of the query (over all
        // query variables).
        let mut derived = mq_relation::Bindings::unit();
        for node in 0..ht.len() {
            derived = derived.join(&ht.node_bindings(&db, &cq, node));
        }
        let direct = metaquery::cq::join_atoms(&db, &cq.atoms);
        let all_vars = cq.vars();
        assert_eq!(
            derived.project(&all_vars).sorted().to_rows(),
            direct.project(&all_vars).sorted().to_rows()
        );
    }
}

/// Figure 5 spot checks: the table's tractable row — acyclic, type-0,
/// k = 0 — is decided by the polynomial LOGCFL route and agrees with the
/// exhaustive engine (the other rows are exercised by the reduction
/// tests and benches).
#[test]
fn figure_5_tractable_row() {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(5);
    let mq = parse_metaquery("P(X,Y) <- P(Y,Z), Q(Z,W)").unwrap();
    assert_eq!(classify(&mq), MqClass::Acyclic);
    for _ in 0..10 {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        let q = db.add_relation("q", 2);
        for _ in 0..8 {
            db.insert(
                p,
                mq_relation::ints(&[rng.gen_range(0..5), rng.gen_range(0..5)]),
            );
            db.insert(
                q,
                mq_relation::ints(&[rng.gen_range(0..5), rng.gen_range(0..5)]),
            );
        }
        for kind in IndexKind::ALL {
            let fast = metaquery::core::acyclic::decide_acyclic_zero(&db, &mq, kind).unwrap();
            let slow = naive_decide(
                &db,
                &mq,
                MqProblem {
                    index: kind,
                    threshold: Frac::ZERO,
                    ty: InstType::Zero,
                },
            )
            .unwrap();
            assert_eq!(fast, slow);
        }
    }
}
