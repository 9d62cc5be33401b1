//! Property-based tests (proptest) over the core invariants:
//! index bounds and semantics, the type-0 ⊆ type-1 ⊆ type-2 hierarchy,
//! relational-algebra laws, GYO robustness, and full-reducer guarantees.

use metaquery::cq::{is_fully_reduced, FullReducer, Hypergraph, JoinTree};
use metaquery::prelude::*;
use mq_relation::{ints, Bindings, Term, VarId};
use proptest::prelude::*;

/// A small random binary relation as (name, rows).
fn relation_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..5, 0i64..5), 0..14)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every index of every instantiation lies in [0, 1].
    #[test]
    fn indices_are_probabilities(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &h);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let answers = naive_find_all(&db, &mq, InstType::Zero, Thresholds::none()).unwrap();
        for a in &answers {
            prop_assert!(a.indices.sup.is_probability());
            prop_assert!(a.indices.cnf.is_probability());
            prop_assert!(a.indices.cvr.is_probability());
        }
    }

    /// findRules ≡ naive on arbitrary databases (the central soundness
    /// and completeness property of the Figure 4 algorithm).
    #[test]
    fn find_rules_equals_naive(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
        ksup in 0u64..4,
        kcvr in 0u64..4,
        kcnf in 0u64..4,
    ) {
        let db = build_db(&p, &q, &h);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let th = Thresholds::all(
            Frac::new(ksup, 4),
            Frac::new(kcvr, 4),
            Frac::new(kcnf, 4),
        );
        let a = naive_find_all(&db, &mq, InstType::Zero, th).unwrap();
        let b = find_rules(&db, &mq, InstType::Zero, th).unwrap();
        prop_assert_eq!(a, b);
    }

    /// The instantiation hierarchy of §2.1: every type-0 instantiation is
    /// a type-1 instantiation, and every type-1 is a type-2 (compared by
    /// the rules they produce).
    #[test]
    fn type_hierarchy(
        p in relation_strategy(),
        q in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &[]);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let render = |ty: InstType| -> std::collections::BTreeSet<String> {
            enumerate_instantiations(&db, &mq, ty)
                .unwrap()
                .iter()
                .map(|i| apply_instantiation(&db, &mq, i).unwrap().render(&db))
                .collect()
        };
        let (t0, t1, t2) = (render(InstType::Zero), render(InstType::One), render(InstType::Two));
        prop_assert!(t0.is_subset(&t1));
        prop_assert!(t1.is_subset(&t2));
    }

    /// Support monotonicity: adding a tuple that extends the body join
    /// never decreases the maximal body-atom fraction's numerator; more
    /// usefully, deleting all tuples yields zero indices.
    #[test]
    fn empty_database_zero_indices(h in relation_strategy()) {
        let db = build_db(&[], &[], &h);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let answers = naive_find_all(&db, &mq, InstType::Zero, Thresholds::none()).unwrap();
        for a in &answers {
            let rule = apply_instantiation(&db, &mq, &a.inst).unwrap();
            let body_names: Vec<&str> = rule
                .body
                .iter()
                .map(|at| db.relation(at.rel).name())
                .collect();
            if body_names.contains(&"p") || body_names.contains(&"q") {
                prop_assert_eq!(a.indices.sup, Frac::ZERO);
                prop_assert_eq!(a.indices.cnf, Frac::ZERO);
            }
        }
    }

    /// Natural join is commutative and associative up to column order.
    #[test]
    fn join_laws(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &h);
        let a = Bindings::from_atom(db.rel("p"), &[Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let b = Bindings::from_atom(db.rel("q"), &[Term::Var(VarId(1)), Term::Var(VarId(2))]);
        let c = Bindings::from_atom(db.rel("h"), &[Term::Var(VarId(2)), Term::Var(VarId(3))]);
        let vars = [VarId(0), VarId(1), VarId(2), VarId(3)];
        let ab_c = a.join(&b).join(&c);
        let a_bc = a.join(&b.join(&c));
        let ba_c = b.join(&a).join(&c);
        prop_assert_eq!(ab_c.len(), a_bc.len());
        let p1 = ab_c.project(&vars).sorted();
        let p2 = a_bc.project(&vars).sorted();
        let p3 = ba_c.project(&vars).sorted();
        prop_assert_eq!(p1.to_rows(), p2.to_rows());
        prop_assert_eq!(p1.to_rows(), p3.to_rows());
    }

    /// Semijoin is a filter: |r ⋉ s| ≤ |r| and (r ⋉ s) ⋉ s = r ⋉ s.
    #[test]
    fn semijoin_laws(
        p in relation_strategy(),
        q in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &[]);
        let a = Bindings::from_atom(db.rel("p"), &[Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let b = Bindings::from_atom(db.rel("q"), &[Term::Var(VarId(1)), Term::Var(VarId(2))]);
        let filtered = a.semijoin(&b);
        prop_assert!(filtered.len() <= a.len());
        let twice = filtered.semijoin(&b);
        prop_assert_eq!(filtered.to_rows(), twice.to_rows());
    }

    /// GYO acyclicity is invariant under edge order permutations.
    #[test]
    fn gyo_invariant_under_edge_order(
        perm_seed in 0u64..1000,
        edges in prop::collection::vec(
            prop::collection::btree_set(0u32..6, 1..4), 1..6
        ),
    ) {
        use rand::prelude::*;
        let h1 = Hypergraph::new(edges.clone());
        let mut shuffled = edges;
        let mut rng = StdRng::seed_from_u64(perm_seed);
        shuffled.shuffle(&mut rng);
        let h2 = Hypergraph::new(shuffled);
        prop_assert_eq!(h1.is_acyclic(), h2.is_acyclic());
    }

    /// A full reducer really reduces: after running it on a chain query,
    /// every atom's bindings equal the projection of the global join.
    #[test]
    fn full_reducer_reduces(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
    ) {
        let db = build_db(&p, &q, &h);
        let cq = metaquery::cq::Cq::new(vec![
            metaquery::cq::Atom::vars_atom(db.rel_id("p").unwrap(), &[VarId(0), VarId(1)]),
            metaquery::cq::Atom::vars_atom(db.rel_id("q").unwrap(), &[VarId(1), VarId(2)]),
            metaquery::cq::Atom::vars_atom(db.rel_id("h").unwrap(), &[VarId(2), VarId(3)]),
        ]);
        let tree = JoinTree::for_cq(&cq).unwrap();
        let reducer = FullReducer::from_join_tree(&tree);
        let mut bindings: Vec<Bindings> = cq
            .atoms
            .iter()
            .map(|a| Bindings::from_atom(db.relation(a.rel), &a.terms))
            .collect();
        reducer.run(&mut bindings);
        prop_assert!(is_fully_reduced(&bindings));
    }

    /// Yannakakis counting equals backtracking counting on acyclic CQs:
    /// a chain, a pair sharing two variables (a join-tree edge keyed on
    /// two columns) and a 3-star.
    #[test]
    fn acyclic_count_correct(
        p in relation_strategy(),
        q in relation_strategy(),
        h in relation_strategy(),
        shape in 0usize..3,
    ) {
        let db = build_db(&p, &q, &h);
        let atom = |name: &str, a: u32, b: u32| {
            metaquery::cq::Atom::vars_atom(db.rel_id(name).unwrap(), &[VarId(a), VarId(b)])
        };
        let atoms = match shape {
            0 => vec![atom("p", 0, 1), atom("q", 1, 2)],
            1 => vec![atom("p", 0, 1), atom("q", 1, 0), atom("h", 0, 2)],
            _ => vec![atom("p", 0, 1), atom("q", 0, 2), atom("h", 0, 3)],
        };
        let cq = metaquery::cq::Cq::new(atoms);
        prop_assert_eq!(
            metaquery::cq::acyclic_count(&db, &cq).unwrap(),
            metaquery::cq::count_homomorphisms(&db, &cq)
        );
    }

    /// Parser round trip: a rendered metaquery re-parses to the same
    /// rendering (over generated chain/star/negated shapes).
    #[test]
    fn parser_roundtrip(
        shape in 0usize..4,
        m in 1usize..5,
        negate in proptest::bool::ANY,
    ) {
        use metaquery::datagen::metaqueries;
        let mut mq = match shape {
            0 => metaqueries::chain(m),
            1 => metaqueries::star(m),
            2 if m >= 3 => metaqueries::cycle(m.max(3)),
            _ => metaqueries::clique((m + 1).clamp(2, 4)),
        };
        if negate {
            // Append a negated pattern over two existing body variables.
            let mut b2 = metaquery::core::ast::MetaqueryBuilder::new();
            let text = mq.render();
            let v0 = mq.body[0].args[0];
            let name0 = mq.vars.name(v0).to_string();
            let augmented = format!("{text}, not Zz({name0},{name0})");
            mq = parse_metaquery(&augmented).unwrap();
            let _ = &mut b2;
        }
        let rendered = mq.render();
        let reparsed = parse_metaquery(&rendered).unwrap();
        prop_assert_eq!(rendered, reparsed.render());
    }

    /// Text database format round trip: parse(render(db)) has the same
    /// relations with the same contents.
    #[test]
    fn textio_roundtrip(
        rows in prop::collection::vec((0i64..6, 0i64..6), 0..12),
        names in prop::collection::vec("[a-z][a-z0-9_]{0,6}", 1..3),
    ) {
        use mq_relation::{parse_database, render_database};
        let mut db = Database::new();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        for name in &unique {
            let rel = db.add_relation(name.clone(), 2);
            for &(a, b) in &rows {
                db.insert(rel, ints(&[a, b]));
            }
        }
        let text = render_database(&db);
        let db2 = parse_database(&text).unwrap();
        // Empty relations vanish in the text format; compare non-empty.
        for rel in db.relations().filter(|r| !r.is_empty()) {
            let rel2 = db2.rel(rel.name());
            prop_assert_eq!(rel.len(), rel2.len());
            for row in rel.to_rows() {
                prop_assert!(rel2.contains(&row));
            }
        }
    }

    /// Exact rationals: ordering agrees with cross-multiplication, and
    /// `floor_mul` inverts the ratio on its own denominator.
    #[test]
    fn frac_order_sound(a in 0u64..50, b in 1u64..50, c in 0u64..50, d in 1u64..50) {
        let x = Frac::new(a, b);
        let y = Frac::new(c, d);
        let lhs = a as u128 * d as u128;
        let rhs = c as u128 * b as u128;
        prop_assert_eq!(x < y, lhs < rhs);
        prop_assert_eq!(x == y, lhs == rhs);
        // floor(a/b · b) == a exactly.
        prop_assert_eq!(x.floor_mul(b), a);
    }
}
