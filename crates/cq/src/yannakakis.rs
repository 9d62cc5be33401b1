//! Yannakakis-style evaluation for acyclic conjunctive queries.
//!
//! These are the polynomial-time algorithms behind Theorem 3.32's
//! tractability claim (acyclic BCQ is LOGCFL-complete, hence in P) and the
//! machinery `findRules` (Figure 4) uses per instantiation: full-reduce
//! along a join tree, then answer satisfiability / counting questions
//! without materializing the full join.

use crate::atom::Cq;
use crate::jointree::JoinTree;
use crate::reducer::FullReducer;
use mq_relation::hashjoin::{hash_cols_at, GroupIndex};
use mq_relation::{Bindings, Database, VarId};

/// The reduced state of an acyclic query: per-atom bindings after running
/// a full reducer, plus the join tree that produced them.
#[derive(Clone, Debug)]
pub struct Reduced {
    /// The join tree over atom indices.
    pub tree: JoinTree,
    /// Per-atom bindings, globally consistent (fully reduced).
    pub atoms: Vec<Bindings>,
}

/// Fully reduce an acyclic query's atoms over `db`.
///
/// Returns `None` if the query is cyclic (no join tree exists).
pub fn full_reduce(db: &Database, cq: &Cq) -> Option<Reduced> {
    let tree = JoinTree::for_cq(cq)?;
    let mut atoms: Vec<Bindings> = cq
        .atoms
        .iter()
        .map(|a| Bindings::from_atom(db.relation(a.rel), &a.terms))
        .collect();
    let reducer = FullReducer::from_join_tree(&tree);
    reducer.run(&mut atoms);
    Some(Reduced { tree, atoms })
}

/// Polynomial-time satisfiability for acyclic BCQ: after full reduction, a
/// (semi-)acyclic query is satisfiable iff no atom became empty.
///
/// Returns `None` if the query is cyclic.
pub fn acyclic_satisfiable(db: &Database, cq: &Cq) -> Option<bool> {
    if cq.is_empty() {
        return Some(true);
    }
    let reduced = full_reduce(db, cq)?;
    Some(reduced.atoms.iter().all(|b| !b.is_empty()))
}

/// Exact `|J(Q)|` (count of assignments to all query variables) for an
/// acyclic query, in polynomial time, by dynamic programming along the
/// join tree: the weight of a tuple is the product over children of the
/// summed weights of agreeing child tuples; the answer is the product over
/// tree roots of their root-level sums.
///
/// Returns `None` if the query is cyclic.
pub fn acyclic_count(db: &Database, cq: &Cq) -> Option<u128> {
    if cq.is_empty() {
        return Some(1);
    }
    let reduced = full_reduce(db, cq)?;
    let tree = &reduced.tree;
    let atoms = &reduced.atoms;

    // weights[node][row_index]
    let mut weights: Vec<Vec<u128>> = atoms.iter().map(|b| vec![1u128; b.len()]).collect();

    for &node in &tree.postorder {
        for &child in &tree.children[node] {
            // Sum child weights grouped by shared-variable key.
            let shared: Vec<VarId> = atoms[node]
                .vars()
                .iter()
                .copied()
                .filter(|v| atoms[child].position(*v).is_some())
                .collect();
            let child_pos: Vec<usize> = shared
                .iter()
                .map(|&v| atoms[child].position(v).unwrap())
                .collect();
            let node_pos: Vec<usize> = shared
                .iter()
                .map(|&v| atoms[node].position(v).unwrap())
                .collect();
            let idx = GroupIndex::build_columnar(atoms[child].columnar(), &child_pos);
            let sums: Vec<u128> = (0..idx.num_groups())
                .map(|g| idx.group_rows(g).map(|i| weights[child][i]).sum())
                .collect();
            let nc = atoms[node].columnar();
            for (i, w) in weights[node].iter_mut().enumerate() {
                let g = idx.find_group(hash_cols_at(nc, &node_pos, i), |gkey| {
                    gkey.iter()
                        .zip(&node_pos)
                        .all(|(kv, &c)| *kv == nc.col(c)[i])
                });
                *w = w.saturating_mul(g.map_or(0, |g| sums[g]));
            }
        }
    }

    let mut total: u128 = 1;
    for &root in &tree.roots {
        let root_sum: u128 = weights[root].iter().sum();
        total = total.saturating_mul(root_sum);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::eval;
    use mq_relation::ints;
    use mq_relation::VarId;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn chain_count_matches_backtracking() {
        let mut db = Database::new();
        let e = db.add_relation("e", 2);
        for (a, b) in [(1, 2), (2, 3), (3, 4), (2, 4), (4, 5)] {
            db.insert(e, ints(&[a, b]));
        }
        let cq = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(1), v(2)]),
            Atom::vars_atom(e, &[v(2), v(3)]),
        ]);
        let yc = acyclic_count(&db, &cq).expect("chain is acyclic");
        let bc = eval::count_homomorphisms(&db, &cq);
        assert_eq!(yc, bc);
        assert_eq!(
            acyclic_satisfiable(&db, &cq),
            Some(eval::satisfiable(&db, &cq))
        );
    }

    #[test]
    fn cyclic_returns_none() {
        let mut db = Database::new();
        let e = db.add_relation("e", 2);
        db.insert(e, ints(&[1, 2]));
        let cq = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(1), v(2)]),
            Atom::vars_atom(e, &[v(2), v(0)]),
        ]);
        assert!(acyclic_satisfiable(&db, &cq).is_none());
        assert!(acyclic_count(&db, &cq).is_none());
    }

    #[test]
    fn disconnected_components_multiply() {
        let mut db = Database::new();
        let a = db.add_relation("a", 1);
        let b = db.add_relation("b", 1);
        for i in 0..3 {
            db.insert(a, ints(&[i]));
        }
        for i in 0..4 {
            db.insert(b, ints(&[i]));
        }
        let cq = Cq::new(vec![
            Atom::vars_atom(a, &[v(0)]),
            Atom::vars_atom(b, &[v(1)]),
        ]);
        assert_eq!(acyclic_count(&db, &cq), Some(12));
    }

    #[test]
    fn star_count_matches_backtracking_randomized() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..15 {
            let mut db = Database::new();
            let e = db.add_relation("e", 2);
            let f = db.add_relation("f", 2);
            let g = db.add_relation("g", 2);
            for _ in 0..12 {
                db.insert(e, ints(&[rng.gen_range(0..4), rng.gen_range(0..4)]));
                db.insert(f, ints(&[rng.gen_range(0..4), rng.gen_range(0..4)]));
                db.insert(g, ints(&[rng.gen_range(0..4), rng.gen_range(0..4)]));
            }
            // star: center variable 0
            let cq = Cq::new(vec![
                Atom::vars_atom(e, &[v(0), v(1)]),
                Atom::vars_atom(f, &[v(0), v(2)]),
                Atom::vars_atom(g, &[v(0), v(3)]),
            ]);
            assert_eq!(
                acyclic_count(&db, &cq),
                Some(eval::count_homomorphisms(&db, &cq))
            );
        }
    }

    #[test]
    fn empty_relation_gives_zero() {
        let mut db = Database::new();
        let e = db.add_relation("e", 2);
        let z = db.add_relation("z", 1);
        db.insert(e, ints(&[1, 2]));
        let cq = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(z, &[v(1)]),
        ]);
        assert_eq!(acyclic_count(&db, &cq), Some(0));
        assert_eq!(acyclic_satisfiable(&db, &cq), Some(false));
    }
}
