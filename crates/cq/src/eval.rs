//! General BCQ evaluation (Definition 3.2) and exact `#BCQ` counting
//! (Proposition 3.26) by backtracking search.
//!
//! These are the *general-case* evaluators: worst-case exponential in the
//! query size (BCQ is NP-complete, #BCQ is #P-complete), used by the naive
//! metaquery engine, by reduction cross-checks, and as the baseline the
//! acyclic algorithms are benchmarked against.

use crate::atom::{Atom, Cq};
use mq_relation::{Bindings, Database, Term, Value, VarId};

type Columns = mq_relation::hashjoin::ColumnarRows<Value>;
use std::collections::HashMap;

/// Pick an evaluation order: start from the smallest relation, then
/// repeatedly take the atom with the most already-bound variables
/// (tie-break: smaller relation). Pure heuristic; any order is correct.
fn atom_order(db: &Database, cq: &Cq) -> Vec<usize> {
    let n = cq.atoms.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut bound: Vec<VarId> = Vec::new();
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| {
                let atom = &cq.atoms[i];
                let bound_count = atom.vars().iter().filter(|v| bound.contains(v)).count();
                // Prefer more bound vars (negate), then smaller relations.
                (usize::MAX - bound_count, db.relation(atom.rel).len())
            })
            .expect("remaining non-empty");
        order.push(best);
        for v in cq.atoms[best].vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        remaining.swap_remove(pos);
    }
    order
}

struct Search<'a> {
    db: &'a Database,
    atoms: Vec<&'a Atom>,
    /// Bound variable values during the search.
    env: HashMap<VarId, Value>,
}

impl<'a> Search<'a> {
    /// Try to match row `i` of `rows` against `atom` under the current
    /// environment, returning the newly bound variables (to undo) on
    /// success.
    fn try_match(&mut self, atom: &Atom, rows: &Columns, i: usize) -> Option<Vec<VarId>> {
        let mut newly = Vec::new();
        for (col, t) in atom.terms.iter().enumerate() {
            let val = *rows.value(i, col);
            match t {
                Term::Const(c) => {
                    if *c != val {
                        for v in newly {
                            self.env.remove(&v);
                        }
                        return None;
                    }
                }
                Term::Var(v) => match self.env.get(v) {
                    Some(&prev) if prev != val => {
                        for v in newly {
                            self.env.remove(&v);
                        }
                        return None;
                    }
                    Some(_) => {}
                    None => {
                        self.env.insert(*v, val);
                        newly.push(*v);
                    }
                },
            }
        }
        Some(newly)
    }

    fn undo(&mut self, newly: Vec<VarId>) {
        for v in newly {
            self.env.remove(&v);
        }
    }

    /// Depth-first satisfiability.
    fn sat(&mut self, depth: usize) -> bool {
        if depth == self.atoms.len() {
            return true;
        }
        let atom = self.atoms[depth];
        // Rows are read in place from the relation's columns (an O(1)
        // handle clone per atom, no per-row allocation).
        let rows = self.db.relation(atom.rel).columnar();
        for i in 0..rows.len() {
            if let Some(newly) = self.try_match(atom, &rows, i) {
                let fully_bound = newly.is_empty();
                if self.sat(depth + 1) {
                    self.undo(newly);
                    return true;
                }
                self.undo(newly);
                // If the atom bound nothing new, every other row matching
                // would explore the same subtree — prune.
                if fully_bound {
                    return false;
                }
            }
        }
        false
    }

    /// Count complete assignments to all query variables.
    fn count(&mut self, depth: usize) -> u128 {
        if depth == self.atoms.len() {
            return 1;
        }
        let atom = self.atoms[depth];
        let rows = self.db.relation(atom.rel).columnar();
        let mut total: u128 = 0;
        for i in 0..rows.len() {
            if let Some(newly) = self.try_match(atom, &rows, i) {
                let fully_bound = newly.is_empty();
                total += self.count(depth + 1);
                self.undo(newly);
                // A fully-bound atom is a filter: one matching row proves
                // it; additional matches are impossible anyway (set
                // semantics: the matching row is unique).
                if fully_bound {
                    break;
                }
            }
        }
        total
    }
}

/// Decide Boolean Conjunctive Query satisfaction: is there a substitution
/// `ρ` with `ri(ρ(Xi)) ∈ DB` for every atom?
pub fn satisfiable(db: &Database, cq: &Cq) -> bool {
    if cq.is_empty() {
        return true;
    }
    let order = atom_order(db, cq);
    let atoms: Vec<&Atom> = order.iter().map(|&i| &cq.atoms[i]).collect();
    let mut search = Search {
        db,
        atoms,
        env: HashMap::new(),
    };
    search.sat(0)
}

/// Exact `#BCQ`: the number of substitutions for the query's variables
/// such that every atom's image is in the database (Proposition 3.26).
pub fn count_homomorphisms(db: &Database, cq: &Cq) -> u128 {
    if cq.is_empty() {
        return 1;
    }
    let order = atom_order(db, cq);
    let atoms: Vec<&Atom> = order.iter().map(|&i| &cq.atoms[i]).collect();
    let mut search = Search {
        db,
        atoms,
        env: HashMap::new(),
    };
    search.count(0)
}

/// Materialize `J(atoms)`: the natural join of the atom set, as bindings
/// over the query variables (Definition 2.6's `J(R)`).
pub fn join_atoms(db: &Database, atoms: &[Atom]) -> Bindings {
    let pairs: Vec<(&mq_relation::Relation, &[Term])> = atoms
        .iter()
        .map(|a| (db.relation(a.rel), a.terms.as_slice()))
        .collect();
    Bindings::join_all(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_relation::ints;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn path_db(edges: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        let e = db.add_relation("e", 2);
        for &(a, b) in edges {
            db.insert(e, ints(&[a, b]));
        }
        db
    }

    #[test]
    fn empty_query_is_satisfiable_once() {
        let db = path_db(&[(1, 2)]);
        let cq = Cq::new(vec![]);
        assert!(satisfiable(&db, &cq));
        assert_eq!(count_homomorphisms(&db, &cq), 1);
    }

    #[test]
    fn path_query() {
        let db = path_db(&[(1, 2), (2, 3), (3, 4)]);
        let e = db.rel_id("e").unwrap();
        let cq = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(1), v(2)]),
        ]);
        assert!(satisfiable(&db, &cq));
        // length-2 paths: (1,2,3), (2,3,4)
        assert_eq!(count_homomorphisms(&db, &cq), 2);
        assert_eq!(join_atoms(&db, &cq.atoms).len(), 2);
    }

    #[test]
    fn unsatisfiable_triangle() {
        let db = path_db(&[(1, 2), (2, 3), (3, 4)]);
        let e = db.rel_id("e").unwrap();
        let cq = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(1), v(2)]),
            Atom::vars_atom(e, &[v(2), v(0)]),
        ]);
        assert!(!satisfiable(&db, &cq));
        assert_eq!(count_homomorphisms(&db, &cq), 0);
    }

    #[test]
    fn triangle_found() {
        let db = path_db(&[(1, 2), (2, 3), (3, 1)]);
        let e = db.rel_id("e").unwrap();
        let cq = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(1), v(2)]),
            Atom::vars_atom(e, &[v(2), v(0)]),
        ]);
        assert!(satisfiable(&db, &cq));
        // the triangle in 3 rotations
        assert_eq!(count_homomorphisms(&db, &cq), 3);
    }

    #[test]
    fn constants_restrict() {
        let db = path_db(&[(1, 2), (2, 3)]);
        let e = db.rel_id("e").unwrap();
        let cq = Cq::new(vec![Atom::new(
            e,
            vec![Term::Const(Value::Int(1)), Term::Var(v(0))],
        )]);
        assert_eq!(count_homomorphisms(&db, &cq), 1);
    }

    #[test]
    fn repeated_variable_atom() {
        let db = path_db(&[(1, 1), (1, 2), (2, 2)]);
        let e = db.rel_id("e").unwrap();
        let cq = Cq::new(vec![Atom::new(e, vec![Term::Var(v(0)), Term::Var(v(0))])]);
        assert_eq!(count_homomorphisms(&db, &cq), 2); // X=1, X=2
    }

    #[test]
    fn count_matches_join_size_on_random_queries() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut db = Database::new();
            let e = db.add_relation("e", 2);
            let f = db.add_relation("f", 2);
            for _ in 0..15 {
                db.insert(e, ints(&[rng.gen_range(0..5), rng.gen_range(0..5)]));
                db.insert(f, ints(&[rng.gen_range(0..5), rng.gen_range(0..5)]));
            }
            let cq = Cq::new(vec![
                Atom::vars_atom(e, &[v(0), v(1)]),
                Atom::vars_atom(f, &[v(1), v(2)]),
                Atom::vars_atom(e, &[v(2), v(3)]),
            ]);
            let count = count_homomorphisms(&db, &cq);
            let join = join_atoms(&db, &cq.atoms);
            assert_eq!(count, join.len() as u128);
            assert_eq!(satisfiable(&db, &cq), !join.is_empty());
        }
    }

    #[test]
    fn duplicate_atoms_do_not_overcount() {
        let db = path_db(&[(1, 2), (2, 3)]);
        let e = db.rel_id("e").unwrap();
        // e(X,Y), e(X,Y): same atom twice — second is a pure filter.
        let cq = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(0), v(1)]),
        ]);
        assert_eq!(count_homomorphisms(&db, &cq), 2);
    }
}
