//! Semijoin programs and full reducers (Definition 4.4, Example 4.5).
//!
//! A *full reducer* is a semijoin program after which every relation in a
//! set of atoms is reduced (Definition 4.1) regardless of initial contents.
//! Bernstein & Goodman: a set of atoms has a full reducer iff it is
//! semi-acyclic; the reducer is the first-half (bottom-up) plus second-half
//! (reversed, swapped) program read off a rooted join tree.

use crate::jointree::JoinTree;
use mq_relation::Bindings;
use std::fmt;

/// One semijoin step `target := target ⋉ source` over atom indices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SemijoinStep {
    /// The atom being reduced.
    pub target: usize,
    /// The atom it is reduced against.
    pub source: usize,
}

impl fmt::Display for SemijoinStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{} := r{} ⋉ r{}", self.target, self.target, self.source)
    }
}

/// A full reducer: `first_half` then `second_half` (Definition 4.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FullReducer {
    /// Bottom-up semijoins: parents reduced by children.
    pub first_half: Vec<SemijoinStep>,
    /// The first half reversed with target/source exchanged.
    pub second_half: Vec<SemijoinStep>,
}

impl FullReducer {
    /// Derive the full reducer from a rooted join tree, following §4:
    /// the first half visits the tree bottom-up, adding `ri := ri ⋉ rj`
    /// for each child `rj` of the current node `ri`; the second half is
    /// the reversed sequence with the roles exchanged.
    pub fn from_join_tree(tree: &JoinTree) -> Self {
        let mut first_half = Vec::new();
        for &node in &tree.postorder {
            for &child in &tree.children[node] {
                first_half.push(SemijoinStep {
                    target: node,
                    source: child,
                });
            }
        }
        let second_half = first_half
            .iter()
            .rev()
            .map(|s| SemijoinStep {
                target: s.source,
                source: s.target,
            })
            .collect();
        FullReducer {
            first_half,
            second_half,
        }
    }

    /// All steps in execution order.
    pub fn steps(&self) -> impl Iterator<Item = &SemijoinStep> {
        self.first_half.iter().chain(self.second_half.iter())
    }

    /// Total number of semijoin steps (`2 · (n − #components)`).
    pub fn len(&self) -> usize {
        self.first_half.len() + self.second_half.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.first_half.is_empty()
    }

    /// Execute against per-atom bindings, in place: each step is one
    /// [`Bindings::semijoin`], the engine's kernel.
    pub fn run(&self, atoms: &mut [Bindings]) {
        run_steps(self.steps(), atoms);
    }

    /// Execute only the first half (enough for satisfiability at the root).
    pub fn run_first_half(&self, atoms: &mut [Bindings]) {
        run_steps(&self.first_half, atoms);
    }
}

fn run_steps<'a>(steps: impl IntoIterator<Item = &'a SemijoinStep>, atoms: &mut [Bindings]) {
    for step in steps {
        atoms[step.target] = atoms[step.target].semijoin(&atoms[step.source]);
    }
}

/// Check that every atom is *reduced* w.r.t. the others (Definition 4.1):
/// `ri = π_att(ri)(r1 ⋈ ... ⋈ rn)`. Exponential — test/diagnostic use only.
pub fn is_fully_reduced(atoms: &[Bindings]) -> bool {
    let mut join = Bindings::unit();
    for b in atoms {
        join = join.join(b);
    }
    atoms.iter().all(|b| {
        let proj = join.project(b.vars());
        proj.len() == b.len()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Cq};
    use mq_relation::{ints, Bindings, Database, Term, VarId};

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// Example 4.5: Q = {p(A,B), q(B,C), r(C,D)} rooted at q(B,C) has the
    /// full reducer
    ///   q := q ⋉ r;  q := q ⋉ p;   (first half)
    ///   p := p ⋉ q;  r := r ⋉ q;   (second half)
    /// (modulo child order). We verify the *shape*: first half reduces only
    /// the root-side nodes bottom-up, second half mirrors it.
    #[test]
    fn example_4_5_shape() {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        let q = db.add_relation("q", 2);
        let r = db.add_relation("r", 2);
        let cq = Cq::new(vec![
            Atom::vars_atom(p, &[v(0), v(1)]), // p(A,B)
            Atom::vars_atom(q, &[v(1), v(2)]), // q(B,C)
            Atom::vars_atom(r, &[v(2), v(3)]), // r(C,D)
        ]);
        let tree = JoinTree::for_cq(&cq).unwrap();
        let red = FullReducer::from_join_tree(&tree);
        assert_eq!(red.first_half.len(), 2);
        assert_eq!(red.second_half.len(), 2);
        // Second half is the reverse with roles swapped.
        for (a, b) in red.first_half.iter().rev().zip(red.second_half.iter()) {
            assert_eq!(a.target, b.source);
            assert_eq!(a.source, b.target);
        }
    }

    #[test]
    fn full_reducer_fully_reduces_chain() {
        let mut db = Database::new();
        let e = db.add_relation("e", 2);
        for (a, b) in [(1, 2), (2, 3), (3, 4), (9, 9)] {
            db.insert(e, ints(&[a, b]));
        }
        let cq = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(1), v(2)]),
            Atom::vars_atom(e, &[v(2), v(3)]),
        ]);
        let tree = JoinTree::for_cq(&cq).unwrap();
        let red = FullReducer::from_join_tree(&tree);
        let rel = db.rel("e");
        let mut bindings: Vec<Bindings> = cq
            .atoms
            .iter()
            .map(|a| {
                let terms: Vec<Term> = a.terms.clone();
                Bindings::from_atom(rel, &terms)
            })
            .collect();
        red.run(&mut bindings);
        assert!(is_fully_reduced(&bindings));
        // paths of length 3: 1-2-3-4 and 9-9-9-9
        assert_eq!(bindings[0].len(), 2);
    }

    #[test]
    fn reducer_detects_empty_join() {
        let mut db = Database::new();
        let e = db.add_relation("e", 2);
        db.insert(e, ints(&[1, 2]));
        db.insert(e, ints(&[3, 4]));
        // e(X,Y), e(Y,Z): no length-2 path exists
        let cq = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(1), v(2)]),
        ]);
        let tree = JoinTree::for_cq(&cq).unwrap();
        let red = FullReducer::from_join_tree(&tree);
        let rel = db.rel("e");
        let mut bindings: Vec<Bindings> = cq
            .atoms
            .iter()
            .map(|a| Bindings::from_atom(rel, &a.terms))
            .collect();
        red.run(&mut bindings);
        assert!(bindings.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn is_fully_reduced_detects_unreduced() {
        let mut db = Database::new();
        let e = db.add_relation("e", 2);
        db.insert(e, ints(&[1, 2]));
        db.insert(e, ints(&[5, 6])); // dangling in the join below
        let rel = db.rel("e");
        let a = Bindings::from_atom(rel, &[Term::Var(v(0)), Term::Var(v(1))]);
        let b = Bindings::from_atom(rel, &[Term::Var(v(1)), Term::Var(v(2))]);
        // (5,6) in `a` has no continuation; unreduced.
        assert!(!is_fully_reduced(&[a, b]));
    }
}
