//! Hypertree decompositions (Definitions 4.6-4.7) and the `acy(·)`
//! construction of §4.
//!
//! `findRules` (Figure 4) evaluates metaquery bodies along a *complete
//! hypertree decomposition* of width `c`, achieving the `d^c log d` support
//! computation bound of Theorem 4.12. This module implements the
//! component-based exact search for decompositions of minimal width
//! (Gottlob, Leone & Scarcello, JCSS 2002; the search of det-k-decomp):
//! bounded hypertree-width generalizes semi-acyclicity, `hw(Q) = 1` iff
//! `Q` is semi-acyclic.
//!
//! The candidate construction here always sets
//! `χ(p) = varo(λ(p)) ∩ (conn ∪ varo(component))`, which makes the
//! *special condition* (Definition 4.7, item 4) hold automatically — the
//! produced decompositions are genuine hypertree decompositions, not just
//! generalized ones; [`Hypertree::validate_sets`] checks all four
//! conditions, and every search result is checked in debug builds.
//!
//! The search runs over `u64` masks. Edge `i` is bit `i`, and each
//! distinct variable is the bit of its rank in sorted [`VarId`] order, so
//! a component, a connector, `varo(λ)` and `χ` are one word each and the
//! memo of failed (component, connector) pairs is keyed by two words. A
//! hypergraph may thus have at most [`MASK_BITS`] (64) edges and as many
//! distinct variables. The memo is fresh for every width `k` tried: a
//! pair with no width-`k` decomposition may have one of width `k + 1`.

use crate::atom::Cq;
use mq_relation::{Bindings, Database, VarId};
use std::collections::{BTreeSet, HashSet};

/// One vertex of a hypertree decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HtNode {
    /// `χ(p)`: the ordinary variables covered by this vertex.
    pub chi: BTreeSet<VarId>,
    /// `λ(p)`: indices of query atoms labelling this vertex.
    pub lambda: Vec<usize>,
}

/// A rooted hypertree decomposition of a conjunctive query.
#[derive(Clone, Debug)]
pub struct Hypertree {
    /// Decomposition vertices; index 0 is the root.
    pub nodes: Vec<HtNode>,
    /// Parent links (`None` for the root only).
    pub parent: Vec<Option<usize>>,
    /// Children lists.
    pub children: Vec<Vec<usize>>,
    /// For each query atom, a vertex `p` with `varo(atom) ⊆ χ(p)`.
    /// After [`Hypertree::complete`], the atom is also in `λ(p)`.
    pub atom_home: Vec<usize>,
}

impl Hypertree {
    /// Number of decomposition vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A postorder over vertices (children before parents).
    pub fn postorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(0usize, false)];
        while let Some((n, expanded)) = stack.pop() {
            if expanded {
                order.push(n);
            } else {
                stack.push((n, true));
                for &c in &self.children[n] {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Make the decomposition *complete* (Definition 4.7): ensure each
    /// atom appears in the `λ` of a vertex whose `χ` covers its variables.
    /// May increase the effective width; the width used for complexity
    /// accounting is the pre-completion one.
    pub fn complete(&mut self) {
        for (ai, &home) in self.atom_home.iter().enumerate() {
            if !self.nodes[home].lambda.contains(&ai) {
                self.nodes[home].lambda.push(ai);
            }
        }
    }

    /// Validate Definition 4.7 against the per-edge variable sets the
    /// decomposition was built over:
    /// 1. every atom's variables are covered by some vertex's `χ`;
    /// 2. every variable's vertices induce a connected subtree;
    /// 3. `χ(p) ⊆ varo(λ(p))` for every vertex;
    /// 4. the special condition `varo(λ(p)) ∩ χ(T_p) ⊆ χ(p)`.
    ///
    /// It works on the sets themselves, not on the search's masks, so it
    /// checks the search independently.
    pub fn validate_sets(&self, edge_vars: &[BTreeSet<VarId>]) -> Result<(), String> {
        // (1)
        for (ai, vs) in edge_vars.iter().enumerate() {
            if !self
                .nodes
                .iter()
                .any(|n| vs.iter().all(|v| n.chi.contains(v)))
            {
                return Err(format!("condition 1 violated for atom {ai}"));
            }
        }
        // (2) connectedness per variable
        let all_vars: BTreeSet<VarId> = self.nodes.iter().flat_map(|n| n.chi.clone()).collect();
        for v in all_vars {
            let holders: Vec<usize> = (0..self.nodes.len())
                .filter(|&i| self.nodes[i].chi.contains(&v))
                .collect();
            if holders.len() > 1 {
                let holder_set: BTreeSet<usize> = holders.iter().copied().collect();
                let mut seen = BTreeSet::new();
                let mut stack = vec![holders[0]];
                seen.insert(holders[0]);
                while let Some(n) = stack.pop() {
                    let mut nb: Vec<usize> = self.children[n].clone();
                    if let Some(p) = self.parent[n] {
                        nb.push(p);
                    }
                    for x in nb {
                        if holder_set.contains(&x) && seen.insert(x) {
                            stack.push(x);
                        }
                    }
                }
                if seen.len() != holders.len() {
                    return Err(format!("condition 2 violated for variable {v:?}"));
                }
            }
        }
        // (3)
        for (i, n) in self.nodes.iter().enumerate() {
            let lam_vars: BTreeSet<VarId> = n
                .lambda
                .iter()
                .flat_map(|&ai| edge_vars[ai].iter().copied())
                .collect();
            if !n.chi.iter().all(|v| lam_vars.contains(v)) {
                return Err(format!("condition 3 violated at vertex {i}"));
            }
        }
        // (4) special condition
        let post = self.postorder();
        let mut subtree_chi: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); self.nodes.len()];
        for &n in &post {
            let mut acc = self.nodes[n].chi.clone();
            for &c in &self.children[n] {
                acc.extend(subtree_chi[c].iter().copied());
            }
            subtree_chi[n] = acc;
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let lam_vars: BTreeSet<VarId> = n
                .lambda
                .iter()
                .flat_map(|&ai| edge_vars[ai].iter().copied())
                .collect();
            for v in lam_vars {
                if subtree_chi[i].contains(&v) && !n.chi.contains(&v) {
                    return Err(format!("condition 4 violated at vertex {i} for {v:?}"));
                }
            }
        }
        Ok(())
    }

    /// Materialize the node relation `π_χ(p)(J(λ(p)))` over `db` — the
    /// derived relation of the `acy()` construction (§4, Example 4.11).
    pub fn node_bindings(&self, db: &Database, cq: &Cq, node: usize) -> Bindings {
        let pairs: Vec<(&mq_relation::Relation, &[mq_relation::Term])> = self.nodes[node]
            .lambda
            .iter()
            .map(|&ai| (db.relation(cq.atoms[ai].rel), cq.atoms[ai].terms.as_slice()))
            .collect();
        let join = Bindings::join_all(&pairs);
        let chi: Vec<VarId> = self.nodes[node].chi.iter().copied().collect();
        join.project(&chi)
    }
}

/// The most edges, and the most distinct variables, a hypergraph may have
/// for [`decompose_edge_sets`]: one bit of a `u64` mask each.
pub const MASK_BITS: usize = u64::BITS as usize;

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// A vertex found by the search, with `λ` and `χ` as masks.
struct RawNode {
    lambda: u64,
    chi: u64,
    children: Vec<RawNode>,
}

/// The width-`k` search over one hypergraph.
struct Searcher {
    /// Per edge: its variables.
    edges: Vec<u64>,
    /// Per variable: the edges holding it.
    var_edges: Vec<u64>,
    /// Every `λ` of 1 to `k` edges with its `varo(λ)`, in lexicographic
    /// order of λ's sorted edge list.
    candidates: Vec<(u64, u64)>,
    /// (component, connector) pairs with no width-`k` decomposition.
    failed: HashSet<(u64, u64)>,
    /// Pairs being decomposed, to cut non-productive cycles.
    visiting: HashSet<(u64, u64)>,
}

impl Searcher {
    fn new(edges: Vec<u64>, k: usize) -> Self {
        fn extend(
            edges: &[u64],
            start: usize,
            k: usize,
            lam: (u64, u64),
            out: &mut Vec<(u64, u64)>,
        ) {
            if k == 0 {
                return;
            }
            for (i, &vars) in edges.iter().enumerate().skip(start) {
                let next = (lam.0 | 1 << i, lam.1 | vars);
                out.push(next);
                extend(edges, i + 1, k - 1, next, out);
            }
        }
        let mut candidates = Vec::new();
        extend(&edges, 0, k, (0, 0), &mut candidates);
        let mut var_edges = vec![0; MASK_BITS];
        for (e, &vars) in edges.iter().enumerate() {
            for v in bits(vars) {
                var_edges[v] |= 1 << e;
            }
        }
        Searcher {
            edges,
            var_edges,
            candidates,
            failed: HashSet::new(),
            visiting: HashSet::new(),
        }
    }

    /// The variables of the edges in `edges`.
    fn vars_of(&self, edges: u64) -> u64 {
        bits(edges).fold(0, |acc, e| acc | self.edges[e])
    }

    /// The edges that have a variable in `vars`.
    fn edges_of(&self, vars: u64) -> u64 {
        bits(vars).fold(0, |acc, v| acc | self.var_edges[v])
    }

    /// Split `edges` into the components linked by variables outside
    /// `chi`, each flood-filled from the lowest edge not yet placed.
    fn components(&self, mut edges: u64, chi: u64) -> Vec<u64> {
        let mut comps = Vec::new();
        while edges != 0 {
            let mut comp = edges & edges.wrapping_neg();
            let (mut frontier, mut seen) = (comp, chi);
            while frontier != 0 {
                let vars = self.vars_of(frontier) & !seen;
                seen |= vars;
                frontier = self.edges_of(vars) & edges & !comp;
                comp |= frontier;
            }
            edges &= !comp;
            comps.push(comp);
        }
        comps
    }

    fn decompose(&mut self, comp: u64, conn: u64) -> Option<RawNode> {
        let key = (comp, conn);
        if self.failed.contains(&key) || !self.visiting.insert(key) {
            return None;
        }
        let result = self.decompose_inner(comp, conn);
        self.visiting.remove(&key);
        if result.is_none() {
            self.failed.insert(key);
        }
        result
    }

    fn decompose_inner(&mut self, comp: u64, conn: u64) -> Option<RawNode> {
        let comp_vars = self.vars_of(comp);
        'cands: for ci in 0..self.candidates.len() {
            let (lambda, lam_vars) = self.candidates[ci];
            // λ must cover conn, and χ must meet the component.
            let chi = lam_vars & (conn | comp_vars);
            if conn & !lam_vars != 0 || chi == 0 {
                continue;
            }
            // Absorb the edges χ covers and split the rest.
            let remaining = self.edges_of(comp_vars & !chi) & comp;
            let comps = self.components(remaining, chi);
            if comps == [comp] && comp_vars & chi == conn {
                continue; // no progress with this candidate
            }
            let mut children = Vec::with_capacity(comps.len());
            for sub in comps {
                match self.decompose(sub, self.vars_of(sub) & chi) {
                    Some(child) => children.push(child),
                    None => continue 'cands,
                }
            }
            return Some(RawNode {
                lambda,
                chi,
                children,
            });
        }
        None
    }
}

impl Hypertree {
    /// Append `raw`'s subtree in preorder below `parent`, mapping χ bits
    /// back through `vars` and keeping each vertex's χ mask in `chis`.
    fn push(&mut self, raw: RawNode, parent: Option<usize>, vars: &[VarId], chis: &mut Vec<u64>) {
        let id = self.nodes.len();
        self.nodes.push(HtNode {
            chi: bits(raw.chi).map(|b| vars[b]).collect(),
            lambda: bits(raw.lambda).collect(),
        });
        self.parent.push(parent);
        self.children.push(Vec::new());
        if let Some(p) = parent {
            self.children[p].push(id);
        }
        chis.push(raw.chi);
        for child in raw.children {
            self.push(child, Some(id), vars, chis);
        }
    }
}

/// Search for a width-`k` hypertree decomposition of a hypergraph given as
/// per-edge variable sets (for conjunctive queries these are the atoms'
/// ordinary-variable sets; for metaqueries, the body literal schemes').
/// Returns `None` if no width-`k` decomposition exists.
///
/// # Panics
///
/// If the hypergraph has more than [`MASK_BITS`] edges or distinct
/// variables.
pub fn decompose_edge_sets(edge_vars: &[BTreeSet<VarId>], k: usize) -> Option<Hypertree> {
    if edge_vars.is_empty() {
        return None;
    }
    let mut vars: Vec<VarId> = edge_vars.iter().flatten().copied().collect();
    vars.sort_unstable();
    vars.dedup();
    assert!(
        edge_vars.len() <= MASK_BITS && vars.len() <= MASK_BITS,
        "hypertree search takes at most {MASK_BITS} edges and {MASK_BITS} variables"
    );
    let bit = |v: &VarId| {
        1 << vars
            .binary_search(v)
            .expect("every edge variable is ranked")
    };
    let edges: Vec<u64> = edge_vars
        .iter()
        .map(|vs| vs.iter().fold(0, |acc, v| acc | bit(v)))
        .collect();
    let all = u64::MAX >> (MASK_BITS - edges.len());
    let raw = Searcher::new(edges.clone(), k).decompose(all, 0)?;

    let mut ht = Hypertree {
        nodes: Vec::new(),
        parent: Vec::new(),
        children: Vec::new(),
        atom_home: Vec::new(),
    };
    let mut chis = Vec::new();
    ht.push(raw, None, &vars, &mut chis);
    ht.atom_home = edges
        .iter()
        .map(|&e| {
            chis.iter()
                .position(|&chi| e & !chi == 0)
                .expect("decomposition covers every atom (condition 1)")
        })
        .collect();
    debug_assert!(
        ht.validate_sets(edge_vars).is_ok(),
        "search produced invalid decomposition"
    );
    Some(ht)
}

/// The least `k` admitting a decomposition of the given edge sets, with a
/// witness decomposition. Each `k` searches afresh: a (component,
/// connector) pair with no width-`k` decomposition may have one of width
/// `k + 1`.
pub fn hypertree_width_of_sets(edge_vars: &[BTreeSet<VarId>]) -> Option<(usize, Hypertree)> {
    (1..=edge_vars.len().max(1)).find_map(|k| Some((k, decompose_edge_sets(edge_vars, k)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use mq_relation::Database;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn edges(cq: &Cq) -> Vec<BTreeSet<VarId>> {
        cq.atoms.iter().map(|a| a.var_set()).collect()
    }

    fn db_with(arities: &[(&str, usize)]) -> Database {
        let mut db = Database::new();
        for &(name, ar) in arities {
            db.add_relation(name, ar);
        }
        db
    }

    /// Example 4.8/4.10: Qex = {P(A,B), Q(B,C), R(C,D), S(B,D)} has
    /// hypertree-width 2 (it is not semi-acyclic).
    #[test]
    fn example_4_8_width_two() {
        let db = db_with(&[("P", 2), ("Q", 2), ("R", 2), ("S", 2)]);
        let cq = Cq::new(vec![
            Atom::vars_atom(db.rel_id("P").unwrap(), &[v(0), v(1)]), // P(A,B)
            Atom::vars_atom(db.rel_id("Q").unwrap(), &[v(1), v(2)]), // Q(B,C)
            Atom::vars_atom(db.rel_id("R").unwrap(), &[v(2), v(3)]), // R(C,D)
            Atom::vars_atom(db.rel_id("S").unwrap(), &[v(1), v(3)]), // S(B,D)
        ]);
        assert!(
            decompose_edge_sets(&edges(&cq), 1).is_none(),
            "Qex is not semi-acyclic"
        );
        let (w, ht) = hypertree_width_of_sets(&edges(&cq)).unwrap();
        assert_eq!(w, 2);
        ht.validate_sets(&edges(&cq)).unwrap();
    }

    /// Chains are width 1 (semi-acyclic).
    #[test]
    fn chain_width_one() {
        let db = db_with(&[("P", 2), ("Q", 2), ("R", 2)]);
        let cq = Cq::new(vec![
            Atom::vars_atom(db.rel_id("P").unwrap(), &[v(0), v(1)]),
            Atom::vars_atom(db.rel_id("Q").unwrap(), &[v(1), v(2)]),
            Atom::vars_atom(db.rel_id("R").unwrap(), &[v(2), v(3)]),
        ]);
        let (w, ht) = hypertree_width_of_sets(&edges(&cq)).unwrap();
        assert_eq!(w, 1);
        ht.validate_sets(&edges(&cq)).unwrap();
    }

    /// Width-1 decompositions exist exactly for semi-acyclic queries.
    #[test]
    fn width_one_iff_join_tree() {
        use crate::jointree::JoinTree;
        let db = db_with(&[("e", 2)]);
        let e = db.rel_id("e").unwrap();
        // triangle: cyclic
        let tri = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(1), v(2)]),
            Atom::vars_atom(e, &[v(2), v(0)]),
        ]);
        assert!(JoinTree::for_cq(&tri).is_none());
        assert!(decompose_edge_sets(&edges(&tri), 1).is_none());
        let (w, _) = hypertree_width_of_sets(&edges(&tri)).unwrap();
        assert_eq!(w, 2);
        // star: acyclic
        let star = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(0), v(2)]),
            Atom::vars_atom(e, &[v(0), v(3)]),
        ]);
        assert!(JoinTree::for_cq(&star).is_some());
        assert!(decompose_edge_sets(&edges(&star), 1).is_some());
    }

    /// 2x2 grid (cycle of length 4) has width 2.
    #[test]
    fn four_cycle_width_two() {
        let db = db_with(&[("e", 2)]);
        let e = db.rel_id("e").unwrap();
        let cq = Cq::new(vec![
            Atom::vars_atom(e, &[v(0), v(1)]),
            Atom::vars_atom(e, &[v(1), v(2)]),
            Atom::vars_atom(e, &[v(2), v(3)]),
            Atom::vars_atom(e, &[v(3), v(0)]),
        ]);
        let (w, ht) = hypertree_width_of_sets(&edges(&cq)).unwrap();
        assert_eq!(w, 2);
        ht.validate_sets(&edges(&cq)).unwrap();
    }

    #[test]
    fn complete_assigns_every_atom() {
        let db = db_with(&[("P", 2), ("Q", 2), ("R", 2), ("S", 2)]);
        let cq = Cq::new(vec![
            Atom::vars_atom(db.rel_id("P").unwrap(), &[v(0), v(1)]),
            Atom::vars_atom(db.rel_id("Q").unwrap(), &[v(1), v(2)]),
            Atom::vars_atom(db.rel_id("R").unwrap(), &[v(2), v(3)]),
            Atom::vars_atom(db.rel_id("S").unwrap(), &[v(1), v(3)]),
        ]);
        let (_, mut ht) = hypertree_width_of_sets(&edges(&cq)).unwrap();
        ht.complete();
        for (ai, _) in cq.atoms.iter().enumerate() {
            let home = ht.atom_home[ai];
            assert!(ht.nodes[home].lambda.contains(&ai));
            let vs = cq.atoms[ai].var_set();
            assert!(vs.iter().all(|v| ht.nodes[home].chi.contains(v)));
        }
        ht.validate_sets(&edges(&cq)).unwrap();
    }

    /// node_bindings materializes π_χ(J(λ)) — check against direct join on
    /// a concrete database (Example 4.11's construction).
    #[test]
    fn node_bindings_matches_direct_join() {
        use mq_relation::ints;
        let mut db = Database::new();
        let p = db.add_relation("P", 2);
        let q = db.add_relation("Q", 2);
        let r = db.add_relation("R", 2);
        let s = db.add_relation("S", 2);
        for (x, y) in [(1, 2), (2, 3), (3, 1)] {
            db.insert(p, ints(&[x, y]));
            db.insert(q, ints(&[x, y]));
            db.insert(r, ints(&[x, y]));
            db.insert(s, ints(&[x, y]));
        }
        let cq = Cq::new(vec![
            Atom::vars_atom(p, &[v(0), v(1)]),
            Atom::vars_atom(q, &[v(1), v(2)]),
            Atom::vars_atom(r, &[v(2), v(3)]),
            Atom::vars_atom(s, &[v(1), v(3)]),
        ]);
        let (_, ht) = hypertree_width_of_sets(&edges(&cq)).unwrap();
        for node in 0..ht.len() {
            let b = ht.node_bindings(&db, &cq, node);
            // Every row must satisfy each lambda atom's relation.
            assert!(b.vars().iter().all(|vv| ht.nodes[node].chi.contains(vv)));
        }
    }

    #[test]
    fn empty_query_has_no_decomposition() {
        assert!(hypertree_width_of_sets(&[]).is_none());
    }

    /// The mask holds 64 edges over 64 variables, whatever their ids: 64
    /// disjoint one-variable edges hang off the first edge's vertex.
    #[test]
    fn sixty_four_edges_fit_the_mask() {
        let sets: Vec<BTreeSet<VarId>> = (0..64).map(|i| BTreeSet::from([v(3 * i + 7)])).collect();
        let (w, ht) = hypertree_width_of_sets(&sets).unwrap();
        assert_eq!((w, ht.len()), (1, 64));
        assert_eq!(ht.nodes[63].chi, BTreeSet::from([v(3 * 63 + 7)]));
        assert_eq!(ht.atom_home, (0..64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at most 64 edges")]
    fn sixty_five_edges_exceed_the_mask() {
        let sets: Vec<BTreeSet<VarId>> = (0..65).map(|i| BTreeSet::from([v(i % 2)])).collect();
        decompose_edge_sets(&sets, 1);
    }
}
