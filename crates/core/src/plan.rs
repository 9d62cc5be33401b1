//! The physical plan IR: "decide once, execute many".
//!
//! PR 2 introduced cost-guided λ-join planning, but the plan existed only
//! implicitly — interleaved with execution inside the engine. This module
//! reifies it as a first-class IR: a hash-consed DAG of relational
//! operators ([`PlanOp`]) interned in a [`PlanArena`]. The planner
//! ([`build_node_plan_ordered`]) is a pure function from a vertex's χ
//! variables, its λ atoms' statistics and their join order
//! ([`plan_join_order`]) to a plan root; the executor
//! (`crate::engine::exec`) interprets plan nodes against [`mq_relation::Bindings`]
//! values and memoizes results **per plan-node id**.
//!
//! Hash-consing is what makes the memo work across instantiations: two
//! sibling λ assignments that differ only in later-planned atoms intern
//! the *same* nodes for their shared prefix (node identity is the operator
//! plus its operands, recursively), so the executor's per-id result memo
//! replaces PR 2's ad-hoc `(Vec<AtomKey>, Vec<VarId>)` tuple keys — one
//! `u32` lookup instead of re-hashing the whole prefix, and prefixes are
//! still shared across decomposition vertices whose λ labels overlap.
//!
//! Counting is not in the IR. The cover/confidence pair of `findHeads`
//! is the executor's head-count op: it counts every head of the search
//! against one body join through the search's
//! [`mq_relation::HeadTable`]. The `enoughSupport` semijoin counts and
//! the support counts call the kernels directly.

use mq_relation::{RelId, Term, VarId};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// An instantiated atom — relation plus argument terms. The unit of
/// sharing for the atom memo and for plan-node identity.
pub type AtomKey = (RelId, Vec<Term>);

/// Identifier of an interned plan node (dense, per [`PlanArena`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PlanNodeId(pub u32);

/// A physical plan operator. `left` operands are plan nodes; atoms are
/// evaluated (and cached) by the executor from their [`AtomKey`].
///
/// Node identity — and therefore result-memo identity — is the operator
/// with its operands: interning the same op twice yields the same id.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PlanOp {
    /// Evaluate one instantiated atom against the database.
    Scan {
        /// The instantiated atom.
        atom: AtomKey,
    },
    /// Hash-join the left plan node with an atom on the given keys
    /// (the variables shared between the left result and the atom).
    HashJoin {
        /// Left input (the accumulated intermediate).
        left: PlanNodeId,
        /// Right input atom.
        atom: AtomKey,
        /// Shared variables joined on, in `VarId` order.
        keys: Vec<VarId>,
    },
    /// Filter the left plan node by an atom that contributes no needed
    /// variable: `π_V(J ⋈ A) = π_V(J ⋉ A)` when `A` adds nothing to `V`,
    /// and the semijoin never multiplies rows.
    Semijoin {
        /// Left input (the accumulated intermediate).
        left: PlanNodeId,
        /// Filtering atom.
        atom: AtomKey,
        /// Shared variables probed on, in `VarId` order.
        keys: Vec<VarId>,
    },
    /// Project the left plan node onto `vars` (with deduplication) —
    /// the "keep only `χ ∪ vars(remaining atoms)`" step.
    /// Planned only where it drops a variable, never to reorder columns.
    Project {
        /// Input node.
        left: PlanNodeId,
        /// Variables kept: a strict subset of the left node's variables.
        vars: Vec<VarId>,
    },
}

/// Hash-consing arena for plan nodes. Interning is idempotent: the same
/// operator (including operand ids) always returns the same node id, so
/// plans for sibling instantiations share their common prefixes
/// structurally.
#[derive(Default)]
pub struct PlanArena {
    nodes: Vec<PlanOp>,
    ids: HashMap<PlanOp, PlanNodeId>,
}

impl PlanArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `op`, returning the existing id if an identical node exists.
    pub fn intern(&mut self, op: PlanOp) -> PlanNodeId {
        if let Some(&id) = self.ids.get(&op) {
            return id;
        }
        let id = PlanNodeId(self.nodes.len() as u32);
        self.nodes.push(op.clone());
        self.ids.insert(op, id);
        id
    }

    /// The operator of node `id`.
    pub fn op(&self, id: PlanNodeId) -> &PlanOp {
        &self.nodes[id.0 as usize]
    }

    /// Number of interned nodes (result memos size themselves off this).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes were interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Per-atom statistics consumed by [`plan_join_order`]: the instantiated
/// atom's cardinality and its distinct variables.
#[derive(Clone, Debug)]
pub struct JoinAtomStats {
    /// Number of tuples of the instantiated atom.
    pub len: usize,
    /// Its distinct variables (any order).
    pub vars: Vec<VarId>,
}

/// Greedy cost-guided join order for a multi-atom join (the λ label of one
/// hypertree vertex).
///
/// Starts from the smallest atom, then repeatedly appends the *connected*
/// atom — one sharing at least one already-bound variable — with the
/// smallest `expansion(atom, shared_vars)` estimate. For hash joins the
/// natural estimate is the atom's average group size on the shared
/// columns (`len / distinct_keys`, see [`mq_relation::Bindings::distinct_keys`]): the
/// expected number of rows each probe row fans out into. Atoms sharing no
/// bound variable rank after every connected one and are only picked
/// (smallest first) when a cross product is unavoidable.
///
/// This is the fix for the width-2 cycle slowdown: a completed
/// decomposition routinely labels a vertex with variable-disjoint atom
/// pairs, and folding them in raw λ order materializes a `d²` cross
/// product that the remaining atoms then shrink back down.
///
/// Deterministic: ties break on `(len, index)`, so planned searches are
/// reproducible across runs and across parallel workers.
pub fn plan_join_order(
    stats: &[JoinAtomStats],
    mut expansion: impl FnMut(usize, &[VarId]) -> f64,
) -> Vec<usize> {
    let n = stats.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let first = (0..n)
        .min_by_key(|&i| (stats[i].len, i))
        .expect("n >= 1 atoms");
    let mut order = Vec::with_capacity(n);
    order.push(first);
    let mut bound: Vec<VarId> = Vec::new();
    for &v in &stats[first].vars {
        if !bound.contains(&v) {
            bound.push(v);
        }
    }
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != first).collect();
    let mut shared: Vec<VarId> = Vec::new();
    while !remaining.is_empty() {
        let mut best: Option<(f64, usize, usize)> = None; // (score, len, atom)
        for &i in &remaining {
            shared.clear();
            shared.extend(stats[i].vars.iter().copied().filter(|v| bound.contains(v)));
            let score = if shared.is_empty() {
                f64::INFINITY // cross product: last resort
            } else {
                expansion(i, &shared)
            };
            let better = match best {
                None => true,
                Some((bs, bl, bi)) => match score.total_cmp(&bs) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => (stats[i].len, i) < (bl, bi),
                },
            };
            if better {
                best = Some((score, stats[i].len, i));
            }
        }
        let (_, _, next) = best.expect("remaining is non-empty");
        order.push(next);
        remaining.retain(|&i| i != next);
        for &v in &stats[next].vars {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
    order
}

/// Build the physical plan for one node join `π_χ(J(atoms))`, joining
/// the λ atoms in `order` (decided by [`plan_join_order`]) — the pure
/// "decide" half of what used to be `Engine::plan_node_join`.
///
/// An atom contributing no variable still *needed* (`χ ∪ vars(remaining
/// atoms)`) becomes a [`PlanOp::Semijoin`] instead of a join, and a step
/// whose result holds a variable no longer needed is followed by a
/// [`PlanOp::Project`] onto the needed ones. Column order is free —
/// every operator addresses columns by variable — so a step that drops
/// nothing gets no `Project`, and a single atom over exactly χ plans as
/// a bare [`PlanOp::Scan`]. Every step interns its nodes, so the
/// executor's per-node-id memo makes sibling plans resume from shared
/// prefixes.
///
/// The costing half ([`plan_join_order`]) probes row statistics (an
/// O(rows) index build per uncached column set), so callers sharing one
/// arena across workers run it **outside** the arena lock and only
/// intern — pure, allocation-light work — under it. `stats[i]` must
/// describe the evaluated atom `atom_keys[i]`. Returns the root node id.
pub fn build_node_plan_ordered(
    arena: &mut PlanArena,
    chi: &[VarId],
    atom_keys: &[AtomKey],
    stats: &[JoinAtomStats],
    order: &[usize],
) -> PlanNodeId {
    assert!(!atom_keys.is_empty(), "λ labels are non-empty");
    assert_eq!(atom_keys.len(), stats.len());
    assert_eq!(atom_keys.len(), order.len());
    // needed[k]: variables the pipeline still requires after step k —
    // χ plus everything a later-planned atom joins on.
    let mut needed: Vec<BTreeSet<VarId>> = Vec::with_capacity(order.len());
    let mut acc_need: BTreeSet<VarId> = chi.iter().copied().collect();
    for &ai in order.iter().rev() {
        needed.push(acc_need.clone());
        acc_need.extend(stats[ai].vars.iter().copied());
    }
    needed.reverse();

    // (node id, the variables of its result): they give each step's
    // join keys and show which steps drop a variable.
    let mut cur: Option<(PlanNodeId, Vec<VarId>)> = None;
    for (k, &ai) in order.iter().enumerate() {
        let atom = atom_keys[ai].clone();
        let atom_vars = &stats[ai].vars;
        let (node, vars) = match cur {
            None => (arena.intern(PlanOp::Scan { atom }), atom_vars.clone()),
            Some((left, mut vars)) => {
                let mut keys: Vec<VarId> = atom_vars
                    .iter()
                    .copied()
                    .filter(|v| vars.contains(v))
                    .collect();
                keys.sort_unstable();
                let fresh: Vec<VarId> = atom_vars
                    .iter()
                    .copied()
                    .filter(|v| !vars.contains(v))
                    .collect();
                if fresh.iter().any(|v| needed[k].contains(v)) {
                    vars.extend(fresh);
                    (arena.intern(PlanOp::HashJoin { left, atom, keys }), vars)
                } else {
                    (arena.intern(PlanOp::Semijoin { left, atom, keys }), vars)
                }
            }
        };
        cur = Some(if vars.iter().all(|v| needed[k].contains(v)) {
            (node, vars)
        } else {
            let kept: Vec<VarId> = vars.into_iter().filter(|v| needed[k].contains(v)).collect();
            let proj = arena.intern(PlanOp::Project {
                left: node,
                vars: kept.clone(),
            });
            (proj, kept)
        });
    }
    cur.expect("at least one planned step").0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(atoms: &[(usize, &[u32])]) -> Vec<JoinAtomStats> {
        atoms
            .iter()
            .map(|&(len, vars)| JoinAtomStats {
                len,
                vars: vars.iter().map(|&v| VarId(v)).collect(),
            })
            .collect()
    }

    /// Uniform expansion estimate for planner tests.
    fn flat(_: usize, _: &[VarId]) -> f64 {
        1.0
    }

    /// The planner never picks a cross product while a connected atom
    /// remains: on the 4-cycle vertex {e(X0,X1), e(X2,X3), e(X3,X0)} the
    /// raw λ order joins the two disjoint atoms first; the plan must not.
    #[test]
    fn plan_avoids_cross_products() {
        let s = stats(&[(120, &[0, 1]), (120, &[2, 3]), (120, &[3, 0])]);
        let order = plan_join_order(&s, flat);
        assert_eq!(order.len(), 3);
        // Every step after the first shares a variable with the atoms
        // already planned.
        let mut bound: Vec<u32> = s[order[0]].vars.iter().map(|v| v.0).collect();
        for &i in &order[1..] {
            assert!(
                s[i].vars.iter().any(|v| bound.contains(&v.0)),
                "step {i} is a cross product in {order:?}"
            );
            bound.extend(s[i].vars.iter().map(|v| v.0));
        }
    }

    /// Smaller atoms are preferred as the starting point and lower
    /// expansion estimates win among connected candidates.
    #[test]
    fn plan_prefers_small_and_selective() {
        let s = stats(&[(1000, &[0, 1]), (10, &[1, 2]), (500, &[2, 3])]);
        let order = plan_join_order(&s, |i, _| s[i].len as f64);
        assert_eq!(order[0], 1, "smallest atom starts the plan");
        assert_eq!(order, vec![1, 2, 0], "lower expansion estimate wins");
    }

    /// Disconnected components force a cross product eventually; the
    /// planner still orders each component before jumping.
    #[test]
    fn plan_handles_forced_cross_product() {
        let s = stats(&[(50, &[0, 1]), (50, &[1, 2]), (50, &[8, 9])]);
        let order = plan_join_order(&s, flat);
        assert_eq!(order[2], 2, "the disjoint atom goes last");
        assert_eq!(plan_join_order(&stats(&[(5, &[0])]), flat), vec![0]);
        assert!(plan_join_order(&stats(&[]), flat).is_empty());
    }

    /// Order with [`plan_join_order`] under [`flat`], then intern.
    fn plan(
        arena: &mut PlanArena,
        chi: &[VarId],
        keys: &[AtomKey],
        s: &[JoinAtomStats],
    ) -> PlanNodeId {
        let order = plan_join_order(s, flat);
        build_node_plan_ordered(arena, chi, keys, s, &order)
    }

    fn key(rel: u32, vars: &[u32]) -> AtomKey {
        (
            RelId(rel),
            vars.iter().map(|&v| Term::Var(VarId(v))).collect(),
        )
    }

    /// Interning is idempotent and sibling plans share prefix nodes.
    #[test]
    fn hash_consing_shares_prefixes() {
        let mut arena = PlanArena::new();
        let chi = [VarId(0), VarId(1)];
        let keys_a = [key(0, &[0, 1]), key(1, &[1, 2]), key(2, &[2, 0])];
        let keys_b = [key(0, &[0, 1]), key(1, &[1, 2]), key(3, &[2, 0])];
        let s = stats(&[(5, &[0, 1]), (10, &[1, 2]), (20, &[2, 0])]);
        let ra = plan(&mut arena, &chi, &keys_a, &s);
        let n_after_a = arena.len();
        let ra2 = plan(&mut arena, &chi, &keys_a, &s);
        assert_eq!(ra, ra2, "identical plans intern to the same root");
        assert_eq!(arena.len(), n_after_a, "no new nodes for a re-plan");
        // A sibling differing only in the last-planned atom adds only the
        // final semijoin+project pair.
        let rb = plan(&mut arena, &chi, &keys_b, &s);
        assert_ne!(ra, rb);
        assert_eq!(
            arena.len(),
            n_after_a + 2,
            "sibling plan reuses the shared prefix nodes"
        );
    }

    /// A single atom over more than χ plans as scan + project onto χ.
    #[test]
    fn single_atom_plan_is_scan_project() {
        let mut arena = PlanArena::new();
        let chi = [VarId(0)];
        let keys = [key(0, &[0, 1])];
        let s = stats(&[(5, &[0, 1])]);
        let root = plan(&mut arena, &chi, &keys, &s);
        match arena.op(root) {
            PlanOp::Project { left, vars } => {
                assert_eq!(vars, &[VarId(0)]);
                assert!(matches!(arena.op(*left), PlanOp::Scan { .. }));
            }
            other => panic!("expected project root, got {other:?}"),
        }
    }

    /// A purely-filtering atom (adding no needed variable) plans as a
    /// semijoin, never a join.
    #[test]
    fn filtering_atom_becomes_semijoin() {
        let mut arena = PlanArena::new();
        // χ = {0}; atoms: e(0,1) then f(1) — f adds no needed variable.
        let chi = [VarId(0)];
        let keys = [key(0, &[0, 1]), key(1, &[1])];
        let s = stats(&[(5, &[0, 1]), (50, &[1])]);
        let root = plan(&mut arena, &chi, &keys, &s);
        let PlanOp::Project { left, .. } = arena.op(root) else {
            panic!("root must project");
        };
        assert!(
            matches!(arena.op(*left), PlanOp::Semijoin { .. }),
            "filter-only atom must semijoin, got {:?}",
            arena.op(*left)
        );
    }

    /// Column order is free: a single atom over exactly χ, in another
    /// order than χ's, plans as a bare scan.
    #[test]
    fn single_atom_over_chi_plans_as_bare_scan() {
        let mut arena = PlanArena::new();
        let chi = [VarId(0), VarId(1)];
        let root = plan(
            &mut arena,
            &chi,
            &[key(0, &[1, 0])],
            &stats(&[(5, &[1, 0])]),
        );
        assert!(
            matches!(arena.op(root), PlanOp::Scan { .. }),
            "expected a bare scan, got {:?}",
            arena.op(root)
        );
        assert_eq!(arena.len(), 1);
    }

    /// A join whose columns come out unsorted — e(2,1) first, then f(1,0)
    /// appends 0 — keeps every variable of χ and needs no `Project`.
    #[test]
    fn unsorted_join_plans_no_project() {
        let mut arena = PlanArena::new();
        let chi = [VarId(0), VarId(1), VarId(2)];
        let keys = [key(0, &[2, 1]), key(1, &[1, 0])];
        let root = plan(
            &mut arena,
            &chi,
            &keys,
            &stats(&[(5, &[2, 1]), (10, &[1, 0])]),
        );
        match arena.op(root) {
            PlanOp::HashJoin { left, keys, .. } => {
                assert_eq!(keys, &[VarId(1)]);
                assert!(matches!(arena.op(*left), PlanOp::Scan { .. }));
            }
            other => panic!("expected a hash-join root, got {other:?}"),
        }
        assert_eq!(arena.len(), 2);
    }

    /// The variables of node `id`'s result, as a set.
    fn node_vars(arena: &PlanArena, id: PlanNodeId) -> BTreeSet<VarId> {
        let atom_vars = |(_, terms): &AtomKey| {
            terms
                .iter()
                .filter_map(|t| t.as_var())
                .collect::<BTreeSet<_>>()
        };
        match arena.op(id) {
            PlanOp::Scan { atom } => atom_vars(atom),
            PlanOp::HashJoin { left, atom, .. } => {
                let mut vars = node_vars(arena, *left);
                vars.extend(atom_vars(atom));
                vars
            }
            PlanOp::Semijoin { left, .. } => node_vars(arena, *left),
            PlanOp::Project { vars, .. } => vars.iter().copied().collect(),
        }
    }

    /// Over a seeded batch of λ/χ shapes, every root ranges over exactly
    /// χ and every interned `Project` keeps only columns of its input and
    /// drops at least one of them.
    #[test]
    fn every_project_drops_a_column() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(28);
        let mut arena = PlanArena::new();
        for _ in 0..300 {
            let n_atoms = rng.gen_range(1..=4usize);
            let mut keys = Vec::with_capacity(n_atoms);
            let mut atoms = Vec::with_capacity(n_atoms);
            for _ in 0..n_atoms {
                let mut vars: Vec<u32> = (0..6).collect();
                vars.shuffle(&mut rng);
                vars.truncate(rng.gen_range(1..=3usize));
                keys.push(key(rng.gen_range(0..4u32), &vars));
                atoms.push(JoinAtomStats {
                    len: rng.gen_range(1..50usize),
                    vars: vars.into_iter().map(VarId).collect(),
                });
            }
            let all: BTreeSet<VarId> = atoms.iter().flat_map(|a| a.vars.clone()).collect();
            let chi: Vec<VarId> = all.into_iter().filter(|_| rng.gen_bool(0.5)).collect();
            let root = plan(&mut arena, &chi, &keys, &atoms);
            assert_eq!(node_vars(&arena, root), chi.iter().copied().collect());
        }
        let mut projects = 0;
        for id in (0..arena.len() as u32).map(PlanNodeId) {
            if let PlanOp::Project { left, vars } = arena.op(id) {
                let input = node_vars(&arena, *left);
                assert!(
                    vars.len() < input.len() && vars.iter().all(|v| input.contains(v)),
                    "project {vars:?} over {input:?} drops nothing"
                );
                projects += 1;
            }
        }
        assert!(projects > 0, "the batch plans some projections");
    }
}
