//! The physical plan IR: "decide once, execute many".
//!
//! PR 2 introduced cost-guided λ-join planning, but the plan existed only
//! implicitly — interleaved with execution inside the engine. This module
//! reifies it as a first-class IR: a hash-consed DAG of relational
//! operators ([`PlanOp`]) interned in a [`PlanArena`]. The planner
//! ([`build_node_plan`]) is a pure function from a vertex's χ variables
//! and its λ atoms' statistics to a plan root; the executor
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
/// sharing for the atom cache and for plan-node identity.
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
        /// Shared variables joined on.
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
        /// Shared variables probed on.
        keys: Vec<VarId>,
    },
    /// Project the left plan node onto `vars` (with deduplication) —
    /// the "keep only `χ ∪ vars(remaining atoms)`" step between joins.
    Project {
        /// Input node.
        left: PlanNodeId,
        /// Variables kept (missing ones are ignored, as in
        /// [`mq_relation::Bindings::project`]).
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

/// Build the physical plan for one node join `π_χ(J(atoms))` — the pure
/// "decide" half of what used to be `Engine::plan_node_join`.
///
/// The λ atoms are joined in a planned order ([`plan_join_order`]); each
/// intermediate is projected onto the variables still *needed*
/// (`χ ∪ vars(remaining atoms)`), and an atom contributing no needed
/// variable becomes a [`PlanOp::Semijoin`] instead of a join. Every step
/// interns `(join|semijoin) → project` node pairs, so the executor's
/// per-node-id memo makes sibling plans resume from shared prefixes.
///
/// `stats[i]` must describe the evaluated atom `atom_keys[i]`; the
/// `expansion` estimate is the planner's fan-out oracle (see
/// [`plan_join_order`]). Returns the root node id.
pub fn build_node_plan(
    arena: &mut PlanArena,
    chi: &[VarId],
    atom_keys: &[AtomKey],
    stats: &[JoinAtomStats],
    expansion: impl FnMut(usize, &[VarId]) -> f64,
) -> PlanNodeId {
    let order = plan_join_order(stats, expansion);
    build_node_plan_ordered(arena, chi, atom_keys, stats, &order)
}

/// [`build_node_plan`] with the join order already decided — the
/// costing half split from the interning half. The cost model probes
/// row statistics (an O(rows) index build per uncached column set), so
/// callers sharing one arena across workers run [`plan_join_order`]
/// **outside** the arena lock and only intern — pure, allocation-light
/// work — under it.
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
    if let [key] = atom_keys {
        let scan = arena.intern(PlanOp::Scan { atom: key.clone() });
        return arena.intern(PlanOp::Project {
            left: scan,
            vars: chi.to_vec(),
        });
    }
    // needed[k]: variables the pipeline still requires after step k —
    // χ plus everything a later-planned atom joins on.
    let mut needed: Vec<BTreeSet<VarId>> = Vec::with_capacity(order.len());
    let mut acc_need: BTreeSet<VarId> = chi.iter().copied().collect();
    for &ai in order.iter().rev() {
        needed.push(acc_need.clone());
        acc_need.extend(stats[ai].vars.iter().copied());
    }
    needed.reverse();

    let mut covered: BTreeSet<VarId> = BTreeSet::new();
    // (node id, the exact column variables of its result) — tracking the
    // result columns at plan time lets the executor skip shared-variable
    // discovery (the `keys` are precomputed here).
    let mut cur: Option<(PlanNodeId, Vec<VarId>)> = None;
    for (k, &ai) in order.iter().enumerate() {
        covered.extend(stats[ai].vars.iter().copied());
        let kept: Vec<VarId> = covered
            .iter()
            .copied()
            .filter(|v| needed[k].contains(v))
            .collect();
        cur = Some(match cur {
            None => {
                let scan = arena.intern(PlanOp::Scan {
                    atom: atom_keys[ai].clone(),
                });
                let proj = arena.intern(PlanOp::Project {
                    left: scan,
                    vars: kept.clone(),
                });
                // kept ⊆ covered = the atom's vars, so the projection
                // keeps exactly `kept`.
                (proj, kept)
            }
            Some((left, lvars)) => {
                let keys: Vec<VarId> = lvars
                    .iter()
                    .copied()
                    .filter(|v| stats[ai].vars.contains(v))
                    .collect();
                let adds_needed = stats[ai]
                    .vars
                    .iter()
                    .any(|v| !lvars.contains(v) && needed[k].contains(v));
                let (stepped, stepped_vars) = if adds_needed {
                    let mut joined_vars = lvars.clone();
                    joined_vars.extend(
                        stats[ai]
                            .vars
                            .iter()
                            .copied()
                            .filter(|v| !lvars.contains(v)),
                    );
                    (
                        arena.intern(PlanOp::HashJoin {
                            left,
                            atom: atom_keys[ai].clone(),
                            keys,
                        }),
                        joined_vars,
                    )
                } else {
                    (
                        arena.intern(PlanOp::Semijoin {
                            left,
                            atom: atom_keys[ai].clone(),
                            keys,
                        }),
                        lvars,
                    )
                };
                let proj = arena.intern(PlanOp::Project {
                    left: stepped,
                    vars: kept.clone(),
                });
                let cur_vars: Vec<VarId> = kept
                    .iter()
                    .copied()
                    .filter(|v| stepped_vars.contains(v))
                    .collect();
                (proj, cur_vars)
            }
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
        let ra = build_node_plan(&mut arena, &chi, &keys_a, &s, flat);
        let n_after_a = arena.len();
        let ra2 = build_node_plan(&mut arena, &chi, &keys_a, &s, flat);
        assert_eq!(ra, ra2, "identical plans intern to the same root");
        assert_eq!(arena.len(), n_after_a, "no new nodes for a re-plan");
        // A sibling differing only in the last-planned atom adds only the
        // final join+project pair.
        let rb = build_node_plan(&mut arena, &chi, &keys_b, &s, flat);
        assert_ne!(ra, rb);
        assert_eq!(
            arena.len(),
            n_after_a + 2,
            "sibling plan reuses the shared prefix nodes"
        );
    }

    /// Single-atom plans are scan + project onto χ.
    #[test]
    fn single_atom_plan_is_scan_project() {
        let mut arena = PlanArena::new();
        let chi = [VarId(0)];
        let keys = [key(0, &[0, 1])];
        let s = stats(&[(5, &[0, 1])]);
        let root = build_node_plan(&mut arena, &chi, &keys, &s, flat);
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
        let root = build_node_plan(&mut arena, &chi, &keys, &s, flat);
        let PlanOp::Project { left, .. } = arena.op(root) else {
            panic!("root must project");
        };
        assert!(
            matches!(arena.op(*left), PlanOp::Semijoin { .. }),
            "filter-only atom must semijoin, got {:?}",
            arena.op(*left)
        );
    }
}
