//! The plan executor: an interpreter over the [`crate::plan`] IR.
//!
//! One [`Executor`] lives inside each search engine (one per parallel
//! worker). It owns handles to the three memo layers that make repeated
//! plan execution cheap:
//!
//! * **atom memo** (`SharedMemos::atoms`) — instantiated-atom
//!   bindings keyed by `(relation, terms)`: instantiations overwhelmingly
//!   share atom evaluations, so each distinct instantiated atom is
//!   evaluated once;
//! * **plan cache** — `(χ, λ atom keys) → plan root`, so re-visiting a
//!   vertex under the same λ assignment skips re-planning entirely;
//! * **result memo** — plan-node id → bindings, keyed by the
//!   hash-consing [`crate::plan::PlanArena`]'s node ids. Because node
//!   identity is the operator plus its operands, sibling plans that share
//!   a planned prefix share node ids, and the memo resumes them from the
//!   cached intermediate.
//!
//! The memos are handles into the search-global [`SharedMemos`]
//! service: every scheduler worker reads and publishes into one memo,
//! so an intermediate computed by any worker is a hit for all of them.
//! Sound because every memo value is a deterministic function of its
//! key and publication is first-writer-wins.
//!
//! `findHeads`' counting runs here too: [`Executor::exec_head_counts`]
//! is the head-count op — cover and confidence of every head in one pass
//! over a body join given as its last two join inputs, never built,
//! against the search's [`HeadTable`] ([`Executor::build_head_table`]).
//! The reducer and support counts have no memo to consult, so the
//! engine calls the kernels (`semijoin_count`, `count_distinct`)
//! directly.

use crate::engine::memo::{PlanKey, SharedMemos};
use crate::plan::{build_node_plan_ordered, AtomKey, JoinAtomStats, PlanNodeId, PlanOp};
use mq_obs::profile::{NodeStat, PhaseStat, SearchProfile};
use mq_relation::{Bindings, Database, HeadScratch, HeadTable, VarId};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Interprets [`crate::plan`] IR against a database, memoizing per
/// plan-node id. Cheap to construct — one per search engine.
pub(crate) struct Executor<'a> {
    db: &'a Database,
    /// The search-global memo service (atoms, plans, node results).
    memos: Arc<SharedMemos>,
    /// The search's profile sink (`mq-obs`), when the caller asked for
    /// one. Node evals and memo hits accumulate in the worker-local
    /// fields below and flush into the shared profile exactly once — on
    /// drop — so the execution loop never touches a shared cache line.
    profile: Option<Arc<SearchProfile>>,
    /// Cached `profile.is_detailed()`: whether to keep per-node wall
    /// time / row counts (clock reads happen only when set).
    detailed: bool,
    /// Worker-local node evaluations (kernel actually ran).
    execs: u64,
    /// Worker-local result-memo hits.
    memo_hits: u64,
    /// Worker-local per-node detail, indexed by plan-node id.
    nodes: Vec<NodeStat>,
    /// Worker-local head-count phase (detailed profiles only).
    head_counts: PhaseStat,
}

impl<'a> Executor<'a> {
    /// An executor over `db` whose memo traffic goes through `memos`.
    /// `profile` (when given) receives this worker's node-eval totals —
    /// and per-node detail if it is a detailed profile — when the
    /// executor drops.
    pub(crate) fn new(
        db: &'a Database,
        memos: Arc<SharedMemos>,
        profile: Option<Arc<SearchProfile>>,
    ) -> Self {
        let detailed = profile.as_deref().is_some_and(SearchProfile::is_detailed);
        Executor {
            db,
            memos,
            profile,
            detailed,
            execs: 0,
            memo_hits: 0,
            nodes: Vec::new(),
            head_counts: PhaseStat::default(),
        }
    }

    /// The detail slot of node `id`, grown on demand (plan-node ids are
    /// dense per arena).
    fn node_mut(&mut self, id: PlanNodeId) -> &mut NodeStat {
        let i = id.0 as usize;
        if self.nodes.len() <= i {
            self.nodes.resize(i + 1, NodeStat::default());
        }
        &mut self.nodes[i]
    }

    /// The trace clock, read only when per-node detail is being kept —
    /// the undetailed path stays free of clock syscalls.
    fn clock(&self) -> u64 {
        if self.detailed {
            mq_obs::trace::now_ns()
        } else {
            0
        }
    }

    /// Evaluate `rel(terms)` once, memoized.
    pub(crate) fn eval_atom(&mut self, key: AtomKey) -> Arc<Bindings> {
        let db = self.db;
        self.memos.atom_or_compute(key, |(rel, terms)| {
            Arc::new(Bindings::from_atom(db.relation(*rel), terms))
        })
    }

    /// `π_χ(J(σi(λ(p_ν(i)))))`: plan (or fetch the cached plan for) the
    /// node join of `atom_keys` projected onto `chi`, then execute it.
    ///
    /// Planning uses the cost model of [`crate::plan::plan_join_order`]
    /// with the executor's own evaluated atoms as the statistics source
    /// (`len / distinct_keys` off the cached
    /// [`mq_relation::hashjoin::GroupIndex`]). The plan is keyed by
    /// `(χ, atom keys)` — not by decomposition vertex — so vertices with
    /// identical labels share one plan outright.
    pub(crate) fn node_join(&mut self, chi: &[VarId], atom_keys: Vec<AtomKey>) -> Arc<Bindings> {
        let cache_key: PlanKey = (chi.to_vec(), atom_keys);
        if let Some(root) = self.memos.plans.get(&cache_key) {
            return self.exec(root);
        }
        let atoms: Vec<Arc<Bindings>> = cache_key
            .1
            .iter()
            .map(|key| self.eval_atom(key.clone()))
            .collect();
        let stats: Vec<JoinAtomStats> = atoms
            .iter()
            .map(|b| JoinAtomStats {
                len: b.len(),
                vars: b.vars().to_vec(),
            })
            .collect();
        let expansion = |i: usize, shared: &[VarId]| {
            atoms[i].len() as f64 / atoms[i].distinct_keys(shared).max(1) as f64
        };
        // Costing probes row statistics (index builds); do it before any
        // arena lock so planning never serializes workers on O(rows) work.
        let order = crate::plan::plan_join_order(&stats, expansion);
        // Interning is idempotent, so racing planners converge on
        // identical node ids; the plan cache then keeps the
        // first-published (equal) root. Only the pure intern runs under
        // the shared arena's write lock.
        let root = self
            .memos
            .intern_plan(|arena| build_node_plan_ordered(arena, chi, &cache_key.1, &stats, &order));
        let root = self.memos.plans.publish(cache_key, root);
        self.exec(root)
    }

    /// Execute plan node `id`, memoized per node id. Recursion depth is
    /// the plan's atom count (plans are left-deep chains).
    ///
    /// Empty intermediates short-circuit: joins, semijoins and
    /// projections all preserve emptiness, so the remaining pipeline is
    /// skipped and the empty intermediate itself is the node's (memoized)
    /// result. Its columns are the prefix's, which may lack variables the
    /// node would have bound; every consumer reads an empty relation the
    /// same whatever its columns.
    ///
    /// Profiling: memo hits and kernel executions bump worker-local
    /// counters unconditionally (two integer adds); wall time and row
    /// counts per node are kept only under a detailed profile, as
    /// **self** time — the clock around a node's own kernel, with the
    /// child's recursion subtracted — so a plan's node times sum to the
    /// executor total instead of multiply-counting shared prefixes.
    pub(crate) fn exec(&mut self, id: PlanNodeId) -> Arc<Bindings> {
        if let Some(hit) = self.memos.results.get(&id) {
            self.memo_hits += 1;
            if self.detailed {
                self.node_mut(id).memo_hits += 1;
            }
            return hit;
        }
        let op = self.memos.op(id);
        self.execs += 1;
        let t0 = self.clock();
        let mut child_ns = 0u64;
        let mut rows_in = 0u64;
        let out: Arc<Bindings> = match op {
            PlanOp::Scan { atom } => self.eval_atom(atom),
            PlanOp::Project { left, vars } => {
                let tc = self.clock();
                let l = self.exec(left);
                child_ns = self.clock().saturating_sub(tc);
                rows_in = l.len() as u64;
                if l.is_empty() {
                    l
                } else {
                    Arc::new(l.project(&vars))
                }
            }
            PlanOp::HashJoin { left, atom, keys } => {
                let tc = self.clock();
                let l = self.exec(left);
                child_ns = self.clock().saturating_sub(tc);
                rows_in = l.len() as u64;
                if l.is_empty() {
                    l
                } else {
                    let a = self.eval_atom(atom);
                    rows_in += a.len() as u64;
                    Arc::new(l.join_on(&a, &keys))
                }
            }
            PlanOp::Semijoin { left, atom, keys } => {
                let tc = self.clock();
                let l = self.exec(left);
                child_ns = self.clock().saturating_sub(tc);
                rows_in = l.len() as u64;
                if l.is_empty() {
                    l
                } else {
                    let a = self.eval_atom(atom);
                    rows_in += a.len() as u64;
                    Arc::new(l.semijoin_on(&a, &keys))
                }
            }
        };
        if self.detailed {
            let self_ns = self.clock().saturating_sub(t0).saturating_sub(child_ns);
            let rows_out = out.len() as u64;
            let stat = self.node_mut(id);
            stat.execs += 1;
            stat.wall_ns += self_ns;
            stat.rows_in += rows_in;
            stat.rows_out += rows_out;
        }
        // A racing worker's first-published result wins — byte-identical
        // either way, since node execution is deterministic.
        self.memos.results.publish(id, out)
    }

    /// Evaluate every head atom (memoized) and merge them, in order,
    /// into one [`HeadTable`] keyed by the variables they share with
    /// `body_vars`. Under a detailed profile the build's wall time joins
    /// the head-count phase.
    pub(crate) fn build_head_table(
        &mut self,
        heads: impl Iterator<Item = AtomKey>,
        body_vars: &[VarId],
    ) -> HeadTable {
        let t0 = self.clock();
        let atoms: Vec<Arc<Bindings>> = heads.map(|key| self.eval_atom(key)).collect();
        let refs: Vec<&Bindings> = atoms.iter().map(|a| &**a).collect();
        let table = HeadTable::build(&refs, body_vars);
        if self.detailed {
            self.head_counts.wall_ns += self.clock().saturating_sub(t0);
        }
        table
    }

    /// The `findHeads` head-count op: stream the body join
    /// `b = left ⋈ right` once against `table` without building it,
    /// leaving `(|h ⋉ b|, |b ⋉ h|)` for every head in `scratch` (see
    /// [`mq_relation::head_table`]), and return `|b|`. Under a detailed
    /// profile the op's wall time, calls (bodies), body rows streamed
    /// (`|b|` per key with a head row) and head-table probes accumulate
    /// worker-locally; otherwise the cost is this one branch.
    pub(crate) fn exec_head_counts(
        &mut self,
        table: &HeadTable,
        left: &Bindings,
        right: &Bindings,
        scratch: &mut HeadScratch,
    ) -> usize {
        if !self.detailed {
            return table.count(left, right, scratch);
        }
        let t0 = mq_obs::trace::now_ns();
        let body_len = table.count(left, right, scratch);
        let phase = &mut self.head_counts;
        phase.wall_ns += mq_obs::trace::now_ns().saturating_sub(t0);
        phase.calls += 1;
        phase.rows += (body_len * table.live_keys()) as u64;
        phase.probes += scratch.probes();
        body_len
    }
}

impl Drop for Executor<'_> {
    /// Flush the worker-local profile accumulation exactly once —
    /// engines (and their executors) drop when their worker finishes,
    /// so the shared profile is touched O(workers), not O(nodes).
    fn drop(&mut self) {
        let Some(profile) = &self.profile else {
            return;
        };
        profile.node_execs.fetch_add(self.execs, Ordering::Relaxed);
        profile
            .node_memo_hits
            .fetch_add(self.memo_hits, Ordering::Relaxed);
        profile.merge_nodes(&self.nodes);
        profile.merge_head_counts(&self.head_counts);
    }
}
