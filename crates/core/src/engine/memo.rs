//! The cross-worker **shared memo service** for `findRules`.
//!
//! Before this layer existed, every scheduler worker owned a private
//! memo slice (atom memo, plan cache, plan-node results): `Bindings`
//! rows lived behind `Rc` and could not cross threads, so each worker
//! re-derived — and re-joined — intermediates its siblings had already
//! computed. With frozen, `Arc`-shared storage (`mq_store::ColumnarRows`)
//! making `Bindings` `Send + Sync`, this module hosts **one** global memo per
//! search that all workers read and publish into:
//!
//! * `atoms`   — `(relation, terms) → Arc<Bindings>`;
//! * `plans`   — `(χ, λ atom keys) → PlanNodeId` (roots into the shared
//!   arena);
//! * `results` — `PlanNodeId → Arc<Bindings>`;
//! * a **shared [`PlanArena`]** behind an `RwLock`, so plan-node ids are
//!   globally consistent — hash-consing is what makes a node id a valid
//!   cross-worker memo key in the first place.
//!
//! Every memo value is a deterministic function of its key (see the
//! memo-sharing contract in `ARCHITECTURE.md`), so first-writer-wins
//! publication ([`mq_store::ShardedMemo`]) keeps all workers byte-
//! consistent: whichever worker computes a key first, the value is the
//! one the sequential engine would have computed.
//!
//! Nothing here outlives its search. Reuse across searches needs no
//! cache of its own: a plain atom is its relation's column handle and
//! shares the relation's index cache, so a second search over the same
//! relation — in the same database snapshot or in a later one that did
//! not touch it — finds the columns and the built indexes already there.
//!
//! The service is the only memo backing and is attached to every
//! search, including sequential ones (`find_rules_seq`, 1-thread
//! pools): a sharded hit costs one uncontended read lock + `Arc` clone,
//! measured as noise against a private per-worker map on the bench
//! guards (see PERFORMANCE.md). In exchange every search reports
//! hit-rate telemetry and exercises the exact storage layer that
//! concurrent sessions share.
//!
//! ## Counters
//!
//! Hit/miss counters live **on the instance** ([`SharedMemos::stats`]).
//! There is deliberately no process-global counter: concurrent
//! searches would clobber each other's attribution, so every consumer
//! (the serving layer's `stats` session command, `bench_report`) reads
//! the instance it owns.

use crate::plan::{AtomKey, PlanArena, PlanNodeId, PlanOp};
use mq_relation::{Bindings, VarId};
pub use mq_store::MemoStats;
use mq_store::{lock::read_recover, lock::write_recover, ShardedMemo};
use std::sync::{Arc, RwLock};

/// Key of the plan cache: the node join's χ plus its instantiated λ atom
/// keys (which determine the evaluated atoms, hence the stats, hence the
/// deterministic plan).
pub(crate) type PlanKey = (Vec<VarId>, Vec<AtomKey>);

/// One search's shared memos: the three executor memo layers plus the
/// shared plan arena, all `Send + Sync`. Created once per `Setup` and
/// handed (via `Arc`) to every worker's executor — or supplied
/// externally by the serving layer through `find_rules_instrumented`,
/// which reads the per-search counters off it afterwards.
pub struct SharedMemos {
    /// Hash-consing arena for plan nodes, shared so node ids agree
    /// across workers. Write-locked only while interning (plan-cache
    /// misses); executing reads clone single ops under the read lock.
    arena: RwLock<PlanArena>,
    /// Instantiated-atom bindings by `(relation, terms)`.
    pub(crate) atoms: ShardedMemo<AtomKey, Arc<Bindings>>,
    /// Plan roots by `(χ, λ atom keys)`.
    pub(crate) plans: ShardedMemo<PlanKey, PlanNodeId>,
    /// Plan-node results by interned node id.
    pub(crate) results: ShardedMemo<PlanNodeId, Arc<Bindings>>,
}

impl SharedMemos {
    /// A fresh memo service for one search.
    pub fn new() -> Self {
        SharedMemos {
            arena: RwLock::new(PlanArena::new()),
            atoms: ShardedMemo::new(),
            plans: ShardedMemo::new(),
            results: ShardedMemo::new(),
        }
    }

    /// Look up atom `key`, else compute it via `build` and publish it.
    /// First-writer-wins, so racing workers converge on one canonical
    /// `Arc`.
    pub(crate) fn atom_or_compute(
        &self,
        key: AtomKey,
        build: impl FnOnce(&AtomKey) -> Arc<Bindings>,
    ) -> Arc<Bindings> {
        if let Some(hit) = self.atoms.get(&key) {
            return hit;
        }
        let built = build(&key);
        self.atoms.publish(key, built)
    }

    /// The operator of node `id` (cloned out of the shared arena).
    pub(crate) fn op(&self, id: PlanNodeId) -> PlanOp {
        read_recover(&self.arena).op(id).clone()
    }

    /// Intern a plan under the write lock. Interning is pure and
    /// idempotent, so concurrent planners racing on the same key build
    /// identical node ids.
    pub(crate) fn intern_plan(
        &self,
        build: impl FnOnce(&mut PlanArena) -> PlanNodeId,
    ) -> PlanNodeId {
        build(&mut write_recover(&self.arena))
    }

    /// Human label of plan node `id` — `scan(r3)`, `hashjoin(#2, r5)`,
    /// … — where `#n` is the left child's node id and `rN` the atom's
    /// relation. Used by the slow-query log and `bench_report`'s node
    /// profile to make "hottest plan nodes" tables readable. `None`
    /// when `id` was never interned in this service's arena.
    pub fn describe_plan_node(&self, id: PlanNodeId) -> Option<String> {
        let arena = read_recover(&self.arena);
        if (id.0 as usize) >= arena.len() {
            return None;
        }
        Some(match arena.op(id) {
            PlanOp::Scan { atom } => format!("scan(r{})", atom.0.index()),
            PlanOp::Project { left, .. } => format!("project(#{})", left.0),
            PlanOp::HashJoin { left, atom, .. } => {
                format!("hashjoin(#{}, r{})", left.0, atom.0.index())
            }
            PlanOp::Semijoin { left, atom, .. } => {
                format!("semijoin(#{}, r{})", left.0, atom.0.index())
            }
        })
    }

    /// Aggregated hit/miss counters of the three memo layers of **this**
    /// service.
    pub fn stats(&self) -> MemoStats {
        self.atoms
            .stats()
            .merged(self.plans.stats())
            .merged(self.results.stats())
    }
}

impl Default for SharedMemos {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_relation::{RelId, Term};

    fn key(rel: u32, var: u32) -> AtomKey {
        (RelId(rel), vec![Term::Var(VarId(var))])
    }

    fn bindings() -> Arc<Bindings> {
        Arc::new(Bindings::unit())
    }

    #[test]
    fn shared_memos_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedMemos>();
    }

    #[test]
    fn instance_stats_attribute_one_service() {
        let memos = SharedMemos::new();
        let _ = memos.atom_or_compute(key(0, 0), |_| bindings());
        let _ = memos.atom_or_compute(key(0, 0), |_| panic!("second probe must hit"));
        let s = memos.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }
}
