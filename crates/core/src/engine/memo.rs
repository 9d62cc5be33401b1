//! The cross-worker **shared memo service** for `findRules`, plus the
//! cross-**search** persistent atom cache the serving layer builds on.
//!
//! Before this layer existed, every scheduler worker owned a private
//! memo slice (atom cache, plan cache, plan-node results): `Bindings`
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
//! ## Cross-search persistence: the [`AtomCache`]
//!
//! An instantiated atom's bindings depend on nothing but the atom key
//! and the **contents of its one relation** — so unlike plans (whose
//! cost-model decisions read relation statistics) and plan-node results
//! (whose values join several relations), atom bindings can outlive a
//! single search safely, provided the key says *which version* of the
//! relation it was computed from. The [`AtomCache`] is exactly that: a
//! concurrent map keyed by `(relation generation, relation, terms)`,
//! owned by a catalog entry in the serving layer and surviving across
//! searches and sessions. [`SharedMemos::with_persistent_atoms`] builds
//! a per-search memo service that, on a search-local atom miss, probes
//! the persistent cache under the search's snapshot generations and
//! publishes what it computes back — so a second session issuing a
//! similar metaquery over an unchanged database starts warm, and a
//! database update (which bumps only the touched relation's generation)
//! cold-starts only that relation's entries.
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
//! Hit/miss counters live **on the instance**: [`SharedMemos::stats`]
//! for one memo service, [`AtomCache::stats`] for a catalog's persistent
//! cache. There is deliberately no process-global counter: concurrent
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

/// Generation tag of one relation inside a catalog entry: bumped by every
/// update that touches the relation, so `(generation, atom key)` names
/// the atom's bindings unambiguously across database versions.
pub type RelGeneration = u64;

/// A **persistent, cross-search** cache of instantiated-atom bindings,
/// keyed by `(relation generation, relation, terms)`.
///
/// Owned by whoever outlives individual searches — in this workspace,
/// one per catalog entry in `mq-service` — and handed to per-search memo
/// services via [`SharedMemos::with_persistent_atoms`]. Generation keys
/// make invalidation free: an update bumps the touched relation's
/// generation, so new searches simply probe new keys for that relation
/// (cold start) while every untouched relation's entries keep hitting.
/// Sessions still running on an older snapshot keep probing the older
/// generation's keys, so they never observe post-update bindings.
///
/// Stale generations are not dropped eagerly (in-flight snapshot
/// sessions may still be reading them); [`AtomCache::purge_stale`] is
/// the explicit maintenance sweep.
pub struct AtomCache {
    memo: ShardedMemo<(RelGeneration, AtomKey), Arc<Bindings>>,
}

impl AtomCache {
    /// An empty cache.
    pub fn new() -> Self {
        AtomCache {
            memo: ShardedMemo::new(),
        }
    }

    /// Hit/miss counters of the persistent cache itself. Hits here are
    /// **cross-search** hits: a probe only reaches this cache after
    /// missing the search-local atom memo.
    pub fn stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Reset the hit/miss counters (entries are kept).
    pub fn reset_stats(&self) {
        self.memo.reset_stats()
    }

    /// Number of cached atom bindings (all generations).
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Drop every entry whose generation is not the relation's current
    /// one (per `current`, indexed by `RelId`). Call only once no
    /// session is still pinned to an older snapshot; entries of
    /// relations beyond `current` (unknown to the caller) are dropped
    /// too.
    pub fn purge_stale(&self, current: &[RelGeneration]) {
        self.memo
            .retain(|(gen, (rel, _)), _| current.get(rel.index()).copied() == Some(*gen));
    }
}

impl Default for AtomCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The seed a per-search memo service probes on search-local atom
/// misses: the persistent cache plus the search snapshot's per-relation
/// generations.
struct PersistentAtoms {
    cache: Arc<AtomCache>,
    /// Generation per `RelId` of the snapshot this search runs against.
    gens: Arc<Vec<RelGeneration>>,
}

/// One search's shared memos: the three executor memo layers plus the
/// shared plan arena, all `Send + Sync`. Created once per `Setup` and
/// handed (via `Arc`) to every worker's executor — or supplied
/// externally by the serving layer ([`SharedMemos::with_persistent_atoms`],
/// threaded through `find_rules_instrumented`), in which case the atom layer
/// is seeded from, and publishes back to, a catalog's cross-search
/// [`AtomCache`].
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
    /// Cross-search atom seed, when the service was built by the serving
    /// layer. Plans and results never persist: plan choices read
    /// relation statistics and node results join several relations, so
    /// neither is a function of a single relation's generation.
    persistent: Option<PersistentAtoms>,
}

impl SharedMemos {
    /// A fresh, unseeded memo service (one search, no cross-search
    /// persistence).
    pub fn new() -> Self {
        SharedMemos {
            arena: RwLock::new(PlanArena::new()),
            atoms: ShardedMemo::new(),
            plans: ShardedMemo::new(),
            results: ShardedMemo::new(),
            persistent: None,
        }
    }

    /// A memo service whose atom layer is seeded from (and publishes
    /// back to) `cache`, probing it under `gens` — the per-relation
    /// generations of the database snapshot this search runs against.
    /// This is the constructor the catalog uses: plans and results stay
    /// per-service, atoms persist across searches.
    pub fn with_persistent_atoms(cache: Arc<AtomCache>, gens: Arc<Vec<RelGeneration>>) -> Self {
        let mut memos = SharedMemos::new();
        memos.persistent = Some(PersistentAtoms { cache, gens });
        memos
    }

    /// Look up atom `key`, consulting the search-local memo, then (when
    /// seeded) the persistent cross-search cache under the snapshot's
    /// generation, then computing via `build` and publishing to both.
    /// First-writer-wins at every layer, so racing searches converge on
    /// one canonical `Arc`.
    pub(crate) fn atom_or_compute(
        &self,
        key: AtomKey,
        build: impl FnOnce(&AtomKey) -> Arc<Bindings>,
    ) -> Arc<Bindings> {
        if let Some(hit) = self.atoms.get(&key) {
            return hit;
        }
        match &self.persistent {
            None => {
                let built = build(&key);
                self.atoms.publish(key, built)
            }
            Some(p) => {
                let gen = p.gens.get(key.0.index()).copied().unwrap_or(0);
                if let Some(hit) = p.cache.memo.get(&(gen, key.clone())) {
                    return self.atoms.publish(key, hit);
                }
                let built = build(&key);
                let canonical = p.cache.memo.publish((gen, key.clone()), built);
                self.atoms.publish(key, canonical)
            }
        }
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
    /// service (the persistent atom seed keeps its own counters — see
    /// [`AtomCache::stats`]).
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
        assert_send_sync::<AtomCache>();
    }

    #[test]
    fn persistent_atoms_survive_across_services() {
        let cache = Arc::new(AtomCache::new());
        let gens = Arc::new(vec![1u64, 1]);
        let first = SharedMemos::with_persistent_atoms(Arc::clone(&cache), Arc::clone(&gens));
        let built = first.atom_or_compute(key(0, 0), |_| bindings());
        drop(first);
        // A second "search" over the same generations hits the cache.
        let second = SharedMemos::with_persistent_atoms(Arc::clone(&cache), Arc::clone(&gens));
        let before = cache.stats();
        let again = second.atom_or_compute(key(0, 0), |_| panic!("must hit persistent cache"));
        assert!(Arc::ptr_eq(&built, &again), "canonical Arc is shared");
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn generation_bump_cold_starts_only_touched_relation() {
        let cache = Arc::new(AtomCache::new());
        let old = SharedMemos::with_persistent_atoms(Arc::clone(&cache), Arc::new(vec![1, 1]));
        let _ = old.atom_or_compute(key(0, 0), |_| bindings());
        let _ = old.atom_or_compute(key(1, 0), |_| bindings());
        drop(old);
        assert_eq!(cache.len(), 2);
        // Relation 1 is updated: generation bumps to 2.
        let new_gens = Arc::new(vec![1u64, 2]);
        let fresh = SharedMemos::with_persistent_atoms(Arc::clone(&cache), Arc::clone(&new_gens));
        // Untouched relation 0 still hits…
        let _ = fresh.atom_or_compute(key(0, 0), |_| panic!("untouched relation must hit"));
        // …while relation 1 recomputes under its new generation.
        let mut recomputed = false;
        let _ = fresh.atom_or_compute(key(1, 0), |_| {
            recomputed = true;
            bindings()
        });
        assert!(recomputed, "bumped relation must cold-start");
        assert_eq!(cache.len(), 3, "old generation entry is retained");
        // The maintenance sweep drops the stale generation-1 entry of
        // relation 1 and keeps everything current.
        cache.purge_stale(&new_gens);
        assert_eq!(cache.len(), 2);
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
