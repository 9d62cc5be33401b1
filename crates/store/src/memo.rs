//! Sharded, lock-striped concurrent memoization maps.
//!
//! A [`ShardedMemo`] is the substrate of the engine's **shared memo
//! service**: one global cache that every scheduler worker reads and
//! publishes into, instead of each worker warming a private memo slice.
//! Keys are spread over `2^k` shards by their `FxHasher` hash, each shard
//! its own `RwLock<HashMap>`, so concurrent probes of distinct keys
//! almost never contend and hits take one uncontended read lock.
//!
//! Publication is **first-writer-wins**: [`ShardedMemo::publish`] keeps
//! the value already present (if any) and returns the canonical one, so
//! two workers racing to compute the same key converge on a single
//! shared value. This only makes sense for memo caches whose values are
//! a deterministic function of the key — which is exactly the contract
//! of the `findRules` memos (see `ARCHITECTURE.md`).
//!
//! Hit/miss counters ([`ShardedMemo::stats`]) are relaxed atomics:
//! precise enough for perf reporting, free of synchronization cost on
//! the hot path.

use crate::fxhash::FxBuildHasher;
use crate::lock::{read_recover, write_recover};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Default shard count (a power of two). 16 keeps contention negligible
/// for the worker counts this workspace schedules (`MQ_THREADS` ≤ a few
/// dozen) while staying cache-friendly on 1-core boxes.
const DEFAULT_SHARDS: usize = 16;

/// Aggregated hit/miss counters of one or more memos.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Number of probes answered from the cache.
    pub hits: u64,
    /// Number of probes that missed (typically followed by a publish).
    pub misses: u64,
}

impl MemoStats {
    /// Fraction of probes that hit (`0.0` when nothing was probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum, for aggregating several memos' stats.
    pub fn merged(self, other: MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// A sharded, lock-striped concurrent map with first-writer-wins
/// publication and hit/miss accounting.
pub struct ShardedMemo<K, V> {
    shards: Vec<RwLock<HashMap<K, V, FxBuildHasher>>>,
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> ShardedMemo<K, V> {
    /// A memo with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A memo with at least `shards` shards (rounded up to a power of
    /// two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedMemo {
            shards: (0..n)
                .map(|_| RwLock::new(HashMap::with_hasher(FxBuildHasher)))
                .collect(),
            mask: n - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V, FxBuildHasher>> {
        let h = FxBuildHasher.hash_one(key);
        &self.shards[(h as usize) & self.mask]
    }

    /// Look up `key`, counting a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let hit = read_recover(self.shard(key)).get(key).cloned();
        match hit {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publish `value` under `key`. If another writer got there first the
    /// existing value is kept; either way the canonical cached value is
    /// returned, so racing computors converge on one shared result.
    pub fn publish(&self, key: K, value: V) -> V {
        write_recover(self.shard(&key))
            .entry(key)
            .or_insert(value)
            .clone()
    }

    /// `get` or compute-and-`publish`. The closure runs without any lock
    /// held (a memoized computation may recurse into this same memo), so
    /// racing threads may compute twice; both get the canonical value.
    pub fn get_or_publish(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = compute();
        self.publish(key, v)
    }

    /// Total number of cached entries (sums the shards; O(shards)).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_recover(s).len()).sum()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Reset the hit/miss counters to zero (entries are kept).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMemo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn get_publish_roundtrip_and_stats() {
        let memo: ShardedMemo<u32, String> = ShardedMemo::new();
        assert_eq!(memo.get(&7), None);
        memo.publish(7, "seven".into());
        assert_eq!(memo.get(&7).as_deref(), Some("seven"));
        // First writer wins.
        let canonical = memo.publish(7, "SEVEN".into());
        assert_eq!(canonical, "seven");
        assert_eq!(memo.len(), 1);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        memo.reset_stats();
        assert_eq!(memo.stats(), MemoStats::default());
        assert_eq!(memo.get(&7).as_deref(), Some("seven"), "entries survive");
    }

    #[test]
    fn get_or_publish_computes_once_when_sequential() {
        let memo: ShardedMemo<u8, u64> = ShardedMemo::with_shards(1);
        let computes = AtomicUsize::new(0);
        for _ in 0..5 {
            let v = memo.get_or_publish(3, || {
                computes.fetch_add(1, Ordering::SeqCst);
                99
            });
            assert_eq!(v, 99);
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1);
    }

    /// Many threads hammering overlapping keys must converge on one
    /// canonical value per key and keep counters consistent.
    #[test]
    fn concurrent_publish_converges_on_canonical_values() {
        const THREADS: usize = 8;
        const OPS: usize = 500;
        const KEYS: u64 = 29;
        let memo: Arc<ShardedMemo<u64, Arc<(u64, usize)>>> = Arc::new(ShardedMemo::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let memo = Arc::clone(&memo);
                s.spawn(move || {
                    for i in 0..OPS {
                        let k = ((t * OPS + i) as u64 * 7) % KEYS;
                        // The value records the key plus the publishing
                        // thread; the key part must always match.
                        let v = memo.get_or_publish(k, || Arc::new((k, t)));
                        assert_eq!(v.0, k, "foreign value under key {k}");
                        // Once published, every later read agrees.
                        let again = memo.get(&k).expect("published key vanished");
                        assert!(Arc::ptr_eq(&v, &again) || again.0 == k);
                    }
                });
            }
        });
        assert_eq!(memo.len(), KEYS as usize);
        let s = memo.stats();
        assert!(
            s.hits + s.misses >= (THREADS * OPS) as u64,
            "every op probes at least once"
        );
        // Each key's canonical value is stable now.
        for k in 0..KEYS {
            assert_eq!(memo.get(&k).unwrap().0, k);
        }
    }
}
