//! A per-column-set index cache over one frozen row store.
//!
//! A [`ColIndexCache`] rides next to a frozen store (such as
//! [`crate::ColumnarRows`]): derived indexes (hash-join build sides,
//! grouped by a column subset) are built at most once per column set and
//! shared by every clone of the store — across threads — behind a single
//! `RwLock`. Lookup is **hashed** (an `FxHasher` map keyed by the column
//! set), not a linear scan, so stores probed on many distinct column sets
//! pay O(1) per probe rather than O(cached entries).

use crate::fxhash::FxBuildHasher;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// A thread-safe cache of derived indexes over one frozen row store,
/// keyed by the column set the index was built on.
///
/// Shared (behind an `Arc`) by every handle to the same store, so a hash
/// table built by one clone — on any thread — serves them all. The
/// builder closure runs *outside* the write lock (holding it would block
/// every reader for the build's duration), so two threads racing on the
/// same column set may both build; the first inserted index wins and
/// both callers get the same `Arc`.
pub struct ColIndexCache<I> {
    map: RwLock<HashMap<Box<[usize]>, Arc<I>, FxBuildHasher>>,
}

impl<I> ColIndexCache<I> {
    /// An empty cache.
    pub fn new() -> Self {
        ColIndexCache {
            map: RwLock::new(HashMap::with_hasher(FxBuildHasher)),
        }
    }

    /// The cached index over `cols`, if one has already been built —
    /// lets callers pick the operand that can be probed without paying
    /// a build (see `Bindings::semijoin_count`).
    pub fn get(&self, cols: &[usize]) -> Option<Arc<I>> {
        crate::lock::read_recover(&self.map)
            .get(cols)
            .map(Arc::clone)
    }

    /// Get the index over `cols`, building (and caching) it on first use.
    pub fn get_or_build(&self, cols: &[usize], build: impl FnOnce() -> I) -> Arc<I> {
        if let Some(idx) = crate::lock::read_recover(&self.map).get(cols) {
            return Arc::clone(idx);
        }
        let built = Arc::new(build());
        let mut map = crate::lock::write_recover(&self.map);
        // Another thread may have built it concurrently; keep the first.
        Arc::clone(map.entry(cols.to_vec().into_boxed_slice()).or_insert(built))
    }

    /// Number of cached column sets.
    pub fn len(&self) -> usize {
        crate::lock::read_recover(&self.map).len()
    }

    /// Whether no index has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached index. Takes `&mut self`, so only the cache's
    /// sole owner can clear it: a cache still shared with another handle
    /// must be replaced instead, never emptied under that handle's feet.
    pub fn clear(&mut self) {
        crate::lock::unpoison(self.map.get_mut()).clear();
    }
}

impl<I> Default for ColIndexCache<I> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_cache_builds_once_per_column_set() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache: ColIndexCache<Vec<usize>> = ColIndexCache::new();
        let builds = AtomicUsize::new(0);
        let build = |cols: &[usize]| {
            builds.fetch_add(1, Ordering::SeqCst);
            cols.to_vec()
        };
        let a = cache.get_or_build(&[0, 2], || build(&[0, 2]));
        let b = cache.get_or_build(&[0, 2], || build(&[0, 2]));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let _ = cache.get_or_build(&[1], || build(&[1]));
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn index_cache_shared_across_threads() {
        let cache: Arc<ColIndexCache<usize>> = Arc::new(ColIndexCache::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..64usize {
                        let cols = [i % 4];
                        let idx = cache.get_or_build(&cols, || i % 4);
                        assert_eq!(*idx, i % 4, "thread {t} read a foreign index");
                    }
                });
            }
        });
        assert_eq!(cache.len(), 4);
    }
}
