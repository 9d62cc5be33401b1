//! Offline shim for the `rayon` crate.
//!
//! Implements the one part of `rayon` the workspace uses: the thread
//! budget [`current_num_threads`]. The scheduler spawns its workers
//! itself with `std::thread::scope`; this crate only says how many.
//!
//! On a single-core machine (or with `MQ_THREADS=1`) every search runs
//! inline on the calling thread.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

thread_local! {
    /// Runtime override of the worker count on this thread (0 = none).
    /// Set via [`set_thread_override`]; exists so tests can force a
    /// multi-worker pool without `std::env::set_var` (which is unsound
    /// under concurrent env reads on glibc).
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Force [`current_num_threads`] to return `n` on the calling thread (or
/// `None` to restore detection). Thread-local: it applies to searches
/// started on this thread and to no other thread, so concurrent tests
/// cannot change each other's worker count.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.with(|c| c.set(n.unwrap_or(0)));
}

/// Number of worker threads a search started on this thread may use.
/// Resolution order: this thread's [`set_thread_override`] value, then
/// `MQ_THREADS` (read once), then the detected hardware parallelism
/// (cached — probing `available_parallelism` opens procfs on Linux, far
/// too slow for a per-operation check).
pub fn current_num_threads() -> usize {
    let over = THREAD_OVERRIDE.with(Cell::get);
    if over > 0 {
        return over;
    }
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if let Some(v) = std::env::var_os("MQ_THREADS") {
            if let Ok(n) = v.into_string().unwrap_or_default().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn override_is_thread_local() {
        let before = crate::current_num_threads();
        let other = before + 5;
        std::thread::scope(|s| {
            s.spawn(|| {
                crate::set_thread_override(Some(other));
                assert_eq!(crate::current_num_threads(), other);
            });
        });
        assert_eq!(
            crate::current_num_threads(),
            before,
            "another thread's override must not reach this one"
        );
    }
}
