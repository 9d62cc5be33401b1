//! Offline shim for the `rayon` crate.
//!
//! Implements the subset the workspace uses: `Vec::into_par_iter()` and
//! slice `par_iter()` supporting `.map(f).collect::<Vec<_>>()`, the
//! [`scope`]/[`Scope::spawn`] task primitive, plus
//! [`current_num_threads`]. Iterator work is distributed over
//! `std::thread::scope` threads in contiguous chunks, and results are
//! concatenated in chunk order, so `collect` preserves input order
//! exactly like real rayon's indexed parallel iterators. Scoped tasks go
//! onto a shared deque drained by worker threads, so callers can build
//! work-stealing schedulers that behave identically under the shim and
//! real rayon.
//!
//! Nested parallelism respects the `MQ_THREADS` budget: inside a scope
//! worker (or a parallel-iterator chunk thread) [`current_num_threads`]
//! reports `1`, so nested parallel calls run inline instead of
//! multiplying the configured thread count.
//!
//! On a single-core machine (or with `MQ_THREADS=1`) everything runs
//! inline on the calling thread.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Runtime override of the worker count (0 = none). Set via
/// [`set_thread_override`]; exists so tests can force a multi-worker
/// pool without `std::env::set_var` (which is unsound under concurrent
/// env reads on glibc).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force [`current_num_threads`] to return `n` (or `None` to restore
/// detection). Process-global; intended for tests and harnesses.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

thread_local! {
    /// Set while the current thread is a scope worker or a parallel-
    /// iterator chunk thread. Nested [`current_num_threads`] calls then
    /// report `1`: the `MQ_THREADS` budget is already fully committed to
    /// the enclosing parallel region, so nested parallel calls must run
    /// inline rather than spawn `MQ_THREADS` threads *each*.
    static IN_PARALLEL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the current thread marked as a parallel worker.
fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    IN_PARALLEL_WORKER.with(|c| {
        let prev = c.replace(true);
        let out = f();
        c.set(prev);
        out
    })
}

/// Number of worker threads the pool would use. Resolution order: `1`
/// inside a nested scope/iterator worker (the configured budget is
/// already spent), then the [`set_thread_override`] value, then
/// `MQ_THREADS` (read once), then the detected hardware parallelism (cached — probing
/// `available_parallelism` opens procfs on Linux, far too slow for a
/// per-operation check).
pub fn current_num_threads() -> usize {
    if IN_PARALLEL_WORKER.with(Cell::get) {
        return 1;
    }
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
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

/// An ordered parallel iterator over owned items.
pub struct IntoParIter<T> {
    items: Vec<T>,
}

/// A mapped parallel iterator, ready to collect.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> IntoParIter<T> {
    /// Apply `f` to every item in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        F: Fn(T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

impl<T: Send, F> ParMap<T, F> {
    /// Evaluate the map, preserving input order.
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        run_ordered(self.items, &self.f).into_iter().collect()
    }
}

fn run_ordered<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let threads = current_num_threads();
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    // Split into owned chunks, map each on its own scoped thread, then
    // concatenate in chunk order (preserves input order).
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(chunk.min(items.len()));
        chunks.push(items);
        items = rest;
    }
    let mut results: Vec<Vec<R>> = Vec::with_capacity(chunks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || as_worker(|| c.into_iter().map(f).collect::<Vec<R>>())))
            .collect();
        for h in handles {
            results.push(h.join().expect("worker thread panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// A scoped task queue, mirroring `rayon::Scope`: tasks spawned with
/// [`Scope::spawn`] may borrow from outside the scope (`'scope`) and may
/// themselves spawn further tasks.
///
/// The shim implementation is a shared deque (`Mutex<VecDeque>`): worker
/// threads (at most [`current_num_threads`]) pop tasks front-first and
/// run them to completion, stealing the next task as soon as they finish
/// — dynamic load balancing equivalent to rayon's work-stealing for the
/// coarse task sets this workspace schedules. Unlike real rayon, tasks
/// do not start until the closure passed to [`scope`] returns; [`scope`]
/// still only returns after every task (including nested spawns) has
/// completed, which is the guarantee callers rely on.
pub struct Scope<'scope> {
    queue: Mutex<VecDeque<ScopeTask<'scope>>>,
    /// Tasks spawned but not yet finished (queued or running).
    active: AtomicUsize,
    /// Signaled when a task finishes or a new task is enqueued, so idle
    /// workers park instead of busy-spinning while the slowest task runs.
    idle: Condvar,
}

/// A queued scope task (boxed so heterogeneous closures share the deque).
type ScopeTask<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

/// Panic-safe task accounting: decrements `active` and wakes idle
/// workers when dropped — **including during unwinding**, so a panicking
/// task releases its siblings (they exit, `std::thread::scope` joins,
/// and the panic propagates) instead of hanging the process.
struct TaskDone<'a, 'scope>(&'a Scope<'scope>);

impl Drop for TaskDone<'_, '_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
        self.0.idle.notify_all();
    }
}

impl<'scope> Scope<'scope> {
    /// Enqueue a task. The task receives the scope so it can spawn more.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.active.fetch_add(1, Ordering::SeqCst);
        self.queue
            .lock()
            .expect("scope queue poisoned")
            .push_back(Box::new(f));
        self.idle.notify_all();
    }

    /// Pop-and-run tasks until the deque is empty and no task is still
    /// running (a running task may spawn more). Idle workers park on the
    /// condvar rather than spinning; a short timeout guards against
    /// missed wakeups.
    fn drain(&self) {
        loop {
            let task = self.queue.lock().expect("scope queue poisoned").pop_front();
            match task {
                Some(t) => {
                    let done = TaskDone(self);
                    t(self);
                    drop(done);
                }
                None => {
                    let queue = self.queue.lock().expect("scope queue poisoned");
                    if self.active.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    if queue.is_empty() {
                        let _ = self
                            .idle
                            .wait_timeout(queue, std::time::Duration::from_millis(1))
                            .expect("scope queue poisoned");
                    }
                }
            }
        }
    }
}

/// Create a task scope, run `op` (which spawns tasks), then execute every
/// spawned task on up to [`current_num_threads`] worker threads and wait
/// for all of them. Returns `op`'s result. With one thread (or none
/// spawned) the tasks run inline on the calling thread.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let sc = Scope {
        queue: Mutex::new(VecDeque::new()),
        active: AtomicUsize::new(0),
        idle: Condvar::new(),
    };
    let out = op(&sc);
    let spawned = sc.active.load(Ordering::SeqCst);
    if spawned == 0 {
        return out;
    }
    let workers = current_num_threads().min(spawned);
    if workers <= 1 {
        as_worker(|| sc.drain());
    } else {
        std::thread::scope(|ts| {
            for _ in 0..workers {
                ts.spawn(|| as_worker(|| sc.drain()));
            }
        });
    }
    out
}

/// Entry points, mirroring `rayon::prelude`.
pub mod prelude {
    use super::*;

    /// Conversion into an ordered parallel iterator.
    pub trait IntoParallelIterator {
        /// Item type.
        type Item: Send;
        /// Start parallel iteration over owned items.
        fn into_par_iter(self) -> IntoParIter<Self::Item>;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        fn into_par_iter(self) -> IntoParIter<T> {
            IntoParIter { items: self }
        }
    }

    /// Borrowing parallel iteration for slices.
    pub trait ParallelSlice<T: Sync> {
        /// Iterate references in parallel.
        fn par_iter(&self) -> IntoParIter<&T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> IntoParIter<&T> {
            IntoParIter {
                items: self.iter().collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, v.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows() {
        let v: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let out: Vec<usize> = v.par_iter().map(|s| s.len()).collect();
        assert_eq!(out.len(), 100);
        assert_eq!(out[99], 2);
    }

    #[test]
    fn scope_runs_all_tasks_and_nested_spawns() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        crate::set_thread_override(Some(3));
        let hits = AtomicUsize::new(0);
        crate::scope(|s| {
            for _ in 0..10 {
                s.spawn(|s2| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    // Nested spawn from inside a running task.
                    s2.spawn(|_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 20);
        crate::set_thread_override(None);
    }

    #[test]
    fn panicking_task_propagates_instead_of_hanging() {
        crate::set_thread_override(Some(2));
        let result = std::panic::catch_unwind(|| {
            crate::scope(|s| {
                s.spawn(|_| panic!("task failed"));
                s.spawn(|_| {}); // sibling must not spin forever
            });
        });
        assert!(result.is_err(), "the task panic must reach the caller");
        crate::set_thread_override(None);
    }

    #[test]
    fn nested_workers_report_one_thread() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        crate::set_thread_override(Some(4));
        assert_eq!(crate::current_num_threads(), 4);
        let inside = AtomicUsize::new(0);
        crate::scope(|s| {
            s.spawn(|_| {
                // The budget is committed to this scope: nested parallel
                // calls must run inline.
                inside.store(crate::current_num_threads(), Ordering::SeqCst);
            });
        });
        assert_eq!(inside.load(Ordering::SeqCst), 1);
        assert_eq!(crate::current_num_threads(), 4, "flag is scope-local");
        crate::set_thread_override(None);
    }
}
