//! The work-stealing scheduler for `findRules`.
//!
//! The sequential search enumerates pattern assignments depth-first. The
//! scheduler splits that search over *instantiation prefixes*: every
//! combination of candidate assignments for the first [`SPLIT_DEPTH`]
//! patterns (in enumeration order, respecting predicate-variable locks)
//! becomes one task. Tasks go into a shared deque drained by
//! work-stealing workers (`rayon::scope`/`spawn`, identical under the
//! offline shim and real rayon): each worker owns **one** engine reused
//! across every task it steals. Every engine's executor reads and
//! publishes into the search-global shared memo service
//! ([`super::memo::SharedMemos`], carried by the `Setup`), so an atom,
//! plan or plan-node intermediate computed by any worker is a memo hit
//! for all of them — no per-worker warm-up.
//!
//! Determinism: tasks are generated in enumeration order and each task's
//! answers land in its own output slot; concatenating slots in task order
//! reproduces the sequential enumeration order exactly, regardless of
//! which worker ran what when. `find_rules` then applies the same final
//! sort as `find_rules_seq`, so output is byte-identical for every
//! `MQ_THREADS`.
//!
//! Knob: `MQ_THREADS` caps the worker count (via the rayon shim;
//! `MQ_THREADS=1` runs every search sequentially).

use super::find_rules::{collect_sequential, Engine, Setup};
use super::MqAnswer;
use mq_store::lock::{lock_recover, unpoison};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of leading patterns the scheduler splits on.
pub const SPLIT_DEPTH: usize = 2;

/// Run the search for `setup`, on the work-stealing scheduler when more
/// than one thread is available and the split yields at least two tasks,
/// else sequentially.
/// Answers come back in enumeration order (pre-sort).
pub(crate) fn run(setup: &Setup) -> Vec<MqAnswer> {
    let threads = rayon::current_num_threads();
    if threads <= 1 {
        // The sequential fallback runs on the calling thread, which is
        // already inside the request's trace scope; count it as one task.
        if let Some(p) = &setup.profile {
            p.task_claimed();
        }
        return collect_sequential(setup);
    }
    let tasks = setup.prefix_tasks(SPLIT_DEPTH);
    if tasks.len() < 2 {
        if let Some(p) = &setup.profile {
            p.task_claimed();
        }
        return collect_sequential(setup);
    }
    let n_workers = threads.min(tasks.len());
    // One output slot per task: deterministic merge regardless of which
    // worker ran the task (or when).
    let slots: Vec<Mutex<Vec<MqAnswer>>> = tasks.iter().map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);
    rayon::scope(|s| {
        for _ in 0..n_workers {
            s.spawn(|_| {
                // One engine per worker, reused across stolen tasks. Its
                // executor talks to the Setup's shared memo service, so
                // a prefix computed for one task is a memo hit for the
                // next, and for every other worker too.
                // The sink is worker-local (the engine's callback and the
                // drain below are the only handles), so every lock here
                // is uncontended — Arc<Mutex> instead of Rc<RefCell>
                // keeps this module inside the workspace's Send+Sync
                // purity contract (`no-rc-refcell-in-sendsync`).
                // Workers are fresh pool threads: enter the request's
                // trace scope so their spans (and the engine drop's
                // profile flush) attribute to the serving request.
                let _scope =
                    (setup.obs_req != 0).then(|| mq_obs::trace::request_scope(setup.obs_req));
                let sink: Arc<Mutex<Vec<MqAnswer>>> = Arc::new(Mutex::new(Vec::new()));
                let mut engine = Engine::new(setup, {
                    let sink = Arc::clone(&sink);
                    move |ans: &MqAnswer| {
                        lock_recover(&sink).push(ans.clone());
                        ControlFlow::Continue(())
                    }
                });
                loop {
                    // Cooperative deadline: once any worker latches
                    // expiry, the rest stop claiming tasks. (The answers
                    // merged so far are discarded by the budgeted entry
                    // point — partial results are never surfaced.)
                    if setup.deadline.as_ref().is_some_and(|dl| dl.check()) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks.len() {
                        break;
                    }
                    if let Some(p) = &setup.profile {
                        p.task_claimed();
                    }
                    let _span = mq_obs::span!(mq_obs::trace::SCHED_TASK);
                    engine.run_prefix_task(&tasks[i]);
                    let got: Vec<MqAnswer> = lock_recover(&sink).drain(..).collect();
                    *lock_recover(&slots[i]) = got;
                }
            });
        }
    });
    slots
        .into_iter()
        .flat_map(|m| unpoison(m.into_inner()))
        .collect()
}
