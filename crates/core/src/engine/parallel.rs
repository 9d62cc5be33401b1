//! The scheduler for `findRules`.
//!
//! The sequential search enumerates pattern assignments depth-first. The
//! scheduler splits that search over *instantiation prefixes*: every
//! combination of candidate assignments for the first [`SPLIT_DEPTH`]
//! patterns (in enumeration order, respecting predicate-variable locks)
//! becomes one task. Workers are scoped threads (`std::thread::scope`)
//! that claim tasks off one shared counter until none is left; each
//! worker owns **one** engine reused across every task it claims. Every
//! engine's executor reads and publishes into the search-global shared
//! memo service ([`super::memo::SharedMemos`], carried by the `Setup`),
//! so an atom, plan or plan-node intermediate computed by any worker is
//! a memo hit for all of them — no per-worker warm-up.
//!
//! Determinism: tasks are generated in enumeration order and each task's
//! answers land in its own output slot; concatenating slots in task order
//! reproduces the sequential enumeration order exactly, regardless of
//! which worker ran what when. `find_rules` then applies the same final
//! sort as `find_rules_seq`, so output is byte-identical for every
//! `MQ_THREADS`. A worker's panic reaches the caller: the scope joins
//! every worker, then re-raises.
//!
//! Knob: `MQ_THREADS` caps the worker count (read through the rayon
//! shim's `current_num_threads`; `MQ_THREADS=1` runs every search
//! sequentially).

use super::find_rules::{collect_sequential, Engine, PrefixAssign, Setup};
use super::MqAnswer;
use mq_store::lock::{lock_recover, unpoison};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of leading patterns the scheduler splits on.
pub const SPLIT_DEPTH: usize = 2;

/// Run the search for `setup` on `min(threads, tasks)` scoped workers
/// when more than one thread is available and the split yields at least
/// two tasks, else sequentially.
/// Answers come back in enumeration order (pre-sort).
pub(crate) fn run(setup: &Setup) -> Vec<MqAnswer> {
    let threads = rayon::current_num_threads();
    let tasks = if threads > 1 {
        setup.prefix_tasks(SPLIT_DEPTH)
    } else {
        Vec::new()
    };
    if tasks.len() < 2 {
        // The sequential fallback runs on the calling thread, which is
        // already inside the request's trace scope; count it as one task.
        if let Some(p) = &setup.profile {
            p.task_claimed();
        }
        return collect_sequential(setup);
    }
    // One output slot per task: deterministic merge regardless of which
    // worker ran the task (or when).
    let slots: Vec<Mutex<Vec<MqAnswer>>> = tasks.iter().map(|_| Mutex::new(Vec::new())).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(tasks.len()) {
            s.spawn(|| worker(setup, &tasks, &slots, &next));
        }
    });
    slots
        .into_iter()
        .flat_map(|m| unpoison(m.into_inner()))
        .collect()
}

/// One worker: claim tasks off `next` until none is left (or the
/// deadline latches), writing each task's answers into its own slot.
fn worker(
    setup: &Setup,
    tasks: &[Vec<PrefixAssign>],
    slots: &[Mutex<Vec<MqAnswer>>],
    next: &AtomicUsize,
) {
    // Workers are fresh threads: enter the request's trace scope so their
    // spans (and the engine drop's profile flush) attribute to the
    // serving request.
    let _scope = (setup.obs_req != 0).then(|| mq_obs::trace::request_scope(setup.obs_req));
    // The task the engine is running; its answers go to that task's slot.
    // Only this worker reads or writes it, so each slot lock is
    // uncontended.
    let current = AtomicUsize::new(0);
    // One engine per worker, reused across claimed tasks: its executor
    // talks to the Setup's shared memo service, so a prefix computed for
    // one task is a memo hit for the next, and for every other worker.
    let mut engine = Engine::new(setup, |ans: &MqAnswer| {
        lock_recover(&slots[current.load(Ordering::Relaxed)]).push(ans.clone());
        ControlFlow::Continue(())
    });
    loop {
        // Cooperative deadline: once any worker latches expiry, the rest
        // stop claiming tasks. (The answers merged so far are discarded
        // by the budgeted entry point — partial results are never
        // surfaced.)
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
        current.store(i, Ordering::Relaxed);
        engine.run_prefix_task(&tasks[i]);
    }
}
