//! Allocation regressions in the probe phases of the relational kernels.
//!
//! The pre-optimization kernels materialized one `Box<[Value]>` key per
//! probed row (`algebra::baseline` keeps that code as the reference); the
//! optimized kernels hash keys straight out of column storage and compare
//! positionally, so — once the build-side index is cached — probing must
//! allocate O(result), not O(rows). A counting global allocator pins that
//! down: each probe phase below runs over thousands of rows and is
//! asserted to allocate at most a small constant. The columnar phases
//! additionally pin the column-major layout's costs: transposition is
//! O(arity) allocations, batched multi-column hashing reuses one
//! scratch buffer, and the fused/reverse semijoins return
//! storage-sharing clones when nothing is filtered. The relation-insert
//! phase pins `Relation::insert` to amortized growth allocations only,
//! not one key per row. The head-count phase
//! pins `findHeads`' count op: with the head table built and the scratch
//! primed, counting one body of N rows against K heads allocates a
//! constant number of times, independent of N and K, whether the body is
//! built or given as the two inputs of its last join. A
//! final phase pins the observability contract: with tracing forced
//! off, `span!` sites and metric-handle updates allocate nothing at all,
//! and a zero scrape cadence keeps the flight recorder's scraper thread
//! unspawned.
//!
//! All phases live in one `#[test]` because the allocation counter is
//! global to the process and the test harness runs tests concurrently.

use mq_relation::{ints, Bindings, HeadScratch, HeadTable, Relation, Tuple, VarId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

const N: i64 = 4096;
/// Generous constant budget per probe phase: row-independent bookkeeping
/// (result headers, a grown index vector) stays well under this; a
/// regression to per-row keys costs ≥ N allocations.
const BUDGET: usize = 256;

fn v(i: u32) -> VarId {
    VarId(i)
}

#[test]
fn probe_phases_allocate_constant_not_per_row() {
    // a(V0, V1) with V1 = V0 + 1; `hits` covers every V1 key, `misses`
    // covers none.
    let a = Bindings::from_parts(
        vec![v(0), v(1)],
        (0..N).map(|i| ints(&[i, i + 1])).collect(),
    );
    let hits = Bindings::from_parts(
        vec![v(1), v(2)],
        (0..N).map(|i| ints(&[i + 1, 0])).collect(),
    );
    let misses = Bindings::from_parts(
        vec![v(1), v(2)],
        (0..N).map(|i| ints(&[-i - 1, 0])).collect(),
    );

    // Prime every cached build-side index outside the measured window.
    assert_eq!(a.semijoin(&hits).len(), a.len());
    assert!(a.antijoin(&hits).is_empty());
    assert!(a.semijoin(&misses).is_empty());
    assert_eq!(a.antijoin(&misses).len(), a.len());
    assert_eq!(a.semijoin_count(&hits), a.len());

    // Antijoin probe, all rows matching: empty result, ~no allocations.
    let before = allocations();
    let anti = a.antijoin(&hits);
    let spent = allocations() - before;
    assert!(anti.is_empty());
    assert!(
        spent < BUDGET,
        "antijoin probe allocated {spent} times for {N} rows — per-row keys are back"
    );

    // Antijoin probe, no rows matching: full result shares `a`'s storage.
    let before = allocations();
    let anti = a.antijoin(&misses);
    let spent = allocations() - before;
    assert_eq!(anti.len(), a.len());
    assert!(
        spent < BUDGET,
        "all-miss antijoin allocated {spent} times for {N} rows"
    );

    // Semijoin probe, all rows surviving: shares storage likewise.
    let before = allocations();
    let semi = a.semijoin(&hits);
    let spent = allocations() - before;
    assert_eq!(semi.len(), a.len());
    assert!(
        spent < BUDGET,
        "all-hit semijoin allocated {spent} times for {N} rows"
    );

    // semijoin_count never materializes rows at all.
    let before = allocations();
    let count = a.semijoin_count(&hits);
    let spent = allocations() - before;
    assert_eq!(count, a.len());
    assert!(
        spent < BUDGET,
        "semijoin_count allocated {spent} times for {N} rows"
    );

    // ── Columnar phases ─────────────────────────────────────────────
    // Building bindings from N boxed rows transposes them into column
    // storage: O(arity) allocations (one contiguous buffer per column
    // plus the shared headers), never one per row.
    let rows: Vec<Tuple> = (0..N).map(|i| ints(&[i, -i])).collect();
    let vars = vec![v(0), v(1)];
    let before = allocations();
    let fresh = Bindings::from_parts(vars, rows);
    let spent = allocations() - before;
    assert_eq!(fresh.columnar().len(), N as usize);
    assert!(
        spent < 16,
        "columnar transposition allocated {spent} times for {N} rows"
    );

    // Multi-column keys take the batched columnar hashing path: whole
    // column slices are hashed into one scratch buffer, so the count
    // probe stays O(1) allocations over N rows.
    let a2 = Bindings::from_parts(
        vec![v(0), v(1)],
        (0..N).map(|i| ints(&[i, i + 1])).collect(),
    );
    let b2 = Bindings::from_parts(
        vec![v(1), v(0)],
        (0..N).map(|i| ints(&[i + 1, i])).collect(),
    );
    assert_eq!(a2.semijoin_count(&b2), a2.len()); // prime both indexes
    let before = allocations();
    let count = a2.semijoin_count(&b2);
    let spent = allocations() - before;
    assert_eq!(count, a2.len());
    assert!(
        spent < BUDGET,
        "two-column semijoin_count allocated {spent} times for {N} rows"
    );

    // Reverse semijoin: the receiver keeps its cached index and the
    // ephemeral argument is scanned; an all-hit probe returns a
    // storage-sharing clone — O(1) allocations.
    assert_eq!(a.semijoin_indexed(&hits).len(), a.len()); // prime
    let before = allocations();
    let semi = a.semijoin_indexed(&hits);
    let spent = allocations() - before;
    assert_eq!(semi.len(), a.len());
    assert!(
        spent < BUDGET,
        "semijoin_indexed allocated {spent} times for {N} rows"
    );

    // Fused multi-child semijoin: one sweep probing every child's cached
    // index; when all children keep every row the result shares storage.
    assert_eq!(a.semijoin_all(&[&hits, &b2]).len(), a.len()); // prime
    let before = allocations();
    let all = a.semijoin_all(&[&hits, &b2]);
    let spent = allocations() - before;
    assert_eq!(all.len(), a.len());
    assert!(
        spent < BUDGET,
        "semijoin_all allocated {spent} times for {N} rows"
    );

    // ── Relation-insert phase ───────────────────────────────────────
    // A relation stores each tuple once, in its columns; the membership
    // table keeps row ids, not boxed keys. Inserting N pre-built distinct
    // rows therefore allocates only for amortized column and table
    // growth — O(log N) times, never once per row.
    let rows: Vec<Tuple> = (0..N).map(|i| ints(&[i, i % 7, -i])).collect();
    let before = allocations();
    let mut rel = Relation::new("r", 3);
    for row in rows {
        rel.insert(row);
    }
    let spent = allocations() - before;
    assert_eq!(rel.len(), N as usize);
    assert!(
        spent < N as usize / 16,
        "inserting {N} rows allocated {spent} times — per-row keys are back"
    );

    // ── Head-count phase ────────────────────────────────────────────
    // `findHeads` merges every head into one table per search, then
    // streams each body once against it with buffers reused across
    // bodies. With the table built and the scratch primed, counting the
    // body allocates a constant — the same for 4 heads over
    // N/4 rows as for 64 heads over N rows. The heads use both column
    // orders of one key (`[V0,V1]` and `[V1,V0]`); half hit the body.
    // The body is counted twice: built whole (as `body ⋈ unit`), and as
    // the two inputs `left(V0,V3) ⋈ right(V3,V1,V2)` of its last join,
    // which the op streams without building — the key spans both sides.
    let head_sweep = |n: i64, k: usize| -> (usize, usize) {
        let left = Bindings::from_parts(
            vec![v(0), v(3)],
            (0..n).map(|i| ints(&[i % (n / 2), i])).collect(),
        );
        let right = Bindings::from_parts(
            vec![v(3), v(1), v(2)],
            (0..n).map(|i| ints(&[i, i, -i])).collect(),
        );
        let body = left.join(&right);
        assert_eq!(body.len(), n as usize);
        let unit = Bindings::unit();
        let heads: Vec<Bindings> = (0..k)
            .map(|j| {
                let vars = if j % 4 < 2 {
                    vec![v(0), v(1)]
                } else {
                    vec![v(1), v(0)]
                };
                let len = if j % 2 == 0 { n / 2 } else { 2 * n };
                Bindings::from_parts(vars, (0..len).map(|i| ints(&[i, i])).collect())
            })
            .collect();
        let expect: Vec<(usize, usize)> = heads
            .iter()
            .map(|h| (h.semijoin_count(&body), body.semijoin_count(h)))
            .collect();
        let refs: Vec<&Bindings> = heads.iter().collect();
        let table = HeadTable::build(&refs, &[v(0), v(1), v(2), v(3)]);
        let mut scratch = HeadScratch::new();
        let mut spent = [0; 2];
        for (sides, spent) in [(&body, &unit), (&left, &right)]
            .into_iter()
            .zip(&mut spent)
        {
            table.count(sides.0, sides.1, &mut scratch);
            let before = allocations();
            let body_len = table.count(sides.0, sides.1, &mut scratch);
            *spent = allocations() - before;
            assert_eq!(body_len, n as usize);
            let got: Vec<(usize, usize)> = scratch
                .counts()
                .iter()
                .map(|c| (c.head_hits, c.body_hits))
                .collect();
            assert_eq!(got, expect, "head counts at N={n}, K={k}");
        }
        (spent[0], spent[1])
    };
    let small = head_sweep(N / 4, 4);
    let large = head_sweep(N, 64);
    assert!(
        large.0 < 32 && large.1 < 32,
        "counting 64 heads against {N} body rows allocated {large:?} times"
    );
    assert_eq!(
        small, large,
        "head-count allocations grew with the body rows or the head count"
    );

    // ── Disabled-instrumentation phase ──────────────────────────────
    // With tracing forced off, a `span!` site must cost one relaxed
    // load and a branch — no guard, no ring write, no allocation — and
    // updating pre-created registry handles is plain atomic arithmetic.
    // This is the "observability is free when off" contract the serving
    // hot path relies on (the bench-side twin is `trace_overhead`).
    mq_obs::set_trace_override(Some(false));
    let registry = mq_obs::Registry::new();
    let probes = registry.counter("mq_test_probe_total", "no-alloc phase counter");
    let lat = registry.histogram("mq_test_probe_ns", "no-alloc phase histogram");
    let before = allocations();
    for i in 0..N as u64 {
        let _span = mq_obs::span!(mq_obs::trace::SCHED_TASK);
        probes.inc();
        lat.observe_ns(i);
    }
    let spent = allocations() - before;
    mq_obs::set_trace_override(None);
    assert_eq!(probes.get(), N as u64);
    assert_eq!(
        spent, 0,
        "disabled tracing + registry updates allocated {spent} times over \
         {N} iterations — instrumentation crept onto the hot path"
    );

    // With the scrape cadence forced to 0, the flight recorder refuses
    // to spawn its scraper thread — so the handle updates above are the
    // *whole* cost of observability: nothing samples the registry or
    // fills ring buffers behind the hot path's back.
    mq_obs::set_scrape_ms_override(Some(0));
    let registry = std::sync::Arc::new(registry);
    let recorder = std::sync::Arc::new(mq_obs::FlightRecorder::new(&registry));
    assert!(
        recorder
            .start_scraper(std::sync::Arc::clone(&registry))
            .is_none(),
        "MQ_SCRAPE_MS=0 must keep the flight recorder fully off"
    );
    mq_obs::set_scrape_ms_override(None);
}
