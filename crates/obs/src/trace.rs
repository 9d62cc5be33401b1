//! Lock-free per-thread span rings and the tracing gates.
//!
//! ## Recording model
//!
//! Every span is one fixed-size event — `(request id, name, depth,
//! start ns, duration ns)` — written into a per-thread ring buffer on
//! guard drop. Writers never lock and never allocate (the ring itself is
//! leaked once per thread slot on first use); readers (`trace <req-id>`)
//! scan every ring with a per-entry sequence check, so a reply assembled
//! mid-write is discarded rather than surfaced torn. Rings overwrite
//! oldest-first: a trace survives as long as its thread has recorded
//! fewer than [`RING_CAP`] newer events — plenty for "the request that
//! just finished", which is what the `trace` command serves.
//!
//! The rings are deliberately **process-global** (unlike metric
//! registries): span events carry process-unique request ids (see
//! [`next_request_id`]), so traces from two servers in one process stay
//! distinguishable, and a global buffer is what makes cross-thread span
//! assembly (session thread + scheduler workers) possible at all.
//!
//! ## Gates
//!
//! `MQ_TRACE=1` turns the hot-path spans ([`crate::span!`] sites: scheduler
//! tasks, detailed node profiling) on; default off. Request-granularity
//! spans ([`SpanGuard::start_always`]) record regardless — a handful per
//! request, nanoseconds each. `MQ_SLOW_MS=<ms>` arms the serving layer's
//! slow-query log. Both are read once from the environment and
//! overridable through process-wide atomics
//! ([`set_trace_override`]/[`set_slow_ms_override`]) — never by mutating
//! the environment, which is unsound under concurrent reads (the same
//! pattern as the rayon shim's `MQ_THREADS`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The span taxonomy: every span name the workspace records, in one
/// place (ARCHITECTURE.md's Observability section documents each).
/// Names are interned as indices so ring events stay fixed-size and the
/// reader can never reconstruct a torn string.
pub const SPAN_NAMES: &[&str] = &[
    "req.serve",
    "req.read",
    "req.write",
    "req.admission",
    "req.dedup.wait",
    "search.run",
    "sched.task",
    "catalog.update",
    "catalog.freeze",
];

/// An interned span name: an index into [`SPAN_NAMES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanName(pub u16);

/// Whole `serve_line` request handling (net layer).
pub const REQ_SERVE: SpanName = SpanName(0);
/// Blocking read of one request line (includes client think time).
pub const REQ_READ: SpanName = SpanName(1);
/// Writing one reply to the socket (writer thread).
pub const REQ_WRITE: SpanName = SpanName(2);
/// Waiting on the admission-control semaphore.
pub const REQ_ADMISSION: SpanName = SpanName(3);
/// A dedup follower blocked on the owner's in-flight search.
pub const REQ_DEDUP_WAIT: SpanName = SpanName(4);
/// One owned search execution (session layer).
pub const SEARCH_RUN: SpanName = SpanName(5);
/// One scheduler prefix task (gated on `MQ_TRACE`).
pub const SCHED_TASK: SpanName = SpanName(6);
/// One copy-on-write catalog update.
pub const CATALOG_UPDATE: SpanName = SpanName(7);
/// Freezing a database snapshot (index pre-warm + arena freeze).
pub const CATALOG_FREEZE: SpanName = SpanName(8);

// ── Gates ───────────────────────────────────────────────────────────

const GATE_UNSET: u8 = 0;
const GATE_OFF: u8 = 1;
const GATE_ON: u8 = 2;

/// Lazily cached `MQ_TRACE` (0 = not yet read).
static TRACE_ENV: AtomicU8 = AtomicU8::new(GATE_UNSET);
/// Test/bench override: 0 = none, 1 = force off, 2 = force on.
static TRACE_OVERRIDE: AtomicU8 = AtomicU8::new(GATE_UNSET);

/// Whether hot-path tracing is on. Disabled, this is the whole cost of
/// a [`crate::span!`] site: two relaxed loads and a branch.
pub fn trace_enabled() -> bool {
    match TRACE_OVERRIDE.load(Ordering::Relaxed) {
        GATE_OFF => return false,
        GATE_ON => return true,
        _ => {}
    }
    match TRACE_ENV.load(Ordering::Relaxed) {
        GATE_OFF => false,
        GATE_ON => true,
        _ => {
            let on = std::env::var("MQ_TRACE").map(|v| v != "0").unwrap_or(false);
            TRACE_ENV.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Force tracing on/off (`Some`) or back to the `MQ_TRACE` environment
/// default (`None`). An atomic override — mutating the environment is
/// unsound under concurrent readers.
pub fn set_trace_override(on: Option<bool>) {
    let v = match on {
        None => GATE_UNSET,
        Some(false) => GATE_OFF,
        Some(true) => GATE_ON,
    };
    TRACE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Lazily cached `MQ_SLOW_MS` (+1 so 0 can mean "not yet read";
/// u64::MAX = read, unset/disabled).
static SLOW_ENV: AtomicU64 = AtomicU64::new(0);
/// Override: 0 = none, u64::MAX = force off, v+1 = force threshold v.
static SLOW_OVERRIDE: AtomicU64 = AtomicU64::new(0);

/// The slow-query threshold in milliseconds, or `None` when the log is
/// disarmed (`MQ_SLOW_MS` unset or `0`, the default).
pub fn slow_ms() -> Option<u64> {
    match SLOW_OVERRIDE.load(Ordering::Relaxed) {
        0 => {}
        u64::MAX => return None,
        v => return Some(v - 1),
    }
    match SLOW_ENV.load(Ordering::Relaxed) {
        0 => {
            let ms = std::env::var("MQ_SLOW_MS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&v| v > 0);
            SLOW_ENV.store(ms.map_or(u64::MAX, |v| v + 1), Ordering::Relaxed);
            ms
        }
        u64::MAX => None,
        v => Some(v - 1),
    }
}

/// Force the slow-query threshold (`Some(ms)`), force it off
/// (`Some(None)` ≡ `None` threshold… pass `Some(0)`), or return to the
/// `MQ_SLOW_MS` default (`None`). `Some(0)` disarms the log.
pub fn set_slow_ms_override(ms: Option<u64>) {
    let v = match ms {
        None => 0,
        Some(0) => u64::MAX,
        Some(v) => v + 1,
    };
    SLOW_OVERRIDE.store(v, Ordering::Relaxed);
}

// ── Clock and request ids ───────────────────────────────────────────

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's first trace-clock read (monotonic).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

/// Mint a process-unique request id (monotonic from 1). Process-global
/// so two servers in one process never hand out colliding ids.
pub fn next_request_id() -> u64 {
    NEXT_REQ.fetch_add(1, Ordering::Relaxed)
}

// ── Rings ───────────────────────────────────────────────────────────

/// Thread slots: threads hash onto these on first span. More threads
/// than slots share rings (position claims are atomic, so interleaved
/// writers stay individually consistent).
const RING_SLOTS: usize = 32;
/// Events per ring; oldest overwritten first.
pub const RING_CAP: usize = 1024;

#[derive(Default)]
struct Event {
    /// 0 = never written; odd = mid-write; even = position*2+2 when
    /// complete. Readers discard entries whose seq changes under them.
    seq: AtomicU64,
    req: AtomicU64,
    name: AtomicU64,
    depth: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

struct ThreadRing {
    head: AtomicU64,
    events: Vec<Event>,
}

impl ThreadRing {
    fn new() -> Self {
        ThreadRing {
            head: AtomicU64::new(0),
            events: (0..RING_CAP).map(|_| Event::default()).collect(),
        }
    }

    fn record(&self, req: u64, name: u16, depth: u64, start_ns: u64, dur_ns: u64) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let e = &self.events[(pos as usize) % RING_CAP];
        e.seq.store(pos * 2 + 1, Ordering::SeqCst);
        e.req.store(req, Ordering::Relaxed);
        e.name.store(name as u64, Ordering::Relaxed);
        e.depth.store(depth, Ordering::Relaxed);
        e.start_ns.store(start_ns, Ordering::Relaxed);
        e.dur_ns.store(dur_ns, Ordering::Relaxed);
        e.seq.store(pos * 2 + 2, Ordering::SeqCst);
    }
}

static RINGS: [OnceLock<&'static ThreadRing>; RING_SLOTS] = [const { OnceLock::new() }; RING_SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static DEPTH: Cell<u64> = const { Cell::new(0) };
    static CUR_REQ: Cell<u64> = const { Cell::new(0) };
}

fn my_ring() -> &'static ThreadRing {
    let idx = MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % RING_SLOTS);
        }
        s.get()
    });
    RINGS[idx].get_or_init(|| Box::leak(Box::new(ThreadRing::new())))
}

/// The request id the current thread is working under (0 = none).
pub fn current_request() -> u64 {
    CUR_REQ.with(|r| r.get())
}

/// Pins `req` as the current thread's request id for the guard's
/// lifetime; restores the previous id on drop (scopes nest — a service
/// call inside an already-scoped net request keeps the outer id).
pub struct RequestScope {
    prev: u64,
}

/// Enter a request scope. Every span the thread records until the guard
/// drops is attributed to `req`.
pub fn request_scope(req: u64) -> RequestScope {
    let prev = CUR_REQ.with(|r| {
        let p = r.get();
        r.set(req);
        p
    });
    RequestScope { prev }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        let prev = self.prev;
        CUR_REQ.with(|r| r.set(prev));
    }
}

/// An open span: records one ring event (start, duration, nesting
/// depth, current request id) when dropped.
pub struct SpanGuard {
    name: u16,
    req: u64,
    depth: u64,
    start_ns: u64,
}

impl SpanGuard {
    /// Open a span unconditionally — request-granularity sites (a
    /// handful per request). Hot-path sites go through [`crate::span!`],
    /// which checks [`trace_enabled`] first.
    pub fn start_always(name: SpanName) -> SpanGuard {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        SpanGuard {
            name: name.0,
            req: current_request(),
            depth,
            start_ns: now_ns(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur = now_ns().saturating_sub(self.start_ns);
        my_ring().record(self.req, self.name, self.depth, self.start_ns, dur);
    }
}

/// Record a completed span directly, with an explicit start time.
/// For boundaries that only learn a span's request id after the fact —
/// the net reader measures the blocking line read, then attributes it
/// to the request id minted *for* that line. Depth 0 (these are
/// top-of-request spans).
pub fn record_span(name: SpanName, req: u64, start_ns: u64, dur_ns: u64) {
    my_ring().record(req, name.0, 0, start_ns, dur_ns);
}

/// Open a span if hot-path tracing is enabled; `None` (a single branch
/// on a relaxed atomic, no allocation) otherwise. Bind the result:
/// `let _span = mq_obs::span!(mq_obs::trace::SCHED_TASK);`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::trace_enabled() {
            Some($crate::trace::SpanGuard::start_always($name))
        } else {
            None
        }
    };
}

// ── Reading ─────────────────────────────────────────────────────────

/// One completed span read back out of the rings.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Request id the span was recorded under (0 = unattributed).
    pub req: u64,
    /// Span name (from [`SPAN_NAMES`]).
    pub name: &'static str,
    /// Nesting depth within its thread at record time.
    pub depth: u64,
    /// Ring slot (≈ thread) the span was recorded on.
    pub slot: usize,
    /// Start, nanoseconds on the process trace clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

fn scan(mut keep: impl FnMut(&SpanEvent)) {
    for (slot, ring) in RINGS.iter().enumerate() {
        let Some(ring) = ring.get() else { continue };
        for e in &ring.events {
            let s1 = e.seq.load(Ordering::SeqCst);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let req = e.req.load(Ordering::Relaxed);
            let name = e.name.load(Ordering::Relaxed);
            let depth = e.depth.load(Ordering::Relaxed);
            let start_ns = e.start_ns.load(Ordering::Relaxed);
            let dur_ns = e.dur_ns.load(Ordering::Relaxed);
            if e.seq.load(Ordering::SeqCst) != s1 {
                continue; // overwritten mid-read — discard
            }
            let Some(&name) = SPAN_NAMES.get(name as usize) else {
                continue;
            };
            keep(&SpanEvent {
                req,
                name,
                depth,
                slot,
                start_ns,
                dur_ns,
            });
        }
    }
}

/// Every still-buffered span of request `req`, sorted by start time.
pub fn collect_request(req: u64) -> Vec<SpanEvent> {
    let mut out = Vec::new();
    scan(|e| {
        if e.req == req {
            out.push(e.clone());
        }
    });
    out.sort_by_key(|e| (e.start_ns, e.depth));
    out
}

/// The highest request id with buffered spans, excluding `exclude`
/// (pass the in-flight request's own id so `trace last` doesn't return
/// itself). `None` when the rings hold no attributed spans.
pub fn latest_request(exclude: u64) -> Option<u64> {
    let mut best = None;
    scan(|e| {
        if e.req != 0 && e.req != exclude && Some(e.req) > best {
            best = Some(e.req);
        }
    });
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_read_back() {
        let req = next_request_id();
        {
            let _scope = request_scope(req);
            let _outer = SpanGuard::start_always(SEARCH_RUN);
            let _inner = SpanGuard::start_always(SCHED_TASK);
        }
        let got = collect_request(req);
        assert_eq!(got.len(), 2);
        // Inner drops (and records) first but starts later; sorted by
        // start time the outer span leads.
        assert_eq!(got[0].name, "search.run");
        assert_eq!(got[0].depth, 0);
        assert_eq!(got[1].name, "sched.task");
        assert_eq!(got[1].depth, 1);
        assert!(got[0].dur_ns >= got[1].dur_ns);
        assert!(latest_request(0) >= Some(req));
    }

    #[test]
    fn request_scopes_nest_and_restore() {
        assert_eq!(current_request(), 0);
        let outer = request_scope(7);
        assert_eq!(current_request(), 7);
        {
            let _inner = request_scope(9);
            assert_eq!(current_request(), 9);
        }
        assert_eq!(current_request(), 7);
        drop(outer);
        assert_eq!(current_request(), 0);
    }

    #[test]
    fn overrides_win_over_env() {
        set_trace_override(Some(true));
        assert!(trace_enabled());
        set_trace_override(Some(false));
        assert!(!trace_enabled());
        set_trace_override(None);

        set_slow_ms_override(Some(25));
        assert_eq!(slow_ms(), Some(25));
        set_slow_ms_override(Some(0));
        assert_eq!(slow_ms(), None);
        set_slow_ms_override(None);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let req = next_request_id();
        {
            let _scope = request_scope(req);
            for _ in 0..(RING_CAP + 50) {
                let _s = SpanGuard::start_always(SCHED_TASK);
            }
        }
        let got = collect_request(req);
        assert!(!got.is_empty());
        assert!(got.len() <= RING_CAP);
    }
}
