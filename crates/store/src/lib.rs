//! # mq-store — the storage layer of the metaquery engine
//!
//! Everything above this crate computes over immutable tuple sets; this
//! crate owns *how those sets are stored and shared*. It has no
//! dependency on the relational model — every type is generic — which is
//! what lets it sit **below** `mq-relation` in the workspace while still
//! serving the whole stack:
//!
//! * [`ColumnarRows`] — immutable, atomically reference-counted
//!   column-major row storage with O(1) handle clones: one contiguous
//!   buffer **per column**, so keyed kernels (probing, grouped index
//!   builds, batch hashing) walk dense column slices. `Send + Sync`, so
//!   values built on it (notably `mq_relation::Bindings`) can cross
//!   worker threads and live in cross-worker caches.
//! * [`ColIndexCache`] — a thread-safe, *hashed* per-column-set cache of
//!   derived indexes over one frozen row store (the replacement for the
//!   old linear-scan `Rc<RefCell<Vec<…>>>` cache in `mq_relation`).
//! * [`ShardedMemo`] — a sharded, lock-striped concurrent map with
//!   first-writer-wins publication and hit/miss counters: the substrate
//!   of the shared memo service that lets every `findRules` scheduler
//!   worker read and publish into **one** global memo instead of warming
//!   a private slice per worker.
//! * [`FxHasher`] / [`FxBuildHasher`] — the FxHash-style hasher the
//!   join kernels already used, now owned by the storage layer so row
//!   stores, index caches and memos hash with one deterministic
//!   function.
//! * [`lock`] — the poison-recovering lock helpers ([`lock_recover`],
//!   [`read_recover`], [`write_recover`], [`wait_recover`]) that every
//!   `Mutex`/`RwLock` acquisition in the concurrency layers must route
//!   through (enforced statically by `mq-lint`'s `poison-safe-locks`
//!   rule).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod frozen;
pub mod fxhash;
pub mod lock;
pub mod memo;

pub use columnar::ColumnarRows;
pub use frozen::ColIndexCache;
pub use fxhash::{FxBuildHasher, FxHasher};
pub use lock::{lock_recover, read_recover, unpoison, wait_recover, write_recover};
pub use memo::{MemoStats, ShardedMemo};
