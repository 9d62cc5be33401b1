//! # mq-service — concurrent multi-session metaquery serving
//!
//! The first subsystem **above** the search: where `mq-core` answers one
//! metaquery over one database, this crate serves **many concurrent
//! sessions over a shared catalog of databases**, reusing work across
//! searches instead of just across one search's workers:
//!
//! * [`Catalog`] / [`DbHandle`] — named, versioned frozen database
//!   snapshots with pre-warmed `group_index`es. Updates are
//!   copy-on-write and copy only the touched relation: the entry
//!   version and the touched relation's generation bump, running
//!   sessions finish on their snapshot, and every untouched relation
//!   keeps its columns and built indexes. That shared relation storage
//!   is the cross-search cache: a search's atoms are handles onto it.
//! * [`MqService`] / [`Session`] — the session manager: admission
//!   control (bounded concurrent searches), per-session budgets, and a
//!   fresh memo service per search (`find_rules_instrumented`).
//! * [`RequestTable`] — in-flight request dedup: identical concurrent
//!   requests (same snapshot version, metaquery, type, thresholds,
//!   budget) coalesce onto **one** running search whose result fans out
//!   to every caller.
//! * [`protocol`] — the line protocol behind `mq serve`, also usable
//!   in-process.
//!
//! Everything is answer-preserving: a served request's bytes equal a
//! cold `find_rules_seq` run over the same snapshot (see the snapshot
//! contract in `ARCHITECTURE.md`; regression-tested in
//! `tests/service.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod dedup;
pub mod faults;
pub mod net;
pub mod protocol;
pub mod session;

pub use catalog::{Catalog, CatalogError, DbHandle};
pub use dedup::{Joined, RequestTable, RetryPolicy, Ticket};
pub use faults::{set_plan_override, CountedSite, FaultPlan};
pub use net::{DrainReport, NetConfig, NetMetricsSnapshot, NetServer};
pub use protocol::{error_code, handle_line, handle_line_opts, register_db, ProtoOptions, Reply};
pub use session::{
    MetaqueryRequest, MqService, QueryOutcome, ServiceConfig, ServiceError, ServiceMetrics,
    Session, SessionBudget, SlowQuery,
};
