//! # mq-relation — relational substrate for the metaquery engine
//!
//! This crate implements the database model of §2.1 of *Computational
//! Properties of Metaquerying Problems* (Angiulli, Ben-Eliyahu-Zohary,
//! Ianni, Palopoli; PODS 2000): finite databases `(D, R1, ..., Rn)` over a
//! domain of constants, plus the **variable-driven** relational algebra the
//! paper's plausibility indices are defined with (Definition 2.6):
//! natural join `J(·)` of atom sets, projection `π_att(·)`, semijoins, and
//! distinct-tuple counting.
//!
//! Layers:
//! * [`symbol`] / [`value`] — interned constants;
//! * [`relation`] / [`database`] — set-semantics relations and databases;
//! * [`algebra`] — `Bindings`, a relation over
//!   variables, with join/semijoin/projection kernels;
//! * [`head_table`] — the `findHeads` count op: every head of a search
//!   merged into one table, counted against each body join in one pass;
//! * [`frac`] — exact rational arithmetic for index values and thresholds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod database;
pub mod frac;
pub mod hashjoin;
pub mod head_table;
pub mod relation;
pub mod symbol;
pub mod textio;
pub mod value;

pub use algebra::{distinct_vars, Bindings, Term, VarId};
pub use database::{Database, RelId};
pub use frac::Frac;
pub use head_table::{HeadCounts, HeadScratch, HeadTable};
pub use relation::Relation;
pub use symbol::{Symbol, SymbolTable};
pub use textio::{parse_database, render_database, TextError};
pub use value::{ints, Tuple, Value};
