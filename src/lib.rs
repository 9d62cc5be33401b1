//! # metaquery — a Rust reproduction of *Computational Properties of
//! Metaquerying Problems* (Angiulli, Ben-Eliyahu-Zohary, Ianni, Palopoli;
//! PODS 2000 / arXiv cs.DB/0106012)
//!
//! Metaquerying is a data-mining primitive: a second-order Horn template
//! whose predicate *variables* range over the relations of a database.
//! This workspace implements the paper end to end:
//!
//! * [`relation`] — the relational substrate (§2.1, Definition 2.6);
//! * [`cq`] — conjunctive-query machinery (GYO, join trees, full
//!   reducers, Yannakakis, hypertree decompositions; §3.1, §3.4, §4);
//! * [`core`] — metaqueries, type-0/1/2 instantiations, the plausibility
//!   indices, the naive engine and `findRules` (Figure 4);
//! * [`reductions`] — executable versions of every hardness proof in §3,
//!   validated against independent solvers;
//! * [`circuits`] — the AC0/TC0 data-complexity upper bounds of §3.5 as
//!   runnable circuit compilers;
//! * [`datagen`] — seeded workload generators, including the paper's
//!   telecom database (Figures 1-2);
//! * [`service`] — the concurrent multi-session serving layer: a catalog
//!   of versioned frozen databases, session manager with admission
//!   control and in-flight request dedup (`mq serve`).
//!
//! ## Quick start
//!
//! ```
//! use metaquery::prelude::*;
//!
//! // The paper's Figure 1 database and metaquery (4).
//! let db = metaquery::datagen::telecom::db1();
//! let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
//!
//! // Mine all type-0 rules with sup > 0.5, cvr > 0.5, cnf > 0.5.
//! let half = Frac::new(1, 2);
//! let answers = find_rules(&db, &mq, InstType::Zero,
//!                          Thresholds::all(half, half, half)).unwrap();
//! for a in &answers {
//!     let rule = apply_instantiation(&db, &mq, &a.inst).unwrap();
//!     println!("{}  sup={} cvr={} cnf={}", rule.render(&db),
//!              a.indices.sup, a.indices.cvr, a.indices.cnf);
//! }
//! # assert!(!answers.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mq_circuits as circuits;
pub use mq_core as core;
pub use mq_cq as cq;
pub use mq_datagen as datagen;
pub use mq_reductions as reductions;
pub use mq_relation as relation;
pub use mq_service as service;

/// One-stop imports for applications.
pub mod prelude {
    pub use mq_core::prelude::*;
    pub use mq_relation::{Database, Frac, Relation, Value};
}
