//! # mq-cq — conjunctive-query substrate
//!
//! Everything §3-§4 of the paper needs about conjunctive queries:
//!
//! * [`atom`] — atoms and conjunctive queries (Definition 3.2);
//! * [`hypergraph`] — hypergraphs and GYO ear removal (Definition 3.30);
//! * [`jointree`] — join trees (Definition 4.2);
//! * [`reducer`] — semijoin programs and full reducers (Definition 4.4);
//! * [`yannakakis`] — polynomial evaluation/counting for acyclic queries;
//! * [`eval`] — general BCQ satisfaction and exact `#BCQ` counting;
//! * [`hypertree`] — hypertree decompositions (Definitions 4.6-4.7) and
//!   the `acy(·)` construction used by Theorem 4.12 and `findRules`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod eval;
pub mod hypergraph;
pub mod hypertree;
pub mod jointree;
pub mod reducer;
pub mod yannakakis;

pub use atom::{Atom, Cq};
pub use eval::{count_homomorphisms, join_atoms, satisfiable};
pub use hypergraph::{Hypergraph, JoinForest};
pub use hypertree::{decompose_edge_sets, hypertree_width_of_sets, HtNode, Hypertree};
pub use jointree::JoinTree;
pub use reducer::{is_fully_reduced, FullReducer, SemijoinStep};
pub use yannakakis::{acyclic_count, acyclic_satisfiable, full_reduce, Reduced};
