//! The `findHeads` count op: cover and confidence numerators of many head
//! relations against one body join.
//!
//! `findHeads` (Figure 4) checks every head instantiation `h` against the
//! same body join `b` with two counts, `|h ⋉ b|` (cover) and `|b ⋉ h|`
//! (confidence). Counting each with [`Bindings::semijoin_count`] indexes
//! the fresh `b` with a full [`GroupIndex`] (copied keys, row chains) —
//! and, because that kernel orders keys by the receiver's columns, a
//! `[Z,X]` head indexes `b` a second time beside the `[X,Z]` one.
//!
//! [`BodyCounts`] answers both counts in one op instead:
//!
//! * the key is the variables `h` and `b` share, **sorted by `VarId`**, so
//!   heads that bind the same variables in any column order share it;
//! * per key, `b` gets a **count-only aggregate** at most once: an
//!   open-addressing table mapping each distinct key to its first row and
//!   its multiplicity, comparing keys against `b`'s own columns — no key
//!   copies, no row chains;
//! * when `h`'s cached index on the key has no more groups than `b` has
//!   rows, `h`'s groups probe the aggregate: a hit adds the group's size
//!   to the cover count and the key's multiplicity to the confidence
//!   count (`h` is a memoized atom, so its index outlives the body);
//! * otherwise `b` is small: its rows stream once against `h`'s index,
//!   which yields both counts in one pass and indexes `b` not at all.
//!
//! The aggregates live exactly as long as the [`BodyCounts`] value — the
//! engine makes one per `findHeads` call and drops it with the body.
//! Scratch buffers are reused across heads, so counting any number of
//! heads against one body allocates a bounded number of times
//! (`tests/no_alloc_kernels.rs`).

use crate::algebra::{Bindings, VarId};
use crate::hashjoin::{self, GroupIndex, RawTable};
use crate::value::Value;
use mq_store::ColumnarRows;

/// Both semijoin counts of one head against the body, plus the work
/// they took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeadCounts {
    /// `|h ⋉ b|` — the cover numerator.
    pub head_hits: usize,
    /// `|b ⋉ h|` — the confidence numerator.
    pub body_hits: usize,
    /// Key lookups made: `h`'s groups probing the aggregate, or `b`'s
    /// rows probing `h`'s index.
    pub probes: usize,
}

/// A count-only aggregate of the body over one key: distinct key → first
/// row, multiplicity. Keys are compared against the body's columns.
struct KeyAggregate {
    /// The shared variables, sorted.
    key: Vec<VarId>,
    /// The body columns holding `key`, in `key` order.
    cols: Vec<usize>,
    /// Key hash → key id.
    table: RawTable,
    /// Key id → `(first row, multiplicity)`.
    groups: Vec<(u32, u32)>,
}

impl KeyAggregate {
    fn build(
        store: &ColumnarRows<Value>,
        key: &[VarId],
        cols: &[usize],
        hashes: &mut Vec<u64>,
    ) -> Self {
        hashjoin::hash_columns_into(store, cols, hashes);
        let mut table = RawTable::with_capacity(store.len());
        let mut groups: Vec<(u32, u32)> = Vec::with_capacity(store.len());
        for (i, &h) in hashes.iter().enumerate() {
            let found = table.find(h, |id| {
                let j = groups[id as usize].0 as usize;
                cols.iter().all(|&c| store.col(c)[i] == store.col(c)[j])
            });
            match found {
                Some(id) => groups[id as usize].1 += 1,
                None => {
                    table.insert_new(h, groups.len() as u32);
                    groups.push((i as u32, 1));
                }
            }
        }
        KeyAggregate {
            key: key.to_vec(),
            cols: cols.to_vec(),
            table,
            groups,
        }
    }

    /// The multiplicity of `key_vals` (values in `key` order) in the
    /// body, if it occurs.
    #[inline]
    fn multiplicity(&self, store: &ColumnarRows<Value>, key_vals: &[Value]) -> Option<usize> {
        let h = hashjoin::hash_vals(key_vals);
        self.table
            .find(h, |id| {
                let j = self.groups[id as usize].0 as usize;
                self.cols
                    .iter()
                    .zip(key_vals)
                    .all(|(&c, kv)| store.col(c)[j] == *kv)
            })
            .map(|id| self.groups[id as usize].1 as usize)
    }
}

/// The `findHeads` count op over one body join `b`: [`BodyCounts::counts`]
/// returns `(|h ⋉ b|, |b ⋉ h|)` for any head `h`, building a count-only
/// aggregate of `b` at most once per shared key (see the module docs).
pub struct BodyCounts<'b> {
    body: &'b Bindings,
    aggs: Vec<KeyAggregate>,
    // Scratch reused across heads.
    key: Vec<VarId>,
    head_pos: Vec<usize>,
    body_pos: Vec<usize>,
    hashes: Vec<u64>,
    hit_groups: Vec<u32>,
}

impl<'b> BodyCounts<'b> {
    /// The count op over `body`; nothing is aggregated until a head asks.
    pub fn new(body: &'b Bindings) -> Self {
        BodyCounts {
            body,
            aggs: Vec::new(),
            key: Vec::new(),
            head_pos: Vec::new(),
            body_pos: Vec::new(),
            hashes: Vec::new(),
            hit_groups: Vec::new(),
        }
    }

    /// The body join every head is counted against.
    pub fn body(&self) -> &'b Bindings {
        self.body
    }

    /// `|h ⋉ b|` and `|b ⋉ h|` in one op — equal to
    /// `h.semijoin_count(b)` and `b.semijoin_count(h)`. With no shared
    /// variable, `h ⋉ b` keeps all of `h` iff `b` is non-empty (and
    /// symmetrically).
    pub fn counts(&mut self, h: &Bindings) -> HeadCounts {
        let b = self.body;
        self.key.clear();
        self.key.extend(
            h.vars()
                .iter()
                .copied()
                .filter(|&v| b.position(v).is_some()),
        );
        if self.key.is_empty() {
            return HeadCounts {
                head_hits: if b.is_empty() { 0 } else { h.len() },
                body_hits: if h.is_empty() { 0 } else { b.len() },
                probes: 0,
            };
        }
        if h.is_empty() || b.is_empty() {
            return HeadCounts::default();
        }
        self.key.sort_unstable();
        self.head_pos.clear();
        self.body_pos.clear();
        for &v in &self.key {
            self.head_pos.push(h.position(v).expect("shared variable"));
            self.body_pos.push(b.position(v).expect("shared variable"));
        }
        let h_idx = h.binding_index(&self.head_pos);
        if h_idx.num_groups() <= b.len() {
            self.probe_aggregate(&h_idx)
        } else {
            self.stream_body(&h_idx)
        }
    }

    /// Normal direction: `h`'s groups probe the body's aggregate on the
    /// current key (built on first use).
    fn probe_aggregate(&mut self, h_idx: &GroupIndex) -> HeadCounts {
        let store = self.body.columnar();
        let at = match self.aggs.iter().position(|a| a.key == self.key) {
            Some(at) => at,
            None => {
                let agg = KeyAggregate::build(store, &self.key, &self.body_pos, &mut self.hashes);
                self.aggs.push(agg);
                self.aggs.len() - 1
            }
        };
        let agg = &self.aggs[at];
        let mut out = HeadCounts {
            probes: h_idx.num_groups(),
            ..HeadCounts::default()
        };
        for g in 0..h_idx.num_groups() {
            if let Some(mult) = agg.multiplicity(store, h_idx.group_key(g)) {
                out.head_hits += h_idx.group_count(g);
                out.body_hits += mult;
            }
        }
        out
    }

    /// Small body: stream its rows once against `h`'s index. Every hit
    /// row counts towards confidence; each distinct hit group's size
    /// counts once towards cover.
    fn stream_body(&mut self, h_idx: &GroupIndex) -> HeadCounts {
        let store = self.body.columnar();
        let cols = &self.body_pos;
        hashjoin::hash_columns_into(store, cols, &mut self.hashes);
        self.hit_groups.clear();
        self.hit_groups.reserve(store.len());
        for (i, &hash) in self.hashes.iter().enumerate() {
            let found = h_idx.find_group(hash, |gkey| {
                gkey.iter().zip(cols).all(|(kv, &c)| *kv == store.col(c)[i])
            });
            if let Some(g) = found {
                self.hit_groups.push(g as u32);
            }
        }
        let body_hits = self.hit_groups.len();
        self.hit_groups.sort_unstable();
        self.hit_groups.dedup();
        HeadCounts {
            head_hits: self
                .hit_groups
                .iter()
                .map(|&g| h_idx.group_count(g as usize))
                .sum(),
            body_hits,
            probes: store.len(),
        }
    }
}
