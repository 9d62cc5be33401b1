//! Allocation-free hash infrastructure for the join/semijoin kernels.
//!
//! The naive port of the algebra materialized a fresh `Box<[Value]>` hash
//! key for **every row of every operation** — the dominant allocation in
//! the `findRules` hot path. This module replaces those keys with
//! *hash-of-column-slice probing*: keys are hashed directly out of the
//! column storage ([`hash_columns_into`]) and compared positionally, so
//! building or probing a table allocates nothing per row.
//!
//! Three building blocks:
//!
//! * [`FxHasher`] — an FxHash-style multiply-xor [`std::hash::Hasher`],
//!   much faster than SipHash for the tiny fixed-width keys joins use;
//! * [`RawTable`] — an open-addressing table of `(hash, id)` entries with
//!   caller-supplied equality, the substrate for join maps, semijoin
//!   membership sets, and projection dedup sets;
//! * [`GroupIndex`] — row-ids grouped by the key at a column subset,
//!   i.e. a hash join build side (also cached per relation, see
//!   [`crate::relation::Relation::group_index`]).

use crate::value::Value;
use std::hash::{Hash, Hasher};

// The hasher now lives in the storage layer (`mq-store`) so row stores,
// index caches and the shared memo service all hash with one function;
// re-exported here so kernel code and downstream users are unaffected.
pub use mq_store::{ColumnarRows, FxBuildHasher, FxHasher};

/// Hash one value with the same function as [`hash_cols`] over `[v]`.
#[inline]
pub fn hash_value(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Hash the values of `row` at `cols`, in order, without materializing the
/// projection. Two calls agree iff the projected value sequences agree
/// (regardless of which row/column layout they come from).
#[inline]
pub fn hash_cols(row: &[Value], cols: &[usize]) -> u64 {
    // Single-column keys dominate join graphs; skip the loop machinery.
    if let [c] = cols {
        return hash_value(&row[*c]);
    }
    let mut h = FxHasher::default();
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// Hash an explicit value slice with the same function as [`hash_cols`].
#[inline]
pub fn hash_vals(vals: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// Batch key hashing over column-major storage: fill `out` with the key
/// hash of every row of `store` at `cols`, agreeing exactly with
/// [`hash_cols`] on the equivalent row-major tuples.
///
/// Single-column keys hash one dense column slice end to end; wider keys
/// keep one saved hasher state per row and fold each key column across
/// the whole batch ([`FxHasher::from_state`]), so the inner loop always
/// walks contiguous memory instead of hopping row to row.
pub fn hash_columns_into(store: &ColumnarRows<Value>, cols: &[usize], out: &mut Vec<u64>) {
    out.clear();
    if let [c] = cols {
        out.extend(store.col(*c).iter().map(hash_value));
        return;
    }
    out.resize(store.len(), FxHasher::default().state());
    for &c in cols {
        for (s, v) in out.iter_mut().zip(store.col(c)) {
            let mut h = FxHasher::from_state(*s);
            v.hash(&mut h);
            *s = h.state();
        }
    }
    for s in out.iter_mut() {
        *s = FxHasher::from_state(*s).finish();
    }
}

/// Key hash of row `i` of column-major `store` at `cols`, agreeing
/// exactly with [`hash_cols`] on the equivalent row-major tuple — the
/// per-row companion of [`hash_columns_into`] for probe loops that
/// short-circuit before visiting every row.
#[inline]
pub fn hash_cols_at(store: &ColumnarRows<Value>, cols: &[usize], i: usize) -> u64 {
    if let [c] = cols {
        return hash_value(&store.col(*c)[i]);
    }
    let mut h = FxHasher::default();
    for &c in cols {
        store.col(c)[i].hash(&mut h);
    }
    h.finish()
}

const EMPTY: u32 = u32::MAX;

/// Open-addressing `(hash, id)` table with linear probing and external
/// equality. Kernels size each table for its maximum number of inserts;
/// a table filled one entry at a time grows through [`RawTable::reserve`].
#[derive(Clone)]
pub struct RawTable {
    mask: usize,
    hashes: Vec<u64>,
    ids: Vec<u32>,
    len: usize,
}

impl RawTable {
    /// A table ready to hold up to `capacity` entries at load ≤ 0.75.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(1) * 4 / 3 + 1).next_power_of_two().max(8);
        RawTable {
            mask: slots - 1,
            hashes: vec![0; slots],
            ids: vec![EMPTY; slots],
            len: 0,
        }
    }

    /// A table ready to hold up to `capacity` entries at load ≤ 0.5, for
    /// tables built once and probed mostly by misses: a linear-probe
    /// miss walks about 2.5 slots here instead of about 8 at load 0.75.
    pub fn sparse(capacity: usize) -> Self {
        RawTable::with_capacity(capacity.max(1) * 3 / 2)
    }

    /// Make room for `additional` more entries at load ≤ 0.75, at least
    /// doubling a full table and re-placing entries by their stored hash.
    pub fn reserve(&mut self, additional: usize) {
        let need = self.len + additional;
        if need > self.mask * 3 / 4 {
            let mut grown = RawTable::with_capacity(need.max(2 * self.len));
            for (&hash, &id) in self.hashes.iter().zip(&self.ids) {
                if id != EMPTY {
                    grown.insert_new(hash, id);
                }
            }
            *self = grown;
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Find the id stored under `hash` for which `eq` holds.
    #[inline]
    pub fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut slot = (hash as usize) & self.mask;
        loop {
            let id = self.ids[slot];
            if id == EMPTY {
                return None;
            }
            if self.hashes[slot] == hash && eq(id) {
                return Some(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Insert `(hash, id)`; the caller guarantees no equal key is present
    /// (probe with [`RawTable::find`] first) and that capacity suffices.
    #[inline]
    pub fn insert_new(&mut self, hash: u64, id: u32) {
        debug_assert!(self.len <= self.mask * 3 / 4 + 1, "RawTable over capacity");
        let mut slot = (hash as usize) & self.mask;
        while self.ids[slot] != EMPTY {
            slot = (slot + 1) & self.mask;
        }
        self.hashes[slot] = hash;
        self.ids[slot] = id;
        self.len += 1;
    }
}

/// Row ids of a tuple set grouped by their key at a fixed column subset —
/// a reusable hash-join build side.
///
/// Each group's key values are stored flattened inside the index
/// (`keys`), so probing is **self-contained**: no access to the original
/// row storage (and no per-probe pointer chase through boxed tuples) is
/// ever needed to compare keys.
pub struct GroupIndex {
    cols: Box<[usize]>,
    table: RawTable,
    /// group id -> first row id (groups numbered in first-seen order).
    heads: Vec<u32>,
    /// group id -> number of rows in the group.
    counts: Vec<u32>,
    /// row id -> next row id in its group (EMPTY-terminated), in row order.
    next: Vec<u32>,
    /// Flattened group keys: group `g`'s key is
    /// `keys[g * cols.len() .. (g + 1) * cols.len()]`.
    keys: Vec<Value>,
}

impl GroupIndex {
    /// Group the rows of column-major storage by their values at `cols`.
    /// Groups are numbered in first-seen order and each group's rows are
    /// kept in row order. Key hashes are computed for the whole batch in
    /// one column-wise pass ([`hash_columns_into`]) and key comparisons
    /// read dense column slices.
    pub fn build_columnar(store: &ColumnarRows<Value>, cols: &[usize]) -> Self {
        let n = store.len();
        let k = cols.len();
        let mut table = RawTable::with_capacity(n);
        let mut heads: Vec<u32> = Vec::with_capacity(n);
        let mut counts: Vec<u32> = Vec::with_capacity(n);
        let mut tails: Vec<u32> = Vec::with_capacity(n);
        let mut next = vec![EMPTY; n];
        let mut keys: Vec<Value> = Vec::with_capacity(n * k);
        if let [c] = cols {
            // Single-column key: hash and insert in one fused pass over
            // the dense key column (`keys[g]` is group `g`'s whole key).
            for (i, v) in store.col(*c).iter().enumerate() {
                let h = hash_value(v);
                match table.find(h, |g| keys[g as usize] == *v) {
                    Some(g) => {
                        let g = g as usize;
                        next[tails[g] as usize] = i as u32;
                        tails[g] = i as u32;
                        counts[g] += 1;
                    }
                    None => {
                        let g = heads.len() as u32;
                        heads.push(i as u32);
                        counts.push(1);
                        tails.push(i as u32);
                        keys.push(*v);
                        table.insert_new(h, g);
                    }
                }
            }
        } else {
            let mut hashes = Vec::new();
            hash_columns_into(store, cols, &mut hashes);
            let key_slices: Vec<&[Value]> = cols.iter().map(|&c| store.col(c)).collect();
            for (i, &h) in hashes.iter().enumerate() {
                match table.find(h, |g| {
                    let g = g as usize;
                    keys[g * k..(g + 1) * k]
                        .iter()
                        .zip(key_slices.iter())
                        .all(|(kv, col)| *kv == col[i])
                }) {
                    Some(g) => {
                        let g = g as usize;
                        next[tails[g] as usize] = i as u32;
                        tails[g] = i as u32;
                        counts[g] += 1;
                    }
                    None => {
                        let g = heads.len() as u32;
                        heads.push(i as u32);
                        counts.push(1);
                        tails.push(i as u32);
                        keys.extend(key_slices.iter().map(|col| col[i]));
                        table.insert_new(h, g);
                    }
                }
            }
        }
        GroupIndex {
            cols: cols.into(),
            table,
            heads,
            counts,
            next,
            keys,
        }
    }

    /// The key columns this index groups by.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Group `g`'s key values, in [`cols`](Self::cols) order.
    #[inline]
    pub fn group_key(&self, g: usize) -> &[Value] {
        let k = self.cols.len();
        &self.keys[g * k..(g + 1) * k]
    }

    /// Number of rows in group `g`.
    #[inline]
    pub fn group_count(&self, g: usize) -> usize {
        self.counts[g] as usize
    }

    /// Iterate group `g`'s row ids, in row order.
    #[inline]
    pub fn group_rows(&self, g: usize) -> GroupRows<'_> {
        GroupRows {
            next: &self.next,
            cur: self.heads[g],
        }
    }

    /// Number of distinct keys. Doubles as the join planner's cardinality
    /// statistic: `rows / num_groups` is the average fan-out of probing
    /// this index with one row, read off the cached index with no extra
    /// pass over the data (see `Bindings::distinct_keys`).
    pub fn num_groups(&self) -> usize {
        self.heads.len()
    }

    /// Iterate `(head_row_id, group_size)` over all distinct keys, in
    /// first-seen order.
    pub fn groups(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.heads
            .iter()
            .zip(self.counts.iter())
            .map(|(&h, &c)| (h as usize, c as usize))
    }

    /// Find the group whose key hashes to `hash` and satisfies `eq`
    /// (called with the group's stored key values, in
    /// [`cols`](Self::cols) order).
    #[inline]
    pub fn find_group(&self, hash: u64, mut eq: impl FnMut(&[Value]) -> bool) -> Option<usize> {
        let k = self.cols.len();
        self.table
            .find(hash, |g| {
                let g = g as usize;
                eq(&self.keys[g * k..(g + 1) * k])
            })
            .map(|g| g as usize)
    }

    /// Iterate the row ids whose key hashes to `hash` and satisfies `eq`
    /// (called with the group's stored key values). Empty iterator on
    /// miss.
    #[inline]
    pub fn probe(&self, hash: u64, eq: impl FnMut(&[Value]) -> bool) -> GroupRows<'_> {
        let head = self
            .find_group(hash, eq)
            .map(|g| self.heads[g])
            .unwrap_or(EMPTY);
        GroupRows {
            next: &self.next,
            cur: head,
        }
    }

    /// Probe with a key taken from `key_row` at `key_cols`.
    #[inline]
    pub fn probe_cols<'a>(&'a self, key_row: &[Value], key_cols: &[usize]) -> GroupRows<'a> {
        let h = hash_cols(key_row, key_cols);
        self.probe(h, |gkey| {
            gkey.iter()
                .zip(key_cols.iter())
                .all(|(kv, &c)| *kv == key_row[c])
        })
    }

    /// Probe with an already-projected key (values in
    /// [`cols`](Self::cols) order — e.g. another index's
    /// [`group_key`](Self::group_key)); returns `(group_id, size)`.
    #[inline]
    pub fn probe_group_key(&self, key: &[Value]) -> Option<(usize, usize)> {
        let h = hash_vals(key);
        self.find_group(h, |gkey| gkey == key)
            .map(|g| (g, self.counts[g] as usize))
    }
}

/// Iterator over one group's row ids, in row order.
pub struct GroupRows<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for GroupRows<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.cur == EMPTY {
            return None;
        }
        let out = self.cur as usize;
        self.cur = self.next[out];
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ints;

    #[test]
    fn hash_cols_matches_hash_vals() {
        let row = ints(&[7, 8, 9]);
        let proj = ints(&[9, 7]);
        assert_eq!(hash_cols(&row, &[2, 0]), hash_vals(&proj));
    }

    #[test]
    fn hash_distinguishes_int_and_sym() {
        use crate::symbol::SymbolTable;
        let mut t = SymbolTable::new();
        let s = t.intern("x"); // symbol index 0
        let a = [Value::Int(0)];
        let b = [Value::Sym(s)];
        assert_ne!(hash_vals(&a), hash_vals(&b));
    }

    #[test]
    fn raw_table_find_insert() {
        let mut t = RawTable::with_capacity(100);
        for i in 0..100u32 {
            let h = (i as u64) % 7; // force heavy collisions
            assert_eq!(t.find(h, |id| id == i), None);
            t.insert_new(h, i);
        }
        assert_eq!(t.len(), 100);
        for i in 0..100u32 {
            let h = (i as u64) % 7;
            assert_eq!(t.find(h, |id| id == i), Some(i));
        }
        assert_eq!(t.find(3, |_| false), None);
    }

    #[test]
    fn raw_table_reserve_grows_and_keeps_entries() {
        let mut t = RawTable::with_capacity(0);
        for i in 0..1000u32 {
            let h = u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            t.reserve(1);
            t.insert_new(h, i);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u32 {
            let h = u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(t.find(h, |id| id == i), Some(i));
        }
    }

    #[test]
    fn group_index_groups_in_row_order() {
        let rows = vec![
            ints(&[1, 10]),
            ints(&[2, 20]),
            ints(&[1, 30]),
            ints(&[1, 40]),
        ];
        let idx = GroupIndex::build_columnar(&ColumnarRows::from_rows(2, &rows), &[0]);
        assert_eq!(idx.num_groups(), 2);
        let key = ints(&[1]);
        let got: Vec<usize> = idx.probe_cols(&key, &[0]).collect();
        assert_eq!(got, vec![0, 2, 3]);
        let missing = ints(&[9]);
        assert_eq!(idx.probe_cols(&missing, &[0]).count(), 0);
    }

    #[test]
    fn group_index_probe_foreign_layout() {
        // Probe with the key at different positions of a wider row.
        let rows = vec![ints(&[1, 2]), ints(&[3, 4])];
        let idx = GroupIndex::build_columnar(&ColumnarRows::from_rows(2, &rows), &[1]);
        let probe_row = ints(&[9, 9, 4]);
        let got: Vec<usize> = idx.probe_cols(&probe_row, &[2]).collect();
        assert_eq!(got, vec![1]);
    }

    #[test]
    fn group_index_is_self_contained() {
        let store = ColumnarRows::from_rows(2, &[ints(&[1, 10]), ints(&[2, 20]), ints(&[1, 30])]);
        let idx = GroupIndex::build_columnar(&store, &[0, 1]);
        drop(store); // probes never touch the original storage
        assert_eq!(idx.probe_group_key(&ints(&[1, 30])), Some((2, 1)));
        assert_eq!(idx.probe_group_key(&ints(&[1, 99])), None);
        assert_eq!(idx.group_key(0), &*ints(&[1, 10]));
        assert_eq!(idx.group_count(0), 1);
        assert_eq!(idx.group_rows(0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn hash_columns_matches_hash_cols() {
        let rows = vec![ints(&[1, 2, 3]), ints(&[4, 5, 6]), ints(&[1, 5, 9])];
        let store = ColumnarRows::from_rows(3, &rows);
        for cols in [&[0usize][..], &[2, 0], &[0, 1, 2], &[]] {
            let mut batch = Vec::new();
            hash_columns_into(&store, cols, &mut batch);
            let one_shot: Vec<u64> = rows.iter().map(|r| hash_cols(r, cols)).collect();
            assert_eq!(batch, one_shot, "cols {cols:?}");
        }
    }
}
