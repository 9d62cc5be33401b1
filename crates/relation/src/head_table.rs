//! The `findHeads` count op: cover and confidence numerators of every
//! head instantiation of a search against one body join, in one pass
//! over the body.
//!
//! `findHeads` (Figure 4) checks every head instantiation `h` against the
//! body join `b` with two counts, `|h ⋉ b|` (cover) and `|b ⋉ h|`
//! (confidence). The heads are the same few atoms for every body of a
//! search, while each `b` is fresh, large, and its keys almost never hit a
//! head. So the heads are merged once into a [`HeadTable`] and each body
//! is streamed against it once:
//!
//! * the **key** of a head is the variables it shares with the bodies,
//!   **sorted by `VarId`**, so heads binding the same variables in any
//!   column order share it; heads are grouped by key and each distinct
//!   key gets its own table (in `findRules` every head has the same key);
//! * a key's table maps each distinct key value to its **members** —
//!   `(head, rows of that head with the key)` pairs stored CSR-style —
//!   through an open-addressing table at load ≤ 0.5, fronted by a
//!   one-bit-per-bucket **filter** of about 8 bits per key, indexed by the
//!   hash's high bits (the table's slots use the low bits);
//! * [`HeadTable::count`] hashes the body's key columns once, skips every
//!   row whose filter bit is clear, probes the table for the rest and
//!   bumps the hit entry's multiplicity; each touched entry then folds
//!   into its members: `body_hits += multiplicity` and
//!   `head_hits += head rows with the key`. Per-row work is O(1) whatever
//!   the number of heads;
//! * a head sharing no variable with the bodies keeps the semijoin
//!   semantics: `h ⋉ b` keeps all of `h` iff `b` is non-empty, and
//!   symmetrically.
//!
//! The table is immutable once built, so every worker of a search shares
//! one. Each worker owns a [`HeadScratch`] (hashes, multiplicities,
//! touched entries, output) reused across bodies, so counting a body
//! allocates nothing once the scratch has grown
//! (`tests/no_alloc_kernels.rs`).

use crate::algebra::{Bindings, VarId};
use crate::hashjoin::{self, RawTable};
use crate::value::Value;

/// Both semijoin counts of one head against one body join.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeadCounts {
    /// `|h ⋉ b|` — the cover numerator.
    pub head_hits: usize,
    /// `|b ⋉ h|` — the confidence numerator.
    pub body_hits: usize,
}

/// The heads sharing one key, merged: distinct key value → members.
struct KeyTable {
    /// The shared variables, sorted.
    key: Vec<VarId>,
    /// Filter buckets, one bit each; bucket = `hash >> filter_shift`.
    filter: Vec<u64>,
    filter_shift: u32,
    /// Key hash → entry id.
    table: RawTable,
    /// Flattened entry keys: entry `e`'s key is `keys[e * k..(e + 1) * k]`.
    keys: Vec<Value>,
    /// Entry `e`'s members are `members[starts[e]..starts[e + 1]]`.
    starts: Vec<u32>,
    /// `(head, rows of that head with the entry's key)`, in head order
    /// within an entry.
    members: Vec<(u32, u32)>,
}

impl KeyTable {
    /// Merge `heads` (`(head id, relation)`, every relation binding all
    /// of `key`) into one table.
    fn build(key: Vec<VarId>, heads: &[(u32, &Bindings)]) -> KeyTable {
        let k = key.len();
        let rows: usize = heads.iter().map(|(_, h)| h.len()).sum();
        let mut table = RawTable::sparse(rows);
        let mut keys: Vec<Value> = Vec::with_capacity(rows * k);
        let mut entry_hashes: Vec<u64> = Vec::with_capacity(rows);
        // (entry, head, rows) in head order, and each entry's latest pair.
        let mut pairs: Vec<(u32, u32, u32)> = Vec::with_capacity(rows);
        let mut latest: Vec<usize> = Vec::with_capacity(rows);
        let mut cols: Vec<usize> = Vec::with_capacity(k);
        let mut hashes = Vec::new();
        for &(head, h) in heads {
            cols.clear();
            cols.extend(
                key.iter()
                    .map(|&v| h.position(v).expect("head binds its key")),
            );
            let store = h.columnar();
            hashjoin::hash_columns_into(store, &cols, &mut hashes);
            for (i, &hash) in hashes.iter().enumerate() {
                let found = table.find(hash, |e| {
                    let e = e as usize;
                    keys[e * k..(e + 1) * k]
                        .iter()
                        .zip(&cols)
                        .all(|(kv, &c)| *kv == store.col(c)[i])
                });
                let e = found.unwrap_or_else(|| {
                    let e = entry_hashes.len() as u32;
                    table.insert_new(hash, e);
                    keys.extend(cols.iter().map(|&c| store.col(c)[i]));
                    entry_hashes.push(hash);
                    latest.push(usize::MAX);
                    e
                });
                match pairs.get_mut(latest[e as usize]) {
                    Some(p) if p.1 == head => p.2 += 1,
                    _ => {
                        latest[e as usize] = pairs.len();
                        pairs.push((e, head, 1));
                    }
                }
            }
        }
        // CSR by entry: a stable counting sort keeps head order.
        let entries = entry_hashes.len();
        let mut starts = vec![0u32; entries + 1];
        for &(e, _, _) in &pairs {
            starts[e as usize + 1] += 1;
        }
        for e in 0..entries {
            starts[e + 1] += starts[e];
        }
        let mut fill: Vec<u32> = starts[..entries].to_vec();
        let mut members = vec![(0u32, 0u32); pairs.len()];
        for &(e, head, n) in &pairs {
            members[fill[e as usize] as usize] = (head, n);
            fill[e as usize] += 1;
        }
        let buckets = (entries * 8).next_power_of_two().max(64);
        let filter_shift = 64 - buckets.trailing_zeros();
        let mut filter = vec![0u64; buckets / 64];
        for &hash in &entry_hashes {
            let b = (hash >> filter_shift) as usize;
            filter[b / 64] |= 1 << (b % 64);
        }
        KeyTable {
            key,
            filter,
            filter_shift,
            table,
            keys,
            starts,
            members,
        }
    }

    fn entries(&self) -> usize {
        self.starts.len() - 1
    }

    /// Stream `body`'s rows once, adding every member head's counts
    /// into `scratch.out`.
    fn count(&self, body: &Bindings, scratch: &mut HeadScratch) {
        let k = self.key.len();
        let store = body.columnar();
        scratch.cols.clear();
        scratch.cols.extend(
            self.key
                .iter()
                .map(|&v| body.position(v).expect("body binds every head key")),
        );
        let cols = &scratch.cols;
        hashjoin::hash_columns_into(store, cols, &mut scratch.hashes);
        if scratch.mult.len() < self.entries() {
            scratch.mult.resize(self.entries(), 0);
        }
        let mult = &mut scratch.mult;
        for (i, &hash) in scratch.hashes.iter().enumerate() {
            let b = (hash >> self.filter_shift) as usize;
            if self.filter[b / 64] & (1 << (b % 64)) == 0 {
                continue;
            }
            let found = self.table.find(hash, |e| {
                let e = e as usize;
                self.keys[e * k..(e + 1) * k]
                    .iter()
                    .zip(cols)
                    .all(|(kv, &c)| *kv == store.col(c)[i])
            });
            if let Some(e) = found {
                let m = &mut mult[e as usize];
                if *m == 0 {
                    scratch.touched.push(e);
                }
                *m += 1;
            }
        }
        for e in scratch.touched.drain(..) {
            let e = e as usize;
            let m = std::mem::take(&mut mult[e]) as usize;
            let range = self.starts[e] as usize..self.starts[e + 1] as usize;
            for &(head, n) in &self.members[range] {
                let out = &mut scratch.out[head as usize];
                out.body_hits += m;
                out.head_hits += n as usize;
            }
        }
    }
}

/// Every head instantiation of a search merged into one immutable count
/// structure: one [`KeyTable`] per distinct shared key, plus the heads
/// that share no variable with the bodies (see the module docs).
pub struct HeadTable {
    tables: Vec<KeyTable>,
    /// Heads sharing no variable with the bodies.
    unkeyed: Vec<u32>,
    /// Per head: its number of rows.
    head_lens: Vec<usize>,
}

impl HeadTable {
    /// Merge `heads` into one table. `body_vars` must hold every variable
    /// a body counted against the table may bind: a head's key is its
    /// variables found there, and every body must bind all of them.
    pub fn build(heads: &[&Bindings], body_vars: &[VarId]) -> HeadTable {
        // (key, its heads as `(head id, relation)`), in first-seen order.
        type KeyGroup<'h> = (Vec<VarId>, Vec<(u32, &'h Bindings)>);
        let mut by_key: Vec<KeyGroup> = Vec::new();
        let mut unkeyed = Vec::new();
        for (i, &h) in heads.iter().enumerate() {
            let mut key: Vec<VarId> = h
                .vars()
                .iter()
                .copied()
                .filter(|v| body_vars.contains(v))
                .collect();
            if key.is_empty() {
                unkeyed.push(i as u32);
                continue;
            }
            key.sort_unstable();
            match by_key.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push((i as u32, h)),
                None => by_key.push((key, vec![(i as u32, h)])),
            }
        }
        HeadTable {
            tables: by_key
                .into_iter()
                .map(|(key, members)| KeyTable::build(key, &members))
                .collect(),
            unkeyed,
            head_lens: heads.iter().map(|h| h.len()).collect(),
        }
    }

    /// Rows of head `i` (the cover denominator).
    pub fn head_len(&self, i: usize) -> usize {
        self.head_lens[i]
    }

    /// The distinct shared keys, one per merged table, in first-seen
    /// head order.
    pub fn keys(&self) -> impl Iterator<Item = &[VarId]> + '_ {
        self.tables.iter().map(|t| t.key.as_slice())
    }

    /// Count every head against `body` in one pass per key: afterwards
    /// `scratch.counts()[i]` is `(|h_i ⋉ body|, |body ⋉ h_i|)`. Returns
    /// the body rows streamed — `body.len()` per key with at least one
    /// head row.
    ///
    /// # Panics
    /// Panics if `body` does not bind every variable of some key.
    pub fn count(&self, body: &Bindings, scratch: &mut HeadScratch) -> usize {
        scratch.out.clear();
        scratch
            .out
            .resize(self.head_lens.len(), HeadCounts::default());
        for &i in &self.unkeyed {
            let (h, b) = (self.head_lens[i as usize], body.len());
            scratch.out[i as usize] = HeadCounts {
                head_hits: if b == 0 { 0 } else { h },
                body_hits: if h == 0 { 0 } else { b },
            };
        }
        if body.is_empty() {
            return 0;
        }
        let mut streamed = 0;
        for t in self.tables.iter().filter(|t| t.entries() > 0) {
            t.count(body, scratch);
            streamed += body.len();
        }
        streamed
    }
}

/// A worker's reusable buffers for [`HeadTable::count`]; holds the last
/// body's counts.
#[derive(Default)]
pub struct HeadScratch {
    cols: Vec<usize>,
    hashes: Vec<u64>,
    /// Per entry of the table being counted: hits so far (all zero
    /// between counts).
    mult: Vec<u32>,
    touched: Vec<u32>,
    out: Vec<HeadCounts>,
}

impl HeadScratch {
    /// Empty buffers; they grow to the largest body and table counted.
    pub fn new() -> Self {
        HeadScratch::default()
    }

    /// Per head, in [`HeadTable::build`] order: the counts of the last
    /// [`HeadTable::count`].
    pub fn counts(&self) -> &[HeadCounts] {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ints;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn rel(vars: &[u32], rows: &[&[i64]]) -> Bindings {
        Bindings::from_parts(
            vars.iter().map(|&i| v(i)).collect(),
            rows.iter().map(|r| ints(r)).collect(),
        )
    }

    #[test]
    fn one_entry_folds_into_every_member() {
        // Two heads share key value X=1; the body has it twice.
        let h1 = rel(&[0, 5], &[&[1, 0], &[1, 1], &[2, 0]]);
        let h2 = rel(&[0], &[&[1], &[3]]);
        let body = rel(&[0, 1], &[&[1, 7], &[1, 8], &[4, 0]]);
        let table = HeadTable::build(&[&h1, &h2], &[v(0), v(1)]);
        assert_eq!(table.keys().collect::<Vec<_>>(), vec![&[v(0)][..]]);
        let mut scratch = HeadScratch::new();
        assert_eq!(table.count(&body, &mut scratch), 3);
        let want = |head_hits, body_hits| HeadCounts {
            head_hits,
            body_hits,
        };
        assert_eq!(scratch.counts(), &[want(2, 2), want(1, 2)]);
        // Multiplicities reset between bodies.
        assert_eq!(table.count(&body, &mut scratch), 3);
        assert_eq!(scratch.counts(), &[want(2, 2), want(1, 2)]);
    }

    #[test]
    fn unkeyed_heads_keep_semijoin_semantics() {
        let h = rel(&[8, 9], &[&[1, 2]]);
        let empty_h = Bindings::empty(vec![v(8)]);
        let table = HeadTable::build(&[&h, &empty_h], &[v(0)]);
        assert_eq!(table.keys().count(), 0);
        let mut scratch = HeadScratch::new();
        assert_eq!(table.count(&rel(&[0], &[&[1], &[2]]), &mut scratch), 0);
        assert_eq!(
            scratch.counts(),
            &[
                HeadCounts {
                    head_hits: 1,
                    body_hits: 2
                },
                HeadCounts::default()
            ]
        );
        table.count(&Bindings::empty(vec![v(0)]), &mut scratch);
        assert_eq!(scratch.counts(), &[HeadCounts::default(); 2]);
    }
}
