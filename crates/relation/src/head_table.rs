//! The `findHeads` count op: `|b|` and the cover and confidence
//! numerators of every head instantiation of a search against one body
//! join `b`, in one pass over the body — without building `b`.
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
//! * the body arrives as the two inputs of its last join,
//!   `b = left ⋈ right`, and is **streamed, not built**:
//!   [`HeadTable::count`] pairs the rows through the smaller side's
//!   cached group index on the shared variables (the one
//!   [`Bindings::join`] builds) and gathers no output column. A body
//!   that is already one relation is counted as `b ⋈ unit`;
//! * each row pair's key hash resumes a per-row partial hash state of
//!   the side holding the key's leading variables and folds in the
//!   rest, bit-identical to hashing `b`'s key columns; a pair whose
//!   filter bit is clear is skipped, the rest probe the table and bump
//!   the hit entry's multiplicity; each touched entry then folds into
//!   its members: `body_hits += multiplicity` and
//!   `head_hits += head rows with the key`. Per-pair work is O(1)
//!   whatever the number of heads;
//! * a head sharing no variable with the bodies keeps the semijoin
//!   semantics: `h ⋉ b` keeps all of `h` iff `b` is non-empty, and
//!   symmetrically.
//!
//! The table is immutable once built, so every worker of a search shares
//! one. Each worker owns a [`HeadScratch`] (hashes, groups, partial
//! states, multiplicities, touched entries, output) reused across
//! bodies, so counting a body allocates nothing once the scratch has
//! grown (`tests/no_alloc_kernels.rs`).

use crate::algebra::{Bindings, VarId};
use crate::hashjoin::{self, FxHasher, GroupIndex, RawTable};
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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

    /// The entry whose key hashes to `hash` and satisfies `eq` (called
    /// with the entry's key values, in key order), behind the filter.
    #[inline]
    fn find(&self, hash: u64, eq: impl Fn(&[Value]) -> bool) -> Option<u32> {
        let b = (hash >> self.filter_shift) as usize;
        if self.filter[b / 64] & (1 << (b % 64)) == 0 {
            return None;
        }
        let k = self.key.len();
        self.table.find(hash, |e| {
            eq(&self.keys[e as usize * k..(e as usize + 1) * k])
        })
    }

    /// Stream the body `join` once, adding every member head's counts
    /// into `scratch.out`.
    ///
    /// Each key variable is read from the **home** side — the side
    /// binding the longer leading run of the key — when it binds it, and
    /// from the other side otherwise. When home binds the whole key, one
    /// probe per home row decides every row pair it joins into; a probe
    /// row that hits adds its join fan-out at once. Otherwise home's
    /// rows carry a partial hash state over the key's leading run, and
    /// each row pair folds the remaining key values into it, which
    /// reproduces [`hashjoin::hash_columns_into`] over the body's key
    /// columns bit for bit.
    fn count(&self, join: &Join, scratch: &mut HeadScratch) {
        let HeadScratch {
            groups,
            loc,
            cols,
            states,
            ents,
            mult,
            touched,
            out,
            ..
        } = scratch;
        let (bc, pc) = (join.build.columnar(), join.probe.columnar());
        let lead = |side: &Bindings| {
            self.key
                .iter()
                .take_while(|&&v| side.position(v).is_some())
                .count()
        };
        let home_probe = lead(join.probe) >= lead(join.build);
        let (home, away) = if home_probe {
            (join.probe, join.build)
        } else {
            (join.build, join.probe)
        };
        loc.clear();
        loc.extend(self.key.iter().map(|&v| match home.position(v) {
            Some(c) => (home_probe, c),
            None => (
                !home_probe,
                away.position(v).expect("body binds every head key"),
            ),
        }));
        let run = loc.iter().take_while(|l| l.0 == home_probe).count();
        cols.clear();
        cols.extend(loc[..run].iter().map(|l| l.1));
        if mult.len() < self.entries() {
            mult.resize(self.entries(), 0);
        }
        let mut bump = |e: u32, by: usize| {
            let m = &mut mult[e as usize];
            if *m == 0 {
                touched.push(e);
            }
            *m += by;
        };
        let home_store = home.columnar();
        if run == loc.len() {
            // Home binds the whole key: resolve each home row once.
            hashjoin::hash_columns_into(home_store, cols, states);
            ents.clear();
            ents.extend(states.iter().enumerate().map(|(i, &hash)| {
                self.find(hash, |key| {
                    key.iter()
                        .zip(cols.iter())
                        .all(|(kv, &c)| *kv == home_store.col(c)[i])
                })
                .unwrap_or(NONE)
            }));
            if home_probe {
                join.for_each_probe(groups, |pi, fanout| {
                    if ents[pi] != NONE {
                        bump(ents[pi], fanout);
                    }
                });
            } else {
                join.for_each_pair(groups, |bi, _| {
                    if ents[bi] != NONE {
                        bump(ents[bi], 1);
                    }
                });
            }
        } else {
            // The key spans both sides: fold the rest per row pair.
            hashjoin::fold_columns_into(home_store, cols, states);
            let rest = &loc[run..];
            if let [(_, c)] = *rest {
                // One away value per pair — a chain's head key — with
                // its column hoisted out of the pair loop.
                let away_col = if home_probe { bc.col(c) } else { pc.col(c) };
                join.for_each_pair(groups, |bi, pi| {
                    let (hr, ar) = if home_probe { (pi, bi) } else { (bi, pi) };
                    let mut h = FxHasher::from_state(states[hr]);
                    away_col[ar].hash(&mut h);
                    let found = self.find(h.finish(), |key| {
                        key[run] == away_col[ar]
                            && key[..run]
                                .iter()
                                .zip(cols.iter())
                                .all(|(kv, &c)| *kv == home_store.col(c)[hr])
                    });
                    if let Some(e) = found {
                        bump(e, 1);
                    }
                });
            } else {
                let value = |(on_probe, c): (bool, usize), bi: usize, pi: usize| {
                    if on_probe {
                        &pc.col(c)[pi]
                    } else {
                        &bc.col(c)[bi]
                    }
                };
                join.for_each_pair(groups, |bi, pi| {
                    let mut h = FxHasher::from_state(states[if home_probe { pi } else { bi }]);
                    for &l in rest {
                        value(l, bi, pi).hash(&mut h);
                    }
                    let found = self.find(h.finish(), |key| {
                        key.iter()
                            .zip(loc.iter())
                            .all(|(kv, &l)| kv == value(l, bi, pi))
                    });
                    if let Some(e) = found {
                        bump(e, 1);
                    }
                });
            }
        }
        for e in touched.drain(..) {
            let e = e as usize;
            let m = std::mem::take(&mut mult[e]);
            let range = self.starts[e] as usize..self.starts[e + 1] as usize;
            for &(head, n) in &self.members[range] {
                let out = &mut out[head as usize];
                out.body_hits += m;
                out.head_hits += n as usize;
            }
        }
    }
}

/// No entry, or no build group.
const NONE: u32 = u32::MAX;

/// A body given as the natural join `build ⋈ probe`, paired row by row
/// but never gathered into output columns.
struct Join<'b> {
    build: &'b Bindings,
    probe: &'b Bindings,
    /// The build side's group index on the shared variables — the one
    /// [`Bindings::join`] builds and caches; `None` for a cross product.
    index: Option<Arc<GroupIndex>>,
}

impl<'b> Join<'b> {
    /// Pair `left ⋈ right` with the smaller side building, as
    /// [`Bindings::join`] does: fill `scratch.groups` with every probe
    /// row's build group and return `|left ⋈ right|`.
    fn pair(left: &'b Bindings, right: &'b Bindings, scratch: &mut HeadScratch) -> (Self, usize) {
        let (build, probe) = if left.len() > right.len() {
            (right, left)
        } else {
            (left, right)
        };
        let HeadScratch {
            cols,
            probe_cols,
            hashes,
            groups,
            ..
        } = scratch;
        cols.clear();
        probe_cols.clear();
        for (i, &v) in build.vars().iter().enumerate() {
            if let Some(p) = probe.position(v) {
                cols.push(i);
                probe_cols.push(p);
            }
        }
        groups.clear();
        if cols.is_empty() {
            let join = Join {
                build,
                probe,
                index: None,
            };
            return (join, build.len() * probe.len());
        }
        let index = build.binding_index(cols);
        let pc = probe.columnar();
        hashjoin::hash_columns_into(pc, probe_cols, hashes);
        let mut rows = 0;
        groups.extend(hashes.iter().enumerate().map(|(i, &hash)| {
            let found = index.find_group(hash, |key| {
                key.iter()
                    .zip(probe_cols.iter())
                    .all(|(kv, &c)| *kv == pc.col(c)[i])
            });
            match found {
                Some(g) => {
                    rows += index.group_count(g);
                    g as u32
                }
                None => NONE,
            }
        }));
        let join = Join {
            build,
            probe,
            index: Some(index),
        };
        (join, rows)
    }

    /// Visit every probe row that joins, with the number of build rows
    /// it joins.
    #[inline]
    fn for_each_probe(&self, groups: &[u32], mut f: impl FnMut(usize, usize)) {
        match &self.index {
            None => (0..self.probe.len()).for_each(|pi| f(pi, self.build.len())),
            Some(index) => {
                for (pi, &g) in groups.iter().enumerate() {
                    if g != NONE {
                        f(pi, index.group_count(g as usize));
                    }
                }
            }
        }
    }

    /// Visit every joined `(build row, probe row)` pair.
    #[inline]
    fn for_each_pair(&self, groups: &[u32], mut f: impl FnMut(usize, usize)) {
        match &self.index {
            None => {
                for pi in 0..self.probe.len() {
                    (0..self.build.len()).for_each(|bi| f(bi, pi));
                }
            }
            Some(index) => {
                for (pi, &g) in groups.iter().enumerate() {
                    if g != NONE {
                        index.group_rows(g as usize).for_each(|bi| f(bi, pi));
                    }
                }
            }
        }
    }
}

/// Every head instantiation of a search merged into one immutable count
/// structure: one key table per distinct shared key, plus the heads
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

    /// The keys with at least one head row: a non-empty body streams
    /// once per such key.
    pub fn live_keys(&self) -> usize {
        self.tables.iter().filter(|t| t.entries() > 0).count()
    }

    /// Count every head against the body `b = left ⋈ right` without
    /// building `b`: afterwards `scratch.counts()[i]` is
    /// `(|h_i ⋉ b|, |b ⋉ h_i|)`. Returns `|b|`. A body that is already
    /// one relation is counted as `b ⋈ unit`
    /// ([`Bindings::unit`]).
    ///
    /// # Panics
    /// Panics if the body does not bind every variable of some key.
    pub fn count(&self, left: &Bindings, right: &Bindings, scratch: &mut HeadScratch) -> usize {
        let (join, body_len) = Join::pair(left, right, scratch);
        scratch.out.clear();
        scratch
            .out
            .resize(self.head_lens.len(), HeadCounts::default());
        for &i in &self.unkeyed {
            let h = self.head_lens[i as usize];
            scratch.out[i as usize] = HeadCounts {
                head_hits: if body_len == 0 { 0 } else { h },
                body_hits: if h == 0 { 0 } else { body_len },
            };
        }
        if body_len > 0 {
            for t in self.tables.iter().filter(|t| t.entries() > 0) {
                t.count(&join, scratch);
            }
        }
        body_len
    }
}

/// A worker's reusable buffers for [`HeadTable::count`]; holds the last
/// body's counts.
#[derive(Default)]
pub struct HeadScratch {
    /// Build-side join columns, then one key table's home columns.
    cols: Vec<usize>,
    /// Probe-side join columns.
    probe_cols: Vec<usize>,
    /// Probe-row join-key hashes.
    hashes: Vec<u64>,
    /// Per probe row: its build group, or `NONE`.
    groups: Vec<u32>,
    /// Per key variable: `(read from the probe side, column)`.
    loc: Vec<(bool, usize)>,
    /// Per home row: its key hash, or its partial state over the key's
    /// leading run.
    states: Vec<u64>,
    /// Per home row binding the whole key: its entry, or `NONE`.
    ents: Vec<u32>,
    /// Per entry of the table being counted: row pairs hitting it so far
    /// (all zero between counts).
    mult: Vec<usize>,
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
        let unit = Bindings::unit();
        assert_eq!(table.count(&body, &unit, &mut scratch), 3);
        let want = |head_hits, body_hits| HeadCounts {
            head_hits,
            body_hits,
        };
        assert_eq!(scratch.counts(), &[want(2, 2), want(1, 2)]);
        // Multiplicities reset between bodies.
        assert_eq!(table.count(&unit, &body, &mut scratch), 3);
        assert_eq!(scratch.counts(), &[want(2, 2), want(1, 2)]);
    }

    #[test]
    fn unkeyed_heads_keep_semijoin_semantics() {
        let h = rel(&[8, 9], &[&[1, 2]]);
        let empty_h = Bindings::empty(vec![v(8)]);
        let table = HeadTable::build(&[&h, &empty_h], &[v(0)]);
        assert_eq!(table.keys().count(), 0);
        let mut scratch = HeadScratch::new();
        let unit = Bindings::unit();
        assert_eq!(
            table.count(&rel(&[0], &[&[1], &[2]]), &unit, &mut scratch),
            2
        );
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
        table.count(&Bindings::empty(vec![v(0)]), &unit, &mut scratch);
        assert_eq!(scratch.counts(), &[HeadCounts::default(); 2]);
    }

    /// Distinct random rows over `vars` with values in `0..dom`.
    fn random_rel(rng: &mut rand::StdRng, vars: &[u32], rows: usize, dom: i64) -> Bindings {
        use rand::Rng;
        let set: std::collections::BTreeSet<Vec<i64>> = (0..rows)
            .map(|_| vars.iter().map(|_| rng.gen_range(0..dom)).collect())
            .collect();
        let rows: Vec<Vec<i64>> = set.into_iter().collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        rel(vars, &refs)
    }

    /// The streamed count of `left ⋈ right` against `heads` equals the
    /// count of the materialized oracle join `b` (as `b ⋈ unit`), and
    /// both equal the oracle semijoin counts; `|b|` agrees too.
    fn check_streamed(heads: &[Bindings], left: &Bindings, right: &Bindings) {
        use crate::algebra::baseline;
        let mut body_vars: Vec<VarId> = left.vars().to_vec();
        body_vars.extend(right.vars().iter().filter(|v| left.position(**v).is_none()));
        let refs: Vec<&Bindings> = heads.iter().collect();
        let table = HeadTable::build(&refs, &body_vars);
        let b = baseline::join(left, right);
        let mut scratch = HeadScratch::new();
        let materialized = table.count(&b, &Bindings::unit(), &mut scratch);
        let want = scratch.counts().to_vec();
        for (l, r) in [(left, right), (right, left)] {
            assert_eq!(table.count(l, r, &mut scratch), materialized);
            assert_eq!(
                scratch.counts(),
                &want[..],
                "{:?} ⋈ {:?}",
                l.vars(),
                r.vars()
            );
        }
        assert_eq!(materialized, b.len());
        for (h, got) in heads.iter().zip(&want) {
            let oracle = (
                baseline::semijoin(h, &b).len(),
                baseline::semijoin(&b, h).len(),
            );
            assert_eq!(
                (got.head_hits, got.body_hits),
                oracle,
                "head over {:?}",
                h.vars()
            );
        }
    }

    #[test]
    fn streamed_counts_match_the_materialized_body() {
        use rand::SeedableRng;
        let mut rng = rand::StdRng::seed_from_u64(20);
        for round in 0..60 {
            // Sides of unequal sizes, so either one builds; every tenth
            // round one side is empty.
            let (small, large) = if round % 10 == 9 { (0, 24) } else { (6, 24) };
            let (nl, nr) = if round % 2 == 0 {
                (small, large)
            } else {
                (large, small)
            };
            let dom = 2 + round as i64 % 4;
            let mut rel_over = |vars: &[u32], n: usize| random_rel(&mut rng, vars, n, dom);
            let heads = [
                rel_over(&[0, 2], 12), // key [X,Z] across a chain's two sides
                rel_over(&[2, 0], 12), // the same key, other column order
                rel_over(&[1], 4),     // a second key, Y, on both sides
                rel_over(&[0, 8], 8),  // key [X]: wholly on one side
                rel_over(&[8, 9], 3),  // unkeyed
                Bindings::empty(vec![v(9)]),
            ];
            // Chain P(X,Y), Q(Y,Z).
            let (p, q) = (rel_over(&[0, 1], nl), rel_over(&[1, 2], nr));
            check_streamed(&heads, &p, &q);
            // Disconnected body P(X), Q(Y): a cross product.
            let (px, qy) = (rel_over(&[0], nl), rel_over(&[1], nr));
            check_streamed(&heads[2..], &px, &qy);
            check_streamed(&[rel_over(&[0, 1], 12)], &px, &qy);
            // Key [A,B,C] read A, C from one side and B from the other
            // (switching sides twice), joined on S.
            let (l, r) = (rel_over(&[0, 2, 5], nl), rel_over(&[5, 1], nr));
            check_streamed(
                &[rel_over(&[0, 1, 2], 16), rel_over(&[2, 1, 0], 16)],
                &l,
                &r,
            );
        }
    }
}
