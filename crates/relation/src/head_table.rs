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
//!   **register-blocked Bloom filter** (Putze, Sanders & Singler, WEA
//!   2007) of about 16 bits per key: a key sets three bits of one `u64`
//!   word chosen by the hash's high bits, so a test is one load and one
//!   compare (the table's slots use the hash's low bits);
//! * a key's hash is **separable**: the XOR over key positions `i` of
//!   `part(i, v_i)`, the avalanched FxHash of the value seeded by `i`.
//!   The body arrives as the two inputs of its last join,
//!   `b = left ⋈ right`, and is **streamed, not built**:
//!   [`HeadTable::count`] pairs the rows through whichever side already
//!   has a group index on the shared variables cached — both sides'
//!   indexes pair group against group, one probe per distinct key —
//!   building the smaller side's only when neither has one, and gathers
//!   no output column. A body that is already one relation is counted
//!   as `b ⋈ unit`;
//! * when one side binds the whole key, each of its rows is hashed and
//!   probed once and a hit counts every pair the row joins into.
//!   Otherwise each side XORs the parts it binds once per row, so a row
//!   pair's hash is one XOR; a pair whose filter bits are not all set
//!   is skipped, the rest probe the table (which compares the key
//!   values) and bump the hit entry's multiplicity. When both sides are
//!   grouped, the pair loop runs block by block: one build group's
//!   `(part, row)` is gathered once per matched group pair and every
//!   probe row of the partner group tests the filter over that
//!   contiguous block, buffering the passing pairs; the table is probed
//!   for them after the loop. Each touched entry then folds into its
//!   members: `body_hits += multiplicity` and
//!   `head_hits += head rows with the key`. Per-pair work is O(1)
//!   whatever the number of heads;
//! * a head sharing no variable with the bodies keeps the semijoin
//!   semantics: `h ⋉ b` keeps all of `h` iff `b` is non-empty, and
//!   symmetrically.
//!
//! The table is immutable once built, so every worker of a search shares
//! one. Each worker owns a [`HeadScratch`] (hashes, groups, per-side
//! parts, blocks, passing pairs, multiplicities, touched entries,
//! output) reused across bodies, so counting a body allocates nothing
//! once the scratch has grown (`tests/no_alloc_kernels.rs`).

use crate::algebra::{Bindings, VarId};
use crate::hashjoin::{self, ColumnarRows, FxHasher, GroupIndex, RawTable};
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

/// The seed of key position `i`'s [`part`]s.
fn seed(i: usize) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(i);
    h.state()
}

/// A key value's share of its key's hash at the position whose
/// [`seed`] is `seed`: a key hashes to the XOR of its positions' parts.
#[inline]
fn part(seed: u64, v: &Value) -> u64 {
    let mut h = FxHasher::from_state(seed);
    v.hash(&mut h);
    h.finish()
}

/// Fill `out` with one word per row of `store`: the XOR of the parts of
/// its values at the `(key position, column)` pairs `at`. That is the
/// row's key hash when `at` covers the whole key, and its side's share
/// of a row pair's hash otherwise.
fn parts_into(
    store: &ColumnarRows<Value>,
    at: impl Iterator<Item = (usize, usize)>,
    out: &mut Vec<u64>,
) {
    out.clear();
    out.resize(store.len(), 0);
    for (i, c) in at {
        let seed = seed(i);
        for (o, v) in out.iter_mut().zip(store.col(c)) {
            *o ^= part(seed, v);
        }
    }
}

/// Filter bits per key, about: the filter has the next power of two at
/// or above this many bits per entry.
const FILTER_BITS_PER_ENTRY: usize = 16;

/// A register-blocked Bloom filter: a key sets three bits, picked by its
/// hash's low 18 bits, of the one `u64` word its high bits pick, so a
/// test is one load and one compare.
struct Filter {
    words: Vec<u64>,
    /// Word = `hash >> shift`.
    shift: u32,
}

impl Filter {
    fn new(hashes: &[u64]) -> Filter {
        let words = (hashes.len() * FILTER_BITS_PER_ENTRY)
            .next_power_of_two()
            .max(128)
            / 64;
        let mut filter = Filter {
            words: vec![0; words],
            shift: 64 - words.trailing_zeros(),
        };
        for &hash in hashes {
            filter.words[(hash >> filter.shift) as usize] |= Filter::bits(hash);
        }
        filter
    }

    #[inline]
    fn bits(hash: u64) -> u64 {
        1 << (hash & 63) | 1 << (hash >> 6 & 63) | 1 << (hash >> 12 & 63)
    }

    /// False only if no key hashing to `hash` was added.
    #[inline]
    fn may_contain(&self, hash: u64) -> bool {
        let bits = Filter::bits(hash);
        self.words[(hash >> self.shift) as usize] & bits == bits
    }
}

/// The heads sharing one key, merged: distinct key value → members.
struct KeyTable {
    /// The shared variables, sorted.
    key: Vec<VarId>,
    filter: Filter,
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
            parts_into(store, cols.iter().copied().enumerate(), &mut hashes);
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
        KeyTable {
            key,
            filter: Filter::new(&entry_hashes),
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
    /// with the entry's key values, in key order). Ask the filter first.
    #[inline]
    fn find(&self, hash: u64, eq: impl Fn(&[Value]) -> bool) -> Option<u32> {
        let k = self.key.len();
        self.table.find(hash, |e| {
            eq(&self.keys[e as usize * k..(e as usize + 1) * k])
        })
    }

    /// Stream the body `join` once, adding every member head's counts
    /// into `scratch.out`.
    ///
    /// When one side binds the whole key (the probe side preferred), one
    /// probe per row of it decides every row pair the row joins into; a
    /// probe row that hits adds its join fan-out at once. Otherwise each
    /// key value is read from the probe side when it binds it and from
    /// the build side if not, each side's rows carry the XOR of the parts
    /// they hold, and a row pair's key hash is the XOR of its two rows'.
    fn count(&self, join: &Join, scratch: &mut HeadScratch) {
        let HeadScratch {
            groups,
            matched,
            loc,
            build_parts,
            probe_parts,
            ents,
            block,
            passed,
            mult,
            touched,
            out,
            probes,
            ..
        } = scratch;
        let (bc, pc) = (join.build.columnar(), join.probe.columnar());
        let binds = |side: &Bindings| self.key.iter().all(|&v| side.position(v).is_some());
        let probe_whole = binds(join.probe);
        let build_whole = !probe_whole && binds(join.build);
        loc.clear();
        loc.extend(self.key.iter().map(|&v| match join.probe.position(v) {
            Some(c) if !build_whole => (true, c),
            _ => (
                false,
                join.build.position(v).expect("body binds every head key"),
            ),
        }));
        let at = |on_probe: bool| {
            loc.iter()
                .enumerate()
                .filter(move |(_, l)| l.0 == on_probe)
                .map(|(i, l)| (i, l.1))
        };
        let value = |(on_probe, c): (bool, usize), bi: usize, pi: usize| {
            if on_probe {
                &pc.col(c)[pi]
            } else {
                &bc.col(c)[bi]
            }
        };
        let key_eq = |key: &[Value], bi: usize, pi: usize| {
            key.iter()
                .zip(loc.iter())
                .all(|(kv, &l)| kv == value(l, bi, pi))
        };
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
        if probe_whole || build_whole {
            // One side binds the whole key: resolve each of its rows once.
            let (store, hashes) = if probe_whole {
                (pc, &mut *probe_parts)
            } else {
                (bc, &mut *build_parts)
            };
            parts_into(store, at(probe_whole), hashes);
            ents.clear();
            ents.extend(hashes.iter().enumerate().map(|(i, &hash)| {
                if !self.filter.may_contain(hash) {
                    return NONE;
                }
                *probes += 1;
                // Every key value is read from this side's row `i`.
                self.find(hash, |key| key_eq(key, i, i)).unwrap_or(NONE)
            }));
            if probe_whole {
                join.for_each_probe(groups, matched, |pi, fanout| {
                    if ents[pi] != NONE {
                        bump(ents[pi], fanout);
                    }
                });
            } else {
                join.for_each_pair(groups, matched, |bi, _| {
                    if ents[bi] != NONE {
                        bump(ents[bi], 1);
                    }
                });
            }
        } else {
            // The key spans both sides: a row pair's hash is one XOR.
            parts_into(bc, at(false), build_parts);
            parts_into(pc, at(true), probe_parts);
            let (build_parts, probe_parts) = (&*build_parts, &*probe_parts);
            let mut probe_table = |bi: usize, pi: usize| {
                *probes += 1;
                let hash = build_parts[bi] ^ probe_parts[pi];
                if let Some(e) = self.find(hash, |key| key_eq(key, bi, pi)) {
                    bump(e, 1);
                }
            };
            let mut drain = |passed: &mut Vec<(u32, u32)>| {
                for (bi, pi) in passed.drain(..) {
                    probe_table(bi as usize, pi as usize);
                }
            };
            if let Pairing::Groups(build, probe) = &join.pairing {
                // Test the filter over one contiguous block of the build
                // group per probe row, buffering the passing pairs, and
                // probe the table for them after the loop (or once the
                // buffer fills, which bounds it).
                for &(bg, pg) in matched.iter() {
                    block.clear();
                    block.extend(
                        build
                            .group_rows(bg as usize)
                            .map(|bi| (build_parts[bi], bi as u32)),
                    );
                    for pi in probe.group_rows(pg as usize) {
                        let p = probe_parts[pi];
                        for &(b, bi) in block.iter() {
                            if self.filter.may_contain(b ^ p) {
                                passed.push((bi, pi as u32));
                            }
                        }
                        if passed.len() >= PASSED_BATCH {
                            drain(passed);
                        }
                    }
                }
                drain(passed);
            } else {
                join.for_each_pair(groups, matched, |bi, pi| {
                    if self.filter.may_contain(build_parts[bi] ^ probe_parts[pi]) {
                        probe_table(bi, pi);
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

/// Passing pairs buffered before the group-blocked pair loop probes
/// the table for them: enough to keep the loop on the filter, and a
/// bound on the buffer however many pairs hit.
const PASSED_BATCH: usize = 4096;

/// No entry, or no build group.
const NONE: u32 = u32::MAX;

/// How a [`Join`] pairs its two sides' rows.
enum Pairing {
    /// No shared variable: every build row with every probe row.
    Cross,
    /// The build side's group index on the shared variables;
    /// `HeadScratch::groups` holds every probe row's group.
    Rows(Arc<GroupIndex>),
    /// Both sides' group indexes on the shared variables (build, probe);
    /// `HeadScratch::matched` holds the `(build group, probe group)`
    /// pairs with equal keys.
    Groups(Arc<GroupIndex>, Arc<GroupIndex>),
}

/// A body given as the natural join `build ⋈ probe`, paired row by row
/// but never gathered into output columns.
struct Join<'b> {
    build: &'b Bindings,
    probe: &'b Bindings,
    pairing: Pairing,
}

impl<'b> Join<'b> {
    /// Pair `left ⋈ right` through whichever side already has a cached
    /// group index on the shared variables, and return `|left ⋈ right|`.
    ///
    /// * both sides cached: the side with fewer keys probes the other's
    ///   index once per distinct key, and `scratch.matched` receives the
    ///   matching group pairs — no row is hashed;
    /// * one side cached: that side builds and every row of the other
    ///   probes it, filling `scratch.groups`;
    /// * neither: the smaller side builds (and caches) its index, as
    ///   [`Bindings::join`] does.
    fn pair(left: &'b Bindings, right: &'b Bindings, scratch: &mut HeadScratch) -> (Self, usize) {
        let (mut build, mut probe) = if left.len() > right.len() {
            (right, left)
        } else {
            (left, right)
        };
        let HeadScratch {
            cols,
            probe_cols,
            hashes,
            groups,
            matched,
            ..
        } = scratch;
        build.shared_positions_into(probe, cols, probe_cols);
        groups.clear();
        matched.clear();
        if cols.is_empty() {
            let join = Join {
                build,
                probe,
                pairing: Pairing::Cross,
            };
            return (join, build.len() * probe.len());
        }
        let index = match (build.cached_index(cols), probe.cached_index(probe_cols)) {
            (Some(bi), Some(pi)) => {
                // Both keys are in shared-variable order, so a group key
                // of one index probes the other directly.
                let build_fewer = bi.num_groups() <= pi.num_groups();
                let (few, many) = if build_fewer { (&bi, &pi) } else { (&pi, &bi) };
                let mut rows = 0;
                for g in 0..few.num_groups() {
                    if let Some((h, n)) = many.probe_group_key(few.group_key(g)) {
                        rows += few.group_count(g) * n;
                        let (g, h) = (g as u32, h as u32);
                        matched.push(if build_fewer { (g, h) } else { (h, g) });
                    }
                }
                let join = Join {
                    build,
                    probe,
                    pairing: Pairing::Groups(bi, pi),
                };
                return (join, rows);
            }
            (None, Some(pi)) => {
                std::mem::swap(&mut build, &mut probe);
                std::mem::swap(cols, probe_cols);
                pi
            }
            (Some(bi), None) => bi,
            (None, None) => build.binding_index(cols),
        };
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
            pairing: Pairing::Rows(index),
        };
        (join, rows)
    }

    /// Visit every probe row that joins, with the number of build rows
    /// it joins. `groups` and `matched` are the buffers [`Join::pair`]
    /// filled.
    #[inline]
    fn for_each_probe(
        &self,
        groups: &[u32],
        matched: &[(u32, u32)],
        mut f: impl FnMut(usize, usize),
    ) {
        match &self.pairing {
            Pairing::Cross => (0..self.probe.len()).for_each(|pi| f(pi, self.build.len())),
            Pairing::Rows(index) => {
                for (pi, &g) in groups.iter().enumerate() {
                    if g != NONE {
                        f(pi, index.group_count(g as usize));
                    }
                }
            }
            Pairing::Groups(build, probe) => {
                for &(bg, pg) in matched {
                    let fanout = build.group_count(bg as usize);
                    probe.group_rows(pg as usize).for_each(|pi| f(pi, fanout));
                }
            }
        }
    }

    /// Visit every joined `(build row, probe row)` pair.
    #[inline]
    fn for_each_pair(
        &self,
        groups: &[u32],
        matched: &[(u32, u32)],
        mut f: impl FnMut(usize, usize),
    ) {
        match &self.pairing {
            Pairing::Cross => {
                for pi in 0..self.probe.len() {
                    (0..self.build.len()).for_each(|bi| f(bi, pi));
                }
            }
            Pairing::Rows(index) => {
                for (pi, &g) in groups.iter().enumerate() {
                    if g != NONE {
                        index.group_rows(g as usize).for_each(|bi| f(bi, pi));
                    }
                }
            }
            Pairing::Groups(build, probe) => {
                for &(bg, pg) in matched {
                    for pi in probe.group_rows(pg as usize) {
                        build.group_rows(bg as usize).for_each(|bi| f(bi, pi));
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
        scratch.probes = 0;
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
    /// Build-side join columns.
    cols: Vec<usize>,
    /// Probe-side join columns.
    probe_cols: Vec<usize>,
    /// Probe-row join-key hashes.
    hashes: Vec<u64>,
    /// Per probe row: its build group, or `NONE`.
    groups: Vec<u32>,
    /// `(build group, probe group)` pairs with equal keys, when both
    /// sides of the join had a cached index.
    matched: Vec<(u32, u32)>,
    /// Per key variable: `(read from the probe side, column)`.
    loc: Vec<(bool, usize)>,
    /// Per build row: the XOR of the parts of the key values read from
    /// it (its key hash when it binds the whole key).
    build_parts: Vec<u64>,
    /// Per probe row: likewise.
    probe_parts: Vec<u64>,
    /// Per row of a side binding the whole key: its entry, or `NONE`.
    ents: Vec<u32>,
    /// One build group's `(part, row)`, when both sides are grouped.
    block: Vec<(u64, u32)>,
    /// `(build row, probe row)` pairs that passed the filter.
    passed: Vec<(u32, u32)>,
    /// Per entry of the table being counted: row pairs hitting it so far
    /// (all zero between counts).
    mult: Vec<usize>,
    touched: Vec<u32>,
    out: Vec<HeadCounts>,
    /// Filter passes that probed a table in the last count.
    probes: u64,
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

    /// Row pairs (or whole-key rows) of the last [`HeadTable::count`]
    /// that passed a key table's filter and probed the table; the rest
    /// were skipped by the filter.
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ints, Tuple};

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
        // The pairing reads whichever side has a group index on the
        // shared variables cached: fresh copies of the two sides get
        // neither, only the left's, only the right's, or both.
        let fresh = |side: &Bindings| Bindings::from_parts(side.vars().to_vec(), side.to_rows());
        let cache = |side: &Bindings, other: &Bindings| {
            let (mut cols, mut other_cols) = (Vec::new(), Vec::new());
            side.shared_positions_into(other, &mut cols, &mut other_cols);
            if !cols.is_empty() {
                side.binding_index(&cols);
            }
        };
        for (l, r) in [(left, right), (right, left)] {
            for (cache_l, cache_r) in [(false, false), (true, false), (false, true), (true, true)] {
                let (l, r) = (fresh(l), fresh(r));
                if cache_l {
                    cache(&l, &r);
                }
                if cache_r {
                    cache(&r, &l);
                }
                assert_eq!(table.count(&l, &r, &mut scratch), materialized);
                assert_eq!(
                    scratch.counts(),
                    &want[..],
                    "{:?} ⋈ {:?}, cached: left {cache_l}, right {cache_r}",
                    l.vars(),
                    r.vars()
                );
            }
        }
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
    fn key_hash_keeps_positions_and_value_kinds_apart() {
        use crate::symbol::Symbol;
        let (int, sym) = (Value::Int, |n| Value::Sym(Symbol(n)));
        let rel_of = |vars: &[u32], rows: &[[Value; 2]]| {
            Bindings::from_parts(
                vars.iter().map(|&i| v(i)).collect(),
                rows.iter().map(|r| r.to_vec().into()).collect(),
            )
        };
        // Chain P(X,Y), Q(Y,Z): the key [X,Z] is split across the sides.
        // The body's keys are {1, #1, 3} × {2, 3, #2} plus (4, 4), where
        // `#n` is the symbol with payload n.
        let p = rel_of(
            &[0, 1],
            &[
                [int(1), int(0)],
                [sym(1), int(0)],
                [int(3), int(0)],
                [int(4), int(1)],
            ],
        );
        let q = rel_of(
            &[1, 2],
            &[
                [int(0), int(2)],
                [int(0), int(3)],
                [int(0), sym(2)],
                [int(1), int(4)],
            ],
        );
        let heads = [
            // Swapped body keys miss; a repeated value hits only where
            // the body repeats it.
            rel_of(
                &[0, 2],
                &[
                    [int(2), int(1)],
                    [sym(2), int(1)],
                    [int(3), int(3)],
                    [int(4), int(4)],
                    [sym(2), sym(2)],
                ],
            ),
            // The same key in the other column order: (Z, X).
            rel_of(
                &[2, 0],
                &[[int(1), int(2)], [int(2), int(1)], [int(3), int(3)]],
            ),
            // `Int` and `Sym` with equal payloads are different values.
            rel_of(
                &[0, 2],
                &[
                    [sym(3), int(3)],
                    [int(3), sym(3)],
                    [sym(1), int(2)],
                    [int(1), sym(2)],
                    [int(1), int(1)],
                ],
            ),
        ];
        check_streamed(&heads, &p, &q);
        let mut scratch = HeadScratch::new();
        let table = HeadTable::build(&heads.iter().collect::<Vec<_>>(), &[v(0), v(1), v(2)]);
        assert_eq!(table.count(&p, &q, &mut scratch), 10);
        let want = |head_hits, body_hits| HeadCounts {
            head_hits,
            body_hits,
        };
        assert_eq!(scratch.counts(), &[want(2, 2), want(2, 2), want(2, 2)]);
    }

    #[test]
    fn passing_pairs_beyond_one_batch_all_count() {
        // 20 000 row pairs, half of them hitting the head: more passing
        // pairs than one buffered batch when the sides pair by group.
        let grid = |xs: i64, ys: i64| -> Vec<Vec<i64>> {
            (0..xs)
                .flat_map(|x| (0..ys).map(move |y| vec![x, y]))
                .collect()
        };
        let rel_of = |vars: &[u32], rows: &[Vec<i64>]| {
            rel(vars, &rows.iter().map(Vec::as_slice).collect::<Vec<_>>())
        };
        let p = rel_of(&[0, 1], &grid(100, 2));
        let q = rel_of(&[2, 1], &grid(100, 2));
        let head = rel_of(&[0, 2], &grid(100, 50));
        check_streamed(&[head], &p, &q);
    }

    /// The filter skips almost every row pair that misses: on a body
    /// shaped like a mined chain's, the probes beyond the true hits stay
    /// under 1% of the row pairs streamed, whichever way the sides pair.
    #[test]
    fn filter_passes_few_misses() {
        use crate::algebra::baseline;
        use rand::SeedableRng;
        let mut rng = rand::StdRng::seed_from_u64(29);
        let p = random_rel(&mut rng, &[0, 1], 2000, 400);
        let q = random_rel(&mut rng, &[1, 2], 2000, 400);
        let heads: Vec<Bindings> = (0..3)
            .map(|_| random_rel(&mut rng, &[0, 2], 2000, 400))
            .collect();
        let table = HeadTable::build(&heads.iter().collect::<Vec<_>>(), &[v(0), v(1), v(2)]);
        let b = baseline::join(&p, &q);
        let head_keys: std::collections::HashSet<Tuple> =
            heads.iter().flat_map(Bindings::to_rows).collect();
        let (x, z) = (b.position(v(0)).unwrap(), b.position(v(2)).unwrap());
        let hits = b
            .to_rows()
            .iter()
            .filter(|r| head_keys.contains(&Tuple::from(vec![r[x], r[z]])))
            .count();
        assert!(hits > 0, "the heads hit the body");
        let mut scratch = HeadScratch::new();
        // Unindexed sides pair row by row; indexed ones group by group.
        for cached in [false, true] {
            if cached {
                p.binding_index(&[1]);
                q.binding_index(&[0]);
            }
            assert_eq!(table.count(&p, &q, &mut scratch), b.len());
            let false_passes = scratch.probes() as usize - hits;
            assert!(
                false_passes * 100 <= b.len(),
                "{false_passes} of {} row pairs passed the filter and missed (cached: {cached})",
                b.len()
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
            // The larger side with fewer keys: a group pairing probes
            // from the larger side's index into the smaller side's.
            let rows: Vec<[i64; 2]> = (0..24).map(|x| [x, x % 2]).collect();
            let few_keys = rel(&[0, 1], &rows.iter().map(|r| &r[..]).collect::<Vec<_>>());
            check_streamed(&heads, &few_keys, &q);
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
