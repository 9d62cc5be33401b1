//! The `findHeads` count op: `|b|` and the cover and confidence
//! numerators of every head instantiation of a search against one body
//! join `b`, in one pass over the body — without building `b`.
//!
//! `findHeads` (Figure 4) checks every head instantiation `h` against the
//! body join `b` with two counts, `|h ⋉ b|` (cover) and `|b ⋉ h|`
//! (confidence). The heads are the same few atoms for every body of a
//! search, while each `b` is fresh, large, and its keys almost never hit a
//! head. So the heads are merged once into a [`HeadTable`] and each body
//! is streamed against it once, on integer key codes (dictionary-encoded
//! evaluation, as in Abadi, Madden & Ferreira, SIGMOD 2006):
//!
//! * the **key** of a head is the variables it shares with the bodies,
//!   **sorted by `VarId`**, so heads binding the same variables in any
//!   column order share it; heads are grouped by key and each distinct
//!   key gets its own table (in `findRules` every head has the same key);
//! * each key position **codes** its values as integers `0..cells`: a
//!   position whose head values are all `Int` within a span of at most 4
//!   per head row (at least 1024) is *range-coded*, `code = v − lo`; any
//!   other position gets a *dictionary* of its head values, coded in
//!   first-seen order (so `Sym(n)` never meets `Int(n)`). A key's code is
//!   the mixed-radix sum `Σ code_i · stride_i`: distinct keys, distinct
//!   codes;
//! * a key's table maps each distinct key code to its **members** —
//!   `(head, rows of that head with the key)` pairs stored CSR-style —
//!   through one bucket structure. A code's bucket is
//!   `(code · mul) >> shift`: the code itself (`mul = 1, shift = 0`) when
//!   the key space has at most 32 cells per head row (at least 4096), a
//!   multiply-shift into 16 buckets per head row otherwise. A bitmap holds
//!   one bit per bucket and, per word, the set bits before it, so a set
//!   bucket's rank is one popcount and indexes its entries, sorted by
//!   code; every lookup ends in an integer compare;
//! * a key's code is **separable**: a sum over its positions. The body
//!   arrives as the two inputs of its last join, `b = left ⋈ right`, and
//!   is **streamed, not built**: [`HeadTable::count`] pairs the rows
//!   through whichever side already has a group index on the shared
//!   variables cached — both sides' indexes pair group against group, one
//!   probe per distinct key — building the smaller side's only when
//!   neither has one, and gathers no output column. A body that is
//!   already one relation is counted as `b ⋈ unit`;
//! * each side codes the key values it holds once per row (a range-coded
//!   position by a subtraction, a dictionary by one probe), and a row
//!   holding a value no head has at that position is **dead** and skipped
//!   before pairing. When one side binds the whole key, each of its rows
//!   is looked up once and a hit counts every pair the row joins into.
//!   Otherwise a row pair's code is one add of its rows' partial codes.
//!   When both sides are grouped, the pair loop is branch-free: for each
//!   probe row it writes every pair's code into a hit buffer and advances
//!   the buffer's length by the code's bucket bit, then resolves the
//!   buffered codes and bumps the hit entries' multiplicities. No `Value`
//!   is hashed or compared per row pair. Each touched entry then folds
//!   into its members: `body_hits += multiplicity` and
//!   `head_hits += head rows with the key`. Per-pair work is O(1)
//!   whatever the number of heads;
//! * a key space beyond `u64` codes splits its heads' rows on the widest
//!   position's codes until every part's space fits; each key value lands
//!   in one part, so the parts' counts add;
//! * a head sharing no variable with the bodies keeps the semijoin
//!   semantics: `h ⋉ b` keeps all of `h` iff `b` is non-empty, and
//!   symmetrically.
//!
//! The table is immutable once built, so every worker of a search shares
//! one. Each worker owns a [`HeadScratch`] (hashes, groups, per-side
//! partial codes, blocks, hits, multiplicities, touched entries, output)
//! reused across bodies, so counting a body allocates nothing once the
//! scratch has grown (`tests/no_alloc_kernels.rs`).

use crate::algebra::{Bindings, VarId};
use crate::hashjoin::{self, ColumnarRows, GroupIndex, RawTable};
use crate::value::Value;
use std::sync::Arc;

/// Both semijoin counts of one head against one body join.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeadCounts {
    /// `|h ⋉ b|` — the cover numerator.
    pub head_hits: usize,
    /// `|b ⋉ h|` — the confidence numerator.
    pub body_hits: usize,
}

/// A position is range-coded when its span has at most this many cells
/// per head row of its table (or [`RANGE_MIN_CELLS`]).
const RANGE_CELLS_PER_ROW: u64 = 4;
const RANGE_MIN_CELLS: u64 = 1024;
/// Buckets are exact codes when the key space has at most this many
/// cells per head row (or [`EXACT_MIN_CELLS`]); hashed buckets number
/// [`HASHED_BUCKETS_PER_ROW`] per head row otherwise.
const EXACT_CELLS_PER_ROW: u64 = 32;
const EXACT_MIN_CELLS: u64 = 4096;
const HASHED_BUCKETS_PER_ROW: usize = 16;
/// The multiplier of hashed buckets: odd, about `2^64 / φ`.
const HASHED_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The partial code of a dead row: one holding a value that no head has
/// at its position. Live codes stay below the key space, so below this.
const DEAD: u64 = u64::MAX;

/// How one key position codes its values as integers `0..cells`.
enum Coder {
    /// `code = v − lo` for `Int(v)` with `lo ≤ v < lo + cells`.
    Range { lo: i64, cells: u64 },
    /// The position's head values, coded in first-seen order.
    Dict { table: RawTable, values: Vec<Value> },
}

impl Coder {
    /// The coder of one position whose head values are `cols`, over
    /// `rows` head rows in all.
    fn new<'a>(cols: impl Iterator<Item = &'a [Value]> + Clone, rows: usize) -> Coder {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        let all_int = cols.clone().flatten().all(|v| match v.as_int() {
            Some(x) => {
                (lo, hi) = (lo.min(x), hi.max(x));
                true
            }
            None => false,
        });
        if all_int && lo <= hi {
            let span = i128::from(hi) - i128::from(lo) + 1;
            let limit = (RANGE_CELLS_PER_ROW * rows as u64).max(RANGE_MIN_CELLS);
            if span <= i128::from(limit) {
                return Coder::Range {
                    lo,
                    cells: span as u64,
                };
            }
        }
        let mut table = RawTable::with_capacity(rows);
        let mut values = Vec::new();
        for v in cols.flatten() {
            let hash = hashjoin::hash_value(v);
            if table.find(hash, |c| values[c as usize] == *v).is_none() {
                table.insert_new(hash, values.len() as u32);
                values.push(*v);
            }
        }
        Coder::Dict { table, values }
    }

    fn cells(&self) -> u64 {
        match self {
            Coder::Range { cells, .. } => *cells,
            Coder::Dict { values, .. } => values.len() as u64,
        }
    }

    #[inline]
    fn range_code(lo: i64, cells: u64, v: &Value) -> Option<u64> {
        // `cells` is the true span `hi − lo + 1`, so a value outside it
        // never wraps into `0..cells`.
        let d = v.as_int()?.wrapping_sub(lo) as u64;
        (d < cells).then_some(d)
    }

    /// `v`'s code, if some head has `v` here.
    #[inline]
    fn code(&self, v: &Value) -> Option<u64> {
        match self {
            Coder::Range { lo, cells } => Coder::range_code(*lo, *cells, v),
            Coder::Dict { table, values } => table
                .find(hashjoin::hash_value(v), |c| values[c as usize] == *v)
                .map(u64::from),
        }
    }
}

/// The heads sharing one key, merged: distinct key code → members.
struct KeyTable {
    /// The shared variables, sorted.
    key: Vec<VarId>,
    /// Per key position: its coder and its code's weight in a key code.
    coders: Vec<(Coder, u64)>,
    /// A code's bucket is `(code · mul) >> shift`.
    mul: u64,
    shift: u32,
    /// One bit per bucket.
    bits: Vec<u64>,
    /// Per word of `bits`: the set bits in the words before it.
    ranks: Vec<u32>,
    /// Set bucket `r`'s entries are `starts[r]..starts[r + 1]`, sorted by
    /// code; an exact bucket holds one.
    starts: Vec<u32>,
    /// Per entry: its key code.
    codes: Vec<u64>,
    /// Entry `e`'s members are `members[member_starts[e]..member_starts[e + 1]]`.
    member_starts: Vec<u32>,
    /// `(head, rows of that head with the entry's key)`, in head order
    /// within an entry.
    members: Vec<(u32, u32)>,
}

impl KeyTable {
    /// Merge `heads` (`(head id, relation)` in head order, every relation
    /// binding all of `key`) into one table. When the key space overflows
    /// `u64` codes, returns the position with the most cells instead,
    /// with its coder.
    fn build(key: &[VarId], heads: &[(u32, &Bindings)]) -> Result<KeyTable, (usize, Coder)> {
        let rows: usize = heads.iter().map(|(_, h)| h.len()).sum();
        let cols: Vec<Vec<usize>> = heads
            .iter()
            .map(|(_, h)| {
                key.iter()
                    .map(|&v| h.position(v).expect("head binds its key"))
                    .collect()
            })
            .collect();
        let column = |i: usize| {
            heads
                .iter()
                .zip(&cols)
                .map(move |((_, h), c)| h.columnar().col(c[i]))
        };
        let mut coders: Vec<Coder> = (0..key.len())
            .map(|i| Coder::new(column(i), rows))
            .collect();
        let mut strides = Vec::with_capacity(key.len());
        let mut space = 1u64;
        for c in &coders {
            strides.push(space);
            let Some(s) = space.checked_mul(c.cells()) else {
                let widest = (0..coders.len())
                    .max_by_key(|&i| coders[i].cells())
                    .expect("an overflowing key has a position");
                return Err((widest, coders.swap_remove(widest)));
            };
            space = s;
        }
        let coders: Vec<(Coder, u64)> = coders.into_iter().zip(strides).collect();

        // Every head row's key code and head, in head order.
        let mut coded: Vec<(u64, u32)> = Vec::with_capacity(rows);
        let mut part = Vec::new();
        for ((head, h), c) in heads.iter().zip(&cols) {
            codes_into(
                &coders,
                h.columnar(),
                c.iter().copied().enumerate(),
                &mut part,
            );
            coded.extend(part.iter().map(|&code| (code, *head)));
        }

        let (mul, shift, buckets) =
            if space <= (EXACT_CELLS_PER_ROW * rows as u64).max(EXACT_MIN_CELLS) {
                (1, 0, space as usize)
            } else {
                let buckets = (HASHED_BUCKETS_PER_ROW * rows).next_power_of_two();
                (HASHED_MUL, 64 - buckets.trailing_zeros(), buckets)
            };
        let mut table = KeyTable {
            key: key.to_vec(),
            coders,
            mul,
            shift,
            bits: vec![0; buckets.div_ceil(64)],
            ranks: Vec::new(),
            starts: Vec::new(),
            codes: Vec::new(),
            member_starts: Vec::new(),
            members: Vec::new(),
        };
        for &(code, _) in &coded {
            let b = table.bucket(code);
            table.bits[b / 64] |= 1 << (b % 64);
        }
        let mut set = 0;
        table.ranks = table
            .bits
            .iter()
            .map(|w| {
                let r = set;
                set += w.count_ones();
                r
            })
            .collect();

        // The rows sorted by (bucket rank, code), stably, so a code's
        // rows stay in head order: a counting sort by rank, then a sort
        // of each (small) bucket by code.
        let row_ranks: Vec<u32> = coded
            .iter()
            .map(|&(code, _)| table.rank(table.bucket(code)) as u32)
            .collect();
        let mut row_starts = vec![0u32; set as usize + 1];
        for &r in &row_ranks {
            row_starts[r as usize + 1] += 1;
        }
        for r in 0..set as usize {
            row_starts[r + 1] += row_starts[r];
        }
        let mut fill = row_starts.clone();
        let mut sorted = vec![(0, 0); rows];
        for (&r, &row) in row_ranks.iter().zip(&coded) {
            let f = &mut fill[r as usize];
            sorted[*f as usize] = row;
            *f += 1;
        }

        // Per set bucket, one entry per distinct code and one member per
        // (code, head) run.
        let mut starts = Vec::with_capacity(set as usize + 1);
        starts.push(0);
        let (mut codes, mut member_starts, mut members) = (Vec::new(), Vec::new(), Vec::new());
        for w in row_starts.windows(2) {
            let bucket = &mut sorted[w[0] as usize..w[1] as usize];
            bucket.sort_by_key(|&(code, _)| code);
            for &(code, head) in bucket.iter() {
                let new = codes.last() != Some(&code);
                if new {
                    codes.push(code);
                    member_starts.push(members.len() as u32);
                }
                match members.last_mut() {
                    Some((h, n)) if !new && *h == head => *n += 1,
                    _ => members.push((head, 1)),
                }
            }
            starts.push(codes.len() as u32);
        }
        member_starts.push(members.len() as u32);
        table.starts = starts;
        table.codes = codes;
        table.member_starts = member_starts;
        table.members = members;
        Ok(table)
    }

    fn entries(&self) -> usize {
        self.codes.len()
    }

    #[inline]
    fn bucket(&self, code: u64) -> usize {
        (code.wrapping_mul(self.mul) >> self.shift) as usize
    }

    /// Whether `code`'s bucket bit is set: false only if no entry has it.
    #[inline]
    fn may_hold(&self, code: u64) -> bool {
        let b = self.bucket(code);
        self.bits[b / 64] >> (b % 64) & 1 != 0
    }

    /// The rank of set bucket `b`: the set buckets before it.
    #[inline]
    fn rank(&self, b: usize) -> usize {
        let below = self.bits[b / 64] & ((1 << (b % 64)) - 1);
        self.ranks[b / 64] as usize + below.count_ones() as usize
    }

    /// The entry whose key code is `code`, which sets a bucket bit.
    #[inline]
    fn resolve(&self, code: u64) -> Option<u32> {
        let r = self.rank(self.bucket(code));
        (self.starts[r]..self.starts[r + 1]).find(|&e| self.codes[e as usize] == code)
    }

    /// Stream the body `join` once, adding every member head's counts
    /// into `scratch.out`.
    ///
    /// When one side binds the whole key (the probe side preferred), one
    /// lookup per row of it decides every row pair the row joins into; a
    /// probe row that hits adds its join fan-out at once. Otherwise each
    /// key value is read from the probe side when it binds it and from
    /// the build side if not, each side's rows carry the sum of the codes
    /// they hold, and a row pair's key code is the sum of its two rows'.
    fn count(&self, join: &Join, scratch: &mut HeadScratch) {
        let HeadScratch {
            groups,
            matched,
            loc,
            build_parts,
            probe_parts,
            ents,
            block,
            hits,
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
        // Look `code` up, counting a set bucket bit as a probe.
        let mut lookup = |code: u64| {
            if code == DEAD || !self.may_hold(code) {
                return None;
            }
            *probes += 1;
            self.resolve(code)
        };
        if probe_whole || build_whole {
            // One side binds the whole key: resolve each of its rows once.
            let (store, codes) = if probe_whole {
                (pc, &mut *probe_parts)
            } else {
                (bc, &mut *build_parts)
            };
            codes_into(&self.coders, store, at(probe_whole), codes);
            ents.clear();
            ents.extend(codes.iter().map(|&code| lookup(code).unwrap_or(NONE)));
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
            // The key spans both sides: a row pair's code is one add.
            codes_into(&self.coders, bc, at(false), build_parts);
            codes_into(&self.coders, pc, at(true), probe_parts);
            let (build_parts, probe_parts) = (&*build_parts, &*probe_parts);
            if let Pairing::Groups(build, probe) = &join.pairing {
                // Per probe row, write every pair's code into `hits` and
                // advance by its bucket bit, then resolve the hits.
                for &(bg, pg) in matched.iter() {
                    block.clear();
                    block.extend(
                        build
                            .group_rows(bg as usize)
                            .map(|bi| build_parts[bi])
                            .filter(|&b| b != DEAD),
                    );
                    if hits.len() < block.len() {
                        hits.resize(block.len(), 0);
                    }
                    for pi in probe.group_rows(pg as usize) {
                        let p = probe_parts[pi];
                        if p == DEAD {
                            continue;
                        }
                        let mut n = 0;
                        for &b in block.iter() {
                            hits[n] = b + p;
                            n += usize::from(self.may_hold(b + p));
                        }
                        *probes += n as u64;
                        for &code in &hits[..n] {
                            if let Some(e) = self.resolve(code) {
                                bump(e, 1);
                            }
                        }
                    }
                }
            } else {
                join.for_each_pair(groups, matched, |bi, pi| {
                    let (b, p) = (build_parts[bi], probe_parts[pi]);
                    if b != DEAD && p != DEAD {
                        if let Some(e) = lookup(b + p) {
                            bump(e, 1);
                        }
                    }
                });
            }
        }
        for e in touched.drain(..) {
            let e = e as usize;
            let m = std::mem::take(&mut mult[e]);
            let range = self.member_starts[e] as usize..self.member_starts[e + 1] as usize;
            for &(head, n) in &self.members[range] {
                let out = &mut out[head as usize];
                out.body_hits += m;
                out.head_hits += n as usize;
            }
        }
    }
}

/// Fill `out` with one partial key code per row of `store`: the sum of
/// `code_i · stride_i` over the `(key position i, column)` pairs `at`
/// (the row's key code when `at` covers the whole key), or [`DEAD`] when
/// a value has no code at its position.
fn codes_into(
    coders: &[(Coder, u64)],
    store: &ColumnarRows<Value>,
    at: impl Iterator<Item = (usize, usize)>,
    out: &mut Vec<u64>,
) {
    out.clear();
    out.resize(store.len(), 0);
    let add = |o: &mut u64, code: Option<u64>, stride: u64| {
        *o = match code {
            Some(code) if *o != DEAD => *o + code * stride,
            _ => DEAD,
        };
    };
    for (i, c) in at {
        let (coder, stride) = (&coders[i].0, coders[i].1);
        let rows = out.iter_mut().zip(store.col(c));
        // One loop per coder kind, so the range loop has no probe in it.
        match coder {
            Coder::Range { lo, cells } => {
                rows.for_each(|(o, v)| add(o, Coder::range_code(*lo, *cells, v), stride))
            }
            Coder::Dict { .. } => rows.for_each(|(o, v)| add(o, coder.code(v), stride)),
        }
    }
}

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

/// Merge `heads` (all with `key`) into key tables, adding them to
/// `tables`: one table, unless the key space overflows `u64` codes. Then
/// the heads' rows split on the widest position's codes, which halves
/// its cells, and each part gets its tables: every key value lands in
/// exactly one part, so the parts' counts add.
fn build_tables(key: &[VarId], heads: &[(u32, &Bindings)], tables: &mut Vec<KeyTable>) {
    let (i, coder) = match KeyTable::build(key, heads) {
        Ok(table) => return tables.push(table),
        Err(widest) => widest,
    };
    let half = coder.cells() / 2;
    for low in [true, false] {
        let parts: Vec<Bindings> = heads
            .iter()
            .map(|(_, h)| {
                let c = h.position(key[i]).expect("head binds its key");
                let rows = h.to_rows().into_iter().filter(|row| {
                    (coder.code(&row[c]).expect("a head value has a code") < half) == low
                });
                Bindings::from_parts(h.vars().to_vec(), rows.collect())
            })
            .collect();
        let part_heads: Vec<(u32, &Bindings)> = heads
            .iter()
            .zip(&parts)
            .map(|((id, _), p)| (*id, p))
            .collect();
        build_tables(key, &part_heads, tables);
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
        let mut tables = Vec::new();
        for (key, members) in &by_key {
            build_tables(key, members, &mut tables);
        }
        HeadTable {
            tables,
            unkeyed,
            head_lens: heads.iter().map(|h| h.len()).collect(),
        }
    }

    /// Rows of head `i` (the cover denominator).
    pub fn head_len(&self, i: usize) -> usize {
        self.head_lens[i]
    }

    /// The distinct shared keys, one per merged table, in first-seen
    /// head order (a key whose codes overflow `u64` has several tables).
    pub fn keys(&self) -> impl Iterator<Item = &[VarId]> + '_ {
        self.tables.iter().map(|t| t.key.as_slice())
    }

    /// The key tables with at least one head row: a non-empty body
    /// streams once per such table (one per key, see [`HeadTable::keys`]).
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
    /// Per build row: the sum of the codes of the key values read from
    /// it (its key code when it binds the whole key), or `DEAD`.
    build_parts: Vec<u64>,
    /// Per probe row: likewise.
    probe_parts: Vec<u64>,
    /// Per row of a side binding the whole key: its entry, or `NONE`.
    ents: Vec<u32>,
    /// One build group's live partial codes, when both sides are grouped.
    block: Vec<u64>,
    /// One probe row's pair codes; the first ones set a bucket bit.
    hits: Vec<u64>,
    /// Per entry of the table being counted: row pairs hitting it so far
    /// (all zero between counts).
    mult: Vec<usize>,
    touched: Vec<u32>,
    out: Vec<HeadCounts>,
    /// Lookups in the last count whose bucket bit was set.
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
    /// whose key code's bucket bit was set, so the bucket's entries were
    /// compared; the rest were rejected by the bit alone. With exact
    /// buckets, these are exactly the pairs (rows) that hit a head.
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
        // 20 000 row pairs, half of them hitting the head: the hit
        // buffer is refilled for every probe row when the sides pair by
        // group, and every hit must still count.
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

    /// Exact buckets make the bucket bit the answer: on chains shaped
    /// like mine_data's (2000 × 2000 rows, domain 400) and serve_mixed's
    /// (1000 × 1000 rows, domain 60), the lookups whose bit is set are
    /// exactly the row pairs that hit a head, whichever way the sides
    /// pair.
    #[test]
    fn probes_equal_true_hits() {
        use crate::algebra::baseline;
        use rand::SeedableRng;
        let mut rng = rand::StdRng::seed_from_u64(29);
        for (rows, dom) in [(2000, 400), (1000, 60)] {
            let p = random_rel(&mut rng, &[0, 1], rows, dom);
            let q = random_rel(&mut rng, &[1, 2], rows, dom);
            let heads: Vec<Bindings> = (0..3)
                .map(|_| random_rel(&mut rng, &[0, 2], rows, dom))
                .collect();
            let table = HeadTable::build(&heads.iter().collect::<Vec<_>>(), &[v(0), v(1), v(2)]);
            assert!(table.tables.iter().all(|t| t.shift == 0), "exact buckets");
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
                assert_eq!(
                    scratch.probes() as usize,
                    hits,
                    "{rows} rows over {dom} (cached: {cached})"
                );
            }
        }
    }

    /// Relabel each column of `b` through `f[column]`.
    fn relabel(b: &Bindings, f: &[&dyn Fn(i64) -> Value]) -> Bindings {
        let rows = b.to_rows().into_iter().map(|r| {
            r.iter()
                .zip(f)
                .map(|(v, f)| f(v.as_int().unwrap()))
                .collect()
        });
        Bindings::from_parts(b.vars().to_vec(), rows.collect())
    }

    /// Dictionaries whose cells multiply past the exact budget (sparse
    /// `Int`s times symbols) hash their codes into buckets, and the
    /// counts still match the oracle.
    #[test]
    fn hashed_buckets_match_the_oracle() {
        use crate::symbol::Symbol;
        use rand::SeedableRng;
        let mut rng = rand::StdRng::seed_from_u64(30);
        let sparse = |v: i64| Value::Int(v * 1_000_003 - 7_000_000_000);
        let sym = |v: i64| Value::Sym(Symbol(v as u32));
        let int = |v: i64| Value::Int(v);
        // X sparse, Y small, Z symbols.
        let p = relabel(&random_rel(&mut rng, &[0, 1], 400, 400), &[&sparse, &int]);
        let q = relabel(&random_rel(&mut rng, &[1, 2], 400, 400), &[&int, &sym]);
        let mut heads: Vec<Bindings> = (0..3)
            .map(|_| relabel(&random_rel(&mut rng, &[0, 2], 500, 400), &[&sparse, &sym]))
            .collect();
        // Some body keys, so the heads hit.
        let b = crate::algebra::baseline::join(&p, &q);
        heads.push(b.project(&[v(2), v(0)]));
        let table = HeadTable::build(&heads.iter().collect::<Vec<_>>(), &[v(0), v(1), v(2)]);
        let t = &table.tables[0];
        assert!(
            matches!(
                t.coders[..],
                [(Coder::Dict { .. }, _), (Coder::Dict { .. }, _)]
            ),
            "both positions dictionary-coded"
        );
        assert!(t.coders.iter().all(|(c, _)| c.cells() >= 300));
        assert_ne!(t.shift, 0, "hashed buckets");
        check_streamed(&heads, &p, &q);
    }

    #[test]
    fn range_codes_keep_extremes_and_kill_uncoded_rows() {
        use crate::symbol::Symbol;
        let (int, sym) = (Value::Int, |n| Value::Sym(Symbol(n)));
        let rel_of = |vars: &[u32], rows: &[[Value; 2]]| {
            Bindings::from_parts(
                vars.iter().map(|&i| v(i)).collect(),
                rows.iter().map(|r| r.to_vec().into()).collect(),
            )
        };
        let (max, min) = (i64::MAX, i64::MIN);
        let kinds = |heads: &[Bindings]| {
            let table = HeadTable::build(&heads.iter().collect::<Vec<_>>(), &[v(0), v(1), v(2)]);
            let t = &table.tables[0];
            t.coders
                .iter()
                .map(|(c, _)| matches!(c, Coder::Range { .. }))
                .collect::<Vec<_>>()
        };
        // Chain P(X,Y), Q(Y,Z), key [X,Z]. X is range-coded at the top of
        // `i64` and Z at its bottom; the body holds values just outside
        // both ranges, values that wrap onto them, and a symbol.
        let heads = [rel_of(
            &[0, 2],
            &[
                [int(max), int(min)],
                [int(max - 2), int(min + 2)],
                [int(max - 1), int(min)],
                [int(max), int(min + 1)],
            ],
        )];
        assert_eq!(kinds(&heads), [true, true]);
        let p = rel_of(
            &[0, 1],
            &[
                [int(max), int(0)],
                [int(max - 2), int(0)],
                [int(max - 3), int(0)],
                [int(min), int(0)],
                [sym(1), int(0)],
                [int(max - 1), int(1)],
            ],
        );
        let q = rel_of(
            &[1, 2],
            &[
                [int(0), int(min)],
                [int(0), int(min + 2)],
                [int(0), int(min + 3)],
                [int(0), int(max)],
                [int(1), int(min)],
                [int(1), int(-1)],
            ],
        );
        check_streamed(&heads, &p, &q);
        let mut scratch = HeadScratch::new();
        let table = HeadTable::build(&heads.iter().collect::<Vec<_>>(), &[v(0), v(1), v(2)]);
        // Y = 0 pairs 5 × 4 rows, Y = 1 pairs 1 × 2.
        assert_eq!(table.count(&p, &q, &mut scratch), 5 * 4 + 2);
        let want = HeadCounts {
            head_hits: 3,
            body_hits: 3,
        };
        assert_eq!(scratch.counts(), &[want]);
        // X range-coded over negative values beside Z dictionary-coded:
        // an `Int` where the heads hold the symbol of equal payload, and
        // a symbol where they hold `Int`s, are dead.
        let heads = [rel_of(
            &[0, 2],
            &[
                [int(-5), sym(1)],
                [int(-1), sym(2)],
                [int(0), sym(1)],
                [int(5), sym(3)],
            ],
        )];
        assert_eq!(kinds(&heads), [true, false]);
        let p = rel_of(
            &[0, 1],
            &[
                [int(-5), int(0)],
                [int(-6), int(0)],
                [int(6), int(0)],
                [sym(5), int(0)],
                [int(0), int(0)],
                [int(5), int(1)],
            ],
        );
        let q = rel_of(
            &[1, 2],
            &[
                [int(0), sym(1)],
                [int(0), int(1)],
                [int(0), sym(2)],
                [int(1), sym(3)],
                [int(1), sym(4)],
            ],
        );
        check_streamed(&heads, &p, &q);
    }

    /// A key whose codes overflow `u64` (eight dictionary-coded positions
    /// of hundreds of values each) splits into tables whose key spaces
    /// fit, and the counts still match the oracle.
    #[test]
    fn overflowing_key_spaces_split() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::StdRng::seed_from_u64(31);
        let sparse = |v: i64| Value::Int(v * 1_000_003 - 7_000_000_000);
        let rows_of = |vars: &[u32], rows: Vec<Vec<Value>>| {
            Bindings::from_parts(
                vars.iter().map(|&i| v(i)).collect(),
                rows.into_iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .map(Tuple::from)
                    .collect(),
            )
        };
        let key: Vec<Vec<Value>> = (0..600)
            .map(|_| (0..8).map(|_| sparse(rng.gen_range(0..1000))).collect())
            .collect();
        let head = rows_of(&[0, 1, 2, 3, 4, 5, 6, 7], key.clone());
        // Left binds X0..X3 and S, right S and X4..X7; rows cut from head
        // keys (so some pairs hit) and random ones.
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for j in 0..40 {
            let (s, k) = (Value::Int(j % 3), &key[j as usize]);
            left.push([&k[..4], &[s]].concat());
            right.push([&[s], &k[4..]].concat());
            let r: Vec<Value> = (0..8).map(|_| sparse(rng.gen_range(0..1000))).collect();
            left.push([&r[..4], &[s]].concat());
            right.push([&[s], &r[4..]].concat());
        }
        let left = rows_of(&[0, 1, 2, 3, 9], left);
        let right = rows_of(&[9, 4, 5, 6, 7], right);
        let vars: Vec<VarId> = (0..10).map(v).collect();
        let table = HeadTable::build(&[&head], &vars);
        assert!(table.tables.len() > 1, "the key space split");
        assert_eq!(
            table.tables.iter().map(KeyTable::entries).sum::<usize>(),
            head.len(),
            "every key in exactly one part"
        );
        check_streamed(&[head], &left, &right);
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
