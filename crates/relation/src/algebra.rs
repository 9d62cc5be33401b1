//! Variable-driven relational algebra.
//!
//! The paper's plausibility indices (Definition 2.6) are phrased over
//! *atoms*: `J(R)` is the natural join of the relations named in a set of
//! atoms `R`, joining on shared **variables**, and `att(R)` is the variable
//! set. This module implements exactly that view: a [`Bindings`] value is a
//! relation whose columns are variables, produced by evaluating atoms and
//! combined by natural join, semijoin and projection.
//!
//! ## Kernels
//!
//! A [`Bindings`] stores its tuples column-major ([`ColumnarRows`]) and
//! every kernel runs over the columns: keys are batch-hashed straight
//! out of column slices and compared positionally ([`crate::hashjoin`]),
//! surviving rows are gathered column by column, and no per-row
//! `Box<[Value]>` is ever materialized. [`Bindings::join_atom`]
//! additionally probes a per-relation column index cached on the
//! [`Relation`] itself, so the build side of a join against a database
//! relation is constructed once per (relation, column-set) and shared
//! across the thousands of instantiations a metaquery engine evaluates.
//!
//! The pre-optimization kernels (the naive port: one boxed key per row,
//! hash tables rebuilt per operation) are kept in [`baseline`] as the
//! oracle the randomized equivalence tests compare every kernel against.

use crate::hashjoin::{self, GroupIndex, RawTable};
use crate::relation::Relation;
use crate::value::{Tuple, Value};
use mq_store::{ColIndexCache, ColumnarRows};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// An ordinary (first-order) variable, interned by the caller.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// An argument of an atom: a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A first-order variable.
    Var(VarId),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// The variable, if this term is one.
    #[inline]
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

impl From<VarId> for Term {
    fn from(v: VarId) -> Self {
        Term::Var(v)
    }
}

/// The distinct variables of an argument list, in first-occurrence order.
pub fn distinct_vars(terms: &[Term]) -> Vec<VarId> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for t in terms {
        if let Term::Var(v) = t {
            if seen.insert(*v) {
                out.push(*v);
            }
        }
    }
    out
}

/// Positional shape of an atom's argument list against its relation:
/// constant filters, repeated-variable equalities, and the projection
/// from relation columns to the atom's distinct variables.
struct AtomShape {
    /// Distinct variables, first-occurrence order.
    vars: Vec<VarId>,
    /// Relation column holding each distinct variable's first occurrence.
    first_pos: Vec<usize>,
    /// Columns carrying a constant, and the required values.
    const_cols: Vec<usize>,
    const_vals: Vec<Value>,
    /// `(a, b)` column pairs that must be equal (repeated variables).
    eq_pairs: Vec<(usize, usize)>,
}

impl AtomShape {
    fn of(terms: &[Term]) -> Self {
        let vars = distinct_vars(terms);
        let first_pos: Vec<usize> = vars
            .iter()
            .map(|v| {
                terms
                    .iter()
                    .position(|t| t.as_var() == Some(*v))
                    .expect("var came from terms")
            })
            .collect();
        let mut const_cols = Vec::new();
        let mut const_vals = Vec::new();
        let mut eq_pairs = Vec::new();
        for (j, t) in terms.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    const_cols.push(j);
                    const_vals.push(*c);
                }
                Term::Var(v) => {
                    let fp = first_pos[vars.iter().position(|u| u == v).expect("distinct var")];
                    if fp != j {
                        eq_pairs.push((fp, j));
                    }
                }
            }
        }
        AtomShape {
            vars,
            first_pos,
            const_cols,
            const_vals,
            eq_pairs,
        }
    }

    /// Whether row `i` of the relation's columns satisfies the constant
    /// filters and the repeated-variable equalities.
    #[inline]
    fn matches(&self, store: &ColumnarRows<Value>, i: usize) -> bool {
        self.const_cols
            .iter()
            .zip(self.const_vals.iter())
            .all(|(&c, v)| store.col(c)[i] == *v)
            && self
                .eq_pairs
                .iter()
                .all(|&(a, b)| store.col(a)[i] == store.col(b)[i])
    }
}

/// A relation over variables: the result of evaluating and joining atoms.
///
/// Invariant: rows are pairwise distinct (natural join of sets is a set;
/// [`Bindings::project`] re-deduplicates).
///
/// Tuples live column-major in one [`ColumnarRows`] (one contiguous
/// buffer per variable, the layout every kernel scans). The storage is
/// frozen and shared, so cloning a `Bindings` — which the engines do
/// constantly to snapshot reducer state — is O(1) rather than a deep
/// copy of every tuple, and the whole value is `Send + Sync`: bindings
/// cross worker threads and live in the cross-worker shared memo
/// service. Hash indexes built by joins/semijoins are cached per column
/// set and shared across clones (and threads), so probing the same side
/// repeatedly (every reducer step against the same guard, every body
/// probing the same memoized head atom) builds its table once —
/// process-wide. Row-major tuples exist only on demand
/// ([`Bindings::to_rows`] allocates them).
#[derive(Clone)]
pub struct Bindings {
    vars: Vec<VarId>,
    cols: ColumnarRows<Value>,
    /// Lazily built group indexes per key-column set
    /// ([`mq_store::ColIndexCache`]: hashed lookup, thread-safe). Shared
    /// by clones (which share the storage, keeping the indexes valid)
    /// and, for a plain atom, with its relation
    /// ([`Bindings::from_atom`]); rebuilt from scratch by any operation
    /// producing new rows.
    indexes: Arc<ColIndexCache<GroupIndex>>,
}

impl PartialEq for Bindings {
    /// Equality of contents; cached indexes are ignored.
    fn eq(&self, other: &Self) -> bool {
        self.vars == other.vars && self.cols == other.cols
    }
}

impl Eq for Bindings {}

impl Bindings {
    fn new(vars: Vec<VarId>, cols: ColumnarRows<Value>) -> Self {
        debug_assert_eq!(cols.arity(), vars.len());
        Bindings {
            vars,
            cols,
            indexes: Arc::new(ColIndexCache::new()),
        }
    }

    /// The column-major storage.
    pub fn columnar(&self) -> &ColumnarRows<Value> {
        &self.cols
    }

    /// Get (or build once and cache) the group index over `cols`.
    pub(crate) fn binding_index(&self, cols: &[usize]) -> Arc<GroupIndex> {
        self.indexes
            .get_or_build(cols, || GroupIndex::build_columnar(&self.cols, cols))
    }

    /// The cached group index over `cols`, if one exists. Never builds —
    /// the cost-only probe-direction choices ([`Bindings::semijoin_count`]
    /// and the head-count op's pairing, [`crate::head_table`]) peek here
    /// to avoid indexing an operand that will never be probed again.
    pub(crate) fn cached_index(&self, cols: &[usize]) -> Option<Arc<GroupIndex>> {
        self.indexes.get(cols)
    }

    /// The unit bindings: no variables, one (empty) row.
    ///
    /// This is the identity of natural join: `unit ⋈ B = B`.
    pub fn unit() -> Self {
        Bindings::new(Vec::new(), ColumnarRows::from_columns(1, Vec::new()))
    }

    /// Empty bindings (no rows) over the given variables.
    pub fn empty(vars: Vec<VarId>) -> Self {
        let cols = ColumnarRows::empty(vars.len());
        Bindings::new(vars, cols)
    }

    /// Build from parts. Rows must be distinct and match `vars.len()`.
    pub fn from_parts(vars: Vec<VarId>, rows: Vec<Tuple>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == vars.len()));
        debug_assert_eq!(
            rows.iter().collect::<HashSet<_>>().len(),
            rows.len(),
            "Bindings rows must be distinct"
        );
        let cols = ColumnarRows::from_rows(vars.len(), &rows);
        Bindings::new(vars, cols)
    }

    /// Column variables, in order.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The rows as boxed tuples, each aligned with [`Bindings::vars`].
    /// Allocates one tuple per row: for oracles, certificates, display
    /// and tests, not for kernels.
    pub fn to_rows(&self) -> Vec<Tuple> {
        self.cols.to_rows()
    }

    /// Number of tuples (`|J(R)|` when this is the join of atom set `R`).
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Position of `v` among the columns.
    pub fn position(&self, v: VarId) -> Option<usize> {
        self.vars.iter().position(|&u| u == v)
    }

    /// Evaluate a single atom `r(t1, ..., tk)` against `rel`.
    ///
    /// A relation row matches when constants agree and repeated variables
    /// receive equal values; the result's columns are the distinct
    /// variables of `terms` in first-occurrence order.
    ///
    /// A *plain* atom — distinct variables, no constant — is the
    /// relation itself with its columns renamed: the result shares the
    /// relation's column storage and its index cache, so evaluating it
    /// is O(1) and every index the relation (or any other plain atom
    /// over it) has built serves it. When the atom carries constants,
    /// the scan probes the relation's cached column index instead of
    /// visiting every row.
    ///
    /// # Panics
    /// Panics if `terms.len() != rel.arity()`.
    pub fn from_atom(rel: &Relation, terms: &[Term]) -> Self {
        assert_eq!(
            terms.len(),
            rel.arity(),
            "atom arity {} does not match relation `{}` arity {}",
            terms.len(),
            rel.name(),
            rel.arity()
        );
        let shape = AtomShape::of(terms);
        if shape.const_cols.is_empty() && shape.eq_pairs.is_empty() {
            // Every term is a distinct variable, so column `j` of the
            // relation is variable `j` of the atom.
            return Bindings {
                vars: shape.vars,
                cols: rel.columnar(),
                indexes: Arc::clone(rel.index_cache()),
            };
        }
        // Column-wise evaluation: select matching row ids against the
        // relation's columns, then gather the variable columns.
        let store = rel.columnar();
        let keep: Vec<usize> = if !shape.const_cols.is_empty() && rel.len() >= 16 {
            // Constant-selective atom: probe the cached index on the
            // constant columns instead of scanning.
            let idx = rel.group_index(&shape.const_cols);
            let identity: Vec<usize> = (0..shape.const_vals.len()).collect();
            idx.probe_cols(&shape.const_vals, &identity)
                .filter(|&i| shape.matches(&store, i))
                .collect()
        } else {
            (0..store.len())
                .filter(|&i| shape.matches(&store, i))
                .collect()
        };
        let out_cols: Vec<Vec<Value>> = shape
            .first_pos
            .iter()
            .map(|&p| {
                let col = store.col(p);
                keep.iter().map(|&i| col[i]).collect()
            })
            .collect();
        Bindings::new(shape.vars, ColumnarRows::from_columns(keep.len(), out_cols))
    }

    /// Natural join on shared variables. With no shared variables this is a
    /// cross product; with identical variable sets it is an intersection.
    pub fn join(&self, other: &Bindings) -> Bindings {
        // Unit shortcuts: `unit ⋈ B = B` shares B's row storage; a
        // variable-free empty side annihilates to empty-over-B's-vars.
        if self.vars.is_empty() {
            return if self.is_empty() {
                Bindings::empty(other.vars.clone())
            } else {
                other.clone()
            };
        }
        if other.vars.is_empty() {
            return if other.is_empty() {
                Bindings::empty(self.vars.clone())
            } else {
                self.clone()
            };
        }
        // Join the smaller side as the build side.
        if self.len() > other.len() {
            return other.join_ordered(self);
        }
        self.join_ordered(other)
    }

    /// Natural join keeping `self`'s columns first (build side = `self`).
    fn join_ordered(&self, probe: &Bindings) -> Bindings {
        let (build_pos, probe_pos) = self.shared_positions(probe);
        let extra: Vec<usize> = (0..probe.vars.len())
            .filter(|i| !probe_pos.contains(i))
            .collect();
        self.join_gathered(probe, &build_pos, &probe_pos, &extra)
    }

    /// Shared keyed-join body (build side = `self`, its columns first,
    /// probe-major row order): probe `self`'s cached index over
    /// `build_pos` with every probe row's key at `probe_pos`, appending
    /// the probe columns in `extra`.
    ///
    /// All probe keys are hashed in one batched column pass and matched
    /// against the index's stored group keys; the output is built
    /// **column by column** with gather loops — no per-row
    /// `Box<[Value]>` is ever allocated.
    fn join_gathered(
        &self,
        probe: &Bindings,
        build_pos: &[usize],
        probe_pos: &[usize],
        extra: &[usize],
    ) -> Bindings {
        let mut out_vars = self.vars.clone();
        out_vars.extend(extra.iter().map(|&i| probe.vars[i]));

        let idx = self.binding_index(build_pos);
        let bc = self.columnar();
        let pc = probe.columnar();
        // Matching (build row, probe row) id pairs, probe-major.
        let mut bids: Vec<u32> = Vec::with_capacity(pc.len());
        let mut pids: Vec<u32> = Vec::with_capacity(pc.len());
        if let [c] = *probe_pos {
            // Single-column key: hash and probe in one fused pass over
            // the dense probe column.
            for (i, v) in pc.col(c).iter().enumerate() {
                for bi in idx.probe(hashjoin::hash_value(v), |gkey| gkey[0] == *v) {
                    bids.push(bi as u32);
                    pids.push(i as u32);
                }
            }
        } else {
            let mut hashes = Vec::new();
            hashjoin::hash_columns_into(pc, probe_pos, &mut hashes);
            let probe_keys: Vec<&[Value]> = probe_pos.iter().map(|&c| pc.col(c)).collect();
            for (i, &h) in hashes.iter().enumerate() {
                for bi in idx.probe(h, |gkey| {
                    gkey.iter()
                        .zip(probe_keys.iter())
                        .all(|(kv, col)| *kv == col[i])
                }) {
                    bids.push(bi as u32);
                    pids.push(i as u32);
                }
            }
        }
        let mut out_cols: Vec<Vec<Value>> = Vec::with_capacity(out_vars.len());
        for c in 0..bc.arity() {
            let col = bc.col(c);
            out_cols.push(bids.iter().map(|&i| col[i as usize]).collect());
        }
        for &p in extra {
            let col = pc.col(p);
            out_cols.push(pids.iter().map(|&i| col[i as usize]).collect());
        }
        Bindings::new(out_vars, ColumnarRows::from_columns(bids.len(), out_cols))
    }

    /// Natural join on a **pre-planned** key set — the plan executor's
    /// entry point. `keys` must be exactly the variables shared by the
    /// two sides (checked in debug builds); the result is
    /// [`Bindings::join`]'s, keyed like every other kernel on the shared
    /// variables in [`VarId`] order.
    pub fn join_on(&self, other: &Bindings, keys: &[VarId]) -> Bindings {
        debug_assert!(
            self.shares_exactly(other, keys),
            "join_on keys must be the shared variables"
        );
        self.join(other)
    }

    /// Semijoin on a **pre-planned** key set — the plan executor's
    /// filtering entry point; `keys` must be exactly the shared
    /// variables (checked in debug builds), and the result is
    /// [`Bindings::semijoin`]'s.
    pub fn semijoin_on(&self, other: &Bindings, keys: &[VarId]) -> Bindings {
        debug_assert!(
            self.shares_exactly(other, keys),
            "semijoin_on keys must be the shared variables"
        );
        self.semijoin(other)
    }

    /// Whether `keys` are exactly the variables `self` and `other` share.
    fn shares_exactly(&self, other: &Bindings, keys: &[VarId]) -> bool {
        let (shared, _) = self.shared_positions(other);
        shared.len() == keys.len()
            && keys
                .iter()
                .all(|k| shared.iter().any(|&i| self.vars[i] == *k))
    }

    /// Keep the rows of `self` whose key at `self_pos` hits (`keep_hits`)
    /// or misses (`!keep_hits`) a group of `idx` — the shared body of
    /// semijoin and antijoin. Surviving rows are gathered column by
    /// column, and a no-op filter shares storage via `clone`.
    fn filter_by_index(&self, idx: &GroupIndex, self_pos: &[usize], keep_hits: bool) -> Self {
        let kept = self.rows_by_index(idx, self_pos, keep_hits);
        if kept.len() == self.len() {
            return self.clone();
        }
        Bindings::new(self.vars.clone(), self.cols.gather(&kept))
    }

    /// Ids of the rows of `self` whose key at `self_pos` hits
    /// (`keep_hits`) or misses (`!keep_hits`) a group of `idx`, in row
    /// order. All keys are batch-hashed in one column pass and probed
    /// against the index's stored group keys.
    fn rows_by_index(&self, idx: &GroupIndex, self_pos: &[usize], keep_hits: bool) -> Vec<usize> {
        let sc = &self.cols;
        let mut kept: Vec<usize> = Vec::with_capacity(sc.len());
        if let [c] = *self_pos {
            // Single-column key (the common case): hash and probe in one
            // fused pass over the dense key column.
            for (i, v) in sc.col(c).iter().enumerate() {
                let hit = idx
                    .find_group(hashjoin::hash_value(v), |gkey| gkey[0] == *v)
                    .is_some();
                if hit == keep_hits {
                    kept.push(i);
                }
            }
        } else {
            let mut hashes = Vec::new();
            hashjoin::hash_columns_into(sc, self_pos, &mut hashes);
            let key_cols: Vec<&[Value]> = self_pos.iter().map(|&c| sc.col(c)).collect();
            for (i, &h) in hashes.iter().enumerate() {
                let hit = idx
                    .find_group(h, |gkey| {
                        gkey.iter()
                            .zip(key_cols.iter())
                            .all(|(kv, col)| *kv == col[i])
                    })
                    .is_some();
                if hit == keep_hits {
                    kept.push(i);
                }
            }
        }
        kept
    }

    /// Join with an atom: `self ⋈ eval(rel, terms)`.
    ///
    /// Probes the relation's cached per-column-set index
    /// ([`Relation::group_index`]), so repeated joins against the same
    /// relation share one build side instead of rebuilding a hash table
    /// per call.
    pub fn join_atom(&self, rel: &Relation, terms: &[Term]) -> Bindings {
        assert_eq!(
            terms.len(),
            rel.arity(),
            "atom arity {} does not match relation `{}` arity {}",
            terms.len(),
            rel.name(),
            rel.arity()
        );
        let shape = AtomShape::of(terms);
        // Shared variables and their positions on both sides.
        let mut self_pos = Vec::new();
        let mut rel_cols = Vec::new();
        for (vi, v) in shape.vars.iter().enumerate() {
            if let Some(p) = self.position(*v) {
                self_pos.push(p);
                rel_cols.push(shape.first_pos[vi]);
            }
        }
        if self.vars.is_empty() || self_pos.is_empty() {
            // Cross product (or unit join): no key to probe on.
            return self.join(&Bindings::from_atom(rel, terms));
        }
        // Atom variables not bound by `self`, in first-occurrence order.
        let mut extra_vars = Vec::new();
        let mut extra_pos = Vec::new();
        for (vi, v) in shape.vars.iter().enumerate() {
            if self.position(*v).is_none() {
                extra_vars.push(*v);
                extra_pos.push(shape.first_pos[vi]);
            }
        }
        let mut out_vars = self.vars.clone();
        out_vars.extend(extra_vars.iter().copied());

        // Probe the relation's cached index with every row's key, hashed
        // in one batch; keep (self row, relation row) id pairs whose
        // relation row fits the atom's shape, self-major.
        let idx = rel.group_index(&rel_cols);
        let store = rel.columnar();
        let sc = &self.cols;
        let mut hashes = Vec::new();
        hashjoin::hash_columns_into(sc, &self_pos, &mut hashes);
        let key_cols: Vec<&[Value]> = self_pos.iter().map(|&c| sc.col(c)).collect();
        let mut sids: Vec<usize> = Vec::with_capacity(sc.len());
        let mut rids: Vec<usize> = Vec::with_capacity(sc.len());
        for (i, &h) in hashes.iter().enumerate() {
            let group = idx.probe(h, |gkey| {
                gkey.iter()
                    .zip(key_cols.iter())
                    .all(|(kv, col)| *kv == col[i])
            });
            for ri in group.filter(|&ri| shape.matches(&store, ri)) {
                sids.push(i);
                rids.push(ri);
            }
        }
        let mut out_cols: Vec<Vec<Value>> = Vec::with_capacity(out_vars.len());
        for c in 0..sc.arity() {
            let col = sc.col(c);
            out_cols.push(sids.iter().map(|&i| col[i]).collect());
        }
        for &p in &extra_pos {
            let col = store.col(p);
            out_cols.push(rids.iter().map(|&i| col[i]).collect());
        }
        Bindings::new(out_vars, ColumnarRows::from_columns(sids.len(), out_cols))
    }

    /// Projection `π_vars(self)` with duplicate elimination.
    ///
    /// Variables in `vars` not present in `self` are ignored (projecting a
    /// join onto `att(R)` may mention variables the join lost to emptiness).
    pub fn project(&self, vars: &[VarId]) -> Bindings {
        let cols: Vec<usize> = vars.iter().filter_map(|&v| self.position(v)).collect();
        if cols.len() == self.vars.len() && cols.iter().enumerate().all(|(i, &c)| i == c) {
            // Identity projection: rows are already distinct (invariant),
            // so share the storage instead of copying and re-deduping.
            return self.clone();
        }
        let out_vars: Vec<VarId> = cols.iter().map(|&c| self.vars[c]).collect();
        // Hash-of-column-slice dedup: batch-hash every projected key,
        // keep first-seen row ids, gather the kept key columns.
        let sc = self.columnar();
        let mut hashes = Vec::new();
        hashjoin::hash_columns_into(sc, &cols, &mut hashes);
        let key_cols: Vec<&[Value]> = cols.iter().map(|&c| sc.col(c)).collect();
        let mut table = RawTable::with_capacity(self.len());
        let mut kept: Vec<usize> = Vec::new();
        for (i, &h) in hashes.iter().enumerate() {
            let seen = table
                .find(h, |id| {
                    let j = kept[id as usize];
                    key_cols.iter().all(|col| col[i] == col[j])
                })
                .is_some();
            if !seen {
                table.insert_new(h, kept.len() as u32);
                kept.push(i);
            }
        }
        let out_cols: Vec<Vec<Value>> = key_cols
            .iter()
            .map(|col| kept.iter().map(|&i| col[i]).collect())
            .collect();
        Bindings::new(out_vars, ColumnarRows::from_columns(kept.len(), out_cols))
    }

    /// Count of distinct tuples over `vars` (`|π_vars(self)|`) without
    /// materializing the projection rows.
    pub fn count_distinct(&self, vars: &[VarId]) -> usize {
        let cols: Vec<usize> = vars.iter().filter_map(|&v| self.position(v)).collect();
        // Same hash-of-column-slice dedup as `project`, counting only.
        let sc = self.columnar();
        let mut hashes = Vec::new();
        hashjoin::hash_columns_into(sc, &cols, &mut hashes);
        let key_cols: Vec<&[Value]> = cols.iter().map(|&c| sc.col(c)).collect();
        let mut table = RawTable::with_capacity(self.len());
        for (i, &h) in hashes.iter().enumerate() {
            let seen = table
                .find(h, |id| {
                    let j = id as usize;
                    key_cols.iter().all(|col| col[i] == col[j])
                })
                .is_some();
            if !seen {
                table.insert_new(h, i as u32);
            }
        }
        table.len()
    }

    /// Number of distinct keys over `vars`, computed from the cached group
    /// index — the λ-join planner's selectivity statistic (`len /
    /// distinct_keys` is the average hash-join fan-out of probing this
    /// side on `vars`). Unlike [`Bindings::count_distinct`] the index is
    /// cached, so the joins that follow the planning pass reuse it.
    ///
    /// Variables absent from `self` are ignored; with no present variable
    /// the key is empty, so there is one distinct key unless `self` is
    /// empty.
    pub fn distinct_keys(&self, vars: &[VarId]) -> usize {
        let cols: Vec<usize> = vars.iter().filter_map(|&v| self.position(v)).collect();
        if cols.is_empty() {
            return usize::from(!self.is_empty());
        }
        self.binding_index(&cols).num_groups()
    }

    /// Column positions, on `self` and on `other`, of the variables the
    /// two share, ordered by [`VarId`] — the one key order of every keyed
    /// kernel. A `Bindings`' cached [`GroupIndex`] for a variable set
    /// therefore has one key whatever the column order of the partner
    /// it was built against.
    pub(crate) fn shared_positions_into(
        &self,
        other: &Bindings,
        self_pos: &mut Vec<usize>,
        other_pos: &mut Vec<usize>,
    ) {
        self_pos.clear();
        self_pos.extend((0..self.vars.len()).filter(|&i| other.position(self.vars[i]).is_some()));
        self_pos.sort_unstable_by_key(|&i| self.vars[i]);
        other_pos.clear();
        other_pos.extend(
            self_pos
                .iter()
                .map(|&i| other.position(self.vars[i]).expect("shared")),
        );
    }

    /// [`Bindings::shared_positions_into`] into fresh vectors.
    fn shared_positions(&self, other: &Bindings) -> (Vec<usize>, Vec<usize>) {
        let (mut self_pos, mut other_pos) = (Vec::new(), Vec::new());
        self.shared_positions_into(other, &mut self_pos, &mut other_pos);
        (self_pos, other_pos)
    }

    /// Semijoin `self ⋉ other`: rows of `self` whose shared-variable
    /// projection appears in `other`. With no shared variables this keeps
    /// all rows iff `other` is non-empty.
    pub fn semijoin(&self, other: &Bindings) -> Bindings {
        let (self_pos, other_pos) = self.shared_positions(other);
        if self_pos.is_empty() {
            return if other.is_empty() {
                Bindings::empty(self.vars.clone())
            } else {
                self.clone()
            };
        }
        self.filter_by_index(&other.binding_index(&other_pos), &self_pos, true)
    }

    /// Semijoin `self` with every relation in `others` in one pass:
    /// `self ⋉ o₁ ⋉ … ⋉ o_k`, probing all the others' cached indexes
    /// row by row with short-circuit on the first miss. The probe count
    /// matches folding binary semijoins left to right (a row dropped by
    /// `o_j` is never probed on `o_{j+1}`), but the k−1 intermediate
    /// gathers disappear — survivors are materialized exactly once. The
    /// engine's bottom-up reducer sweep (`r[i]` against every child's
    /// memoized relation) is the intended caller.
    pub fn semijoin_all(&self, others: &[&Bindings]) -> Bindings {
        // An empty operand empties the result whether or not variables
        // are shared; a non-empty operand with no shared variables is no
        // constraint at all.
        if others.iter().any(|o| o.is_empty()) {
            return Bindings::empty(self.vars.clone());
        }
        let mut probes: Vec<(Arc<GroupIndex>, Vec<usize>)> = Vec::with_capacity(others.len());
        for o in others {
            let (self_pos, other_pos) = self.shared_positions(o);
            if !self_pos.is_empty() {
                probes.push((o.binding_index(&other_pos), self_pos));
            }
        }
        if probes.is_empty() {
            return self.clone();
        }
        let sc = self.columnar();
        let hits_all = |i: usize| {
            probes.iter().all(|(idx, self_pos)| {
                if let [c] = self_pos[..] {
                    let v = &sc.col(c)[i];
                    idx.find_group(hashjoin::hash_value(v), |gkey| gkey[0] == *v)
                        .is_some()
                } else {
                    let h = hashjoin::hash_cols_at(sc, self_pos, i);
                    idx.find_group(h, |gkey| {
                        gkey.iter()
                            .zip(self_pos.iter())
                            .all(|(kv, &c)| *kv == sc.col(c)[i])
                    })
                    .is_some()
                }
            })
        };
        let mut kept: Vec<usize> = Vec::with_capacity(sc.len());
        for i in 0..sc.len() {
            if hits_all(i) {
                kept.push(i);
            }
        }
        if kept.len() == self.len() {
            return self.clone();
        }
        Bindings::new(self.vars.clone(), sc.gather(&kept))
    }

    /// Semijoin `self ⋉ other` that builds (and caches) the hash index
    /// on **`self`** and probes `other`'s rows — the mirror of
    /// [`Bindings::semijoin`], which indexes `other`. Answers are
    /// identical (rows stay in `self`'s order); the difference is pure
    /// cost. Use when `self` is long-lived and `other` is a small
    /// ephemeral relation: the engine's body assembly semijoins each
    /// stable atom relation against a stream of per-instantiation
    /// reduced vertex relations, so indexing the atom side turns every
    /// sweep after the first into pure probing of the small side.
    pub fn semijoin_indexed(&self, other: &Bindings) -> Bindings {
        let (self_pos, other_pos) = self.shared_positions(other);
        if self_pos.is_empty() {
            return if other.is_empty() {
                Bindings::empty(self.vars.clone())
            } else {
                self.clone()
            };
        }
        let idx = self.binding_index(&self_pos);
        let (hit, n_rows) = Self::hit_groups(&idx, other, &other_pos);
        if n_rows == self.len() {
            return self.clone();
        }
        // Surviving rows, restored to `self`'s original row order.
        let mut kept: Vec<usize> = Vec::with_capacity(n_rows);
        for (g, &h) in hit.iter().enumerate() {
            if h {
                kept.extend(idx.group_rows(g));
            }
        }
        kept.sort_unstable();
        Bindings::new(self.vars.clone(), self.columnar().gather(&kept))
    }

    /// Mark the groups of `idx` (an index over one side's key columns)
    /// whose key occurs among `probe`'s rows at `probe_pos`. Returns the
    /// per-group hit mask and the total row count of the hit groups —
    /// exactly the semijoin survivor count of the indexed side.
    fn hit_groups(idx: &GroupIndex, probe: &Bindings, probe_pos: &[usize]) -> (Vec<bool>, usize) {
        let mut hit = vec![false; idx.num_groups()];
        let mut n_rows = 0usize;
        let mut mark = |found: Option<usize>| {
            if let Some(g) = found {
                if !hit[g] {
                    hit[g] = true;
                    n_rows += idx.group_count(g);
                }
            }
        };
        let pc = probe.columnar();
        if let [c] = *probe_pos {
            for v in pc.col(c) {
                mark(idx.find_group(hashjoin::hash_value(v), |gkey| gkey[0] == *v));
            }
        } else {
            let mut hashes = Vec::with_capacity(pc.len());
            hashjoin::hash_columns_into(pc, probe_pos, &mut hashes);
            let key_cols: Vec<&[Value]> = probe_pos.iter().map(|&c| pc.col(c)).collect();
            for (i, &h) in hashes.iter().enumerate() {
                mark(idx.find_group(h, |gkey| {
                    gkey.iter()
                        .zip(key_cols.iter())
                        .all(|(kv, col)| *kv == col[i])
                }));
            }
        }
        (hit, n_rows)
    }

    /// Number of `probe` rows whose key at `probe_pos` hits a group of
    /// `idx` — the semijoin survivor count of the *probing* side.
    fn count_hits(idx: &GroupIndex, probe: &Bindings, probe_pos: &[usize]) -> usize {
        let pc = probe.columnar();
        if let [c] = *probe_pos {
            return pc
                .col(c)
                .iter()
                .filter(|v| {
                    idx.find_group(hashjoin::hash_value(v), |gkey| gkey[0] == **v)
                        .is_some()
                })
                .count();
        }
        let mut hashes = Vec::with_capacity(pc.len());
        hashjoin::hash_columns_into(pc, probe_pos, &mut hashes);
        let key_cols: Vec<&[Value]> = probe_pos.iter().map(|&c| pc.col(c)).collect();
        hashes
            .iter()
            .enumerate()
            .filter(|&(i, &h)| {
                idx.find_group(h, |gkey| {
                    gkey.iter()
                        .zip(key_cols.iter())
                        .all(|(kv, col)| *kv == col[i])
                })
                .is_some()
            })
            .count()
    }

    /// Group-vs-group semijoin count: both group keys are flattened in
    /// the same shared-var order, so the count is pure index-vs-index
    /// key probing driven by the side with fewer distinct keys
    /// (`|self ⋉ other| = Σ |self-group k| over keys k of both`).
    fn count_group_vs_group(self_idx: &GroupIndex, other_idx: &GroupIndex) -> usize {
        if self_idx.num_groups() <= other_idx.num_groups() {
            (0..self_idx.num_groups())
                .filter(|&g| other_idx.probe_group_key(self_idx.group_key(g)).is_some())
                .map(|g| self_idx.group_count(g))
                .sum()
        } else {
            (0..other_idx.num_groups())
                .filter_map(|g| {
                    self_idx
                        .probe_group_key(other_idx.group_key(g))
                        .map(|(_, size)| size)
                })
                .sum()
        }
    }

    /// `|self ⋉ other|` without materializing the surviving rows — pure
    /// index probing. `findRules` counts with it every reducer step whose
    /// rows nothing reads, and the support (an atom against its reduced
    /// home vertex); the cover/confidence
    /// pair of `findHeads` runs through [`crate::HeadTable`] instead,
    /// which answers both directions for every head from one pass over
    /// the body join.
    ///
    /// The probe direction follows the cached-index state so a count
    /// never builds an index that won't pay for itself: with both sides
    /// cached it is group-vs-group probing; with only `other`'s cached,
    /// `self`'s rows probe it directly; with only `self`'s cached, a
    /// *small* `other` marks hit groups row-by-row while a large one is
    /// worth indexing (the build is cached, so re-counting the same
    /// large operand against many small ones pays it once).
    pub fn semijoin_count(&self, other: &Bindings) -> usize {
        let (self_pos, other_pos) = self.shared_positions(other);
        if self_pos.is_empty() {
            return if other.is_empty() { 0 } else { self.len() };
        }
        match (self.cached_index(&self_pos), other.cached_index(&other_pos)) {
            (Some(self_idx), Some(other_idx)) => Self::count_group_vs_group(&self_idx, &other_idx),
            (None, Some(other_idx)) => Self::count_hits(&other_idx, self, &self_pos),
            (self_cached, None) => {
                let self_idx = self_cached.unwrap_or_else(|| self.binding_index(&self_pos));
                if other.len() <= self_idx.num_groups() {
                    Self::hit_groups(&self_idx, other, &other_pos).1
                } else {
                    Self::count_group_vs_group(&self_idx, &other.binding_index(&other_pos))
                }
            }
        }
    }

    /// Antijoin `self ▷ other`: rows of `self` whose shared-variable
    /// projection does **not** appear in `other` — the complement of
    /// [`Bindings::semijoin`]. With no shared variables this keeps all
    /// rows iff `other` is empty (negation-as-failure on a closed
    /// condition). Used by the negated-literal extension of metaqueries.
    pub fn antijoin(&self, other: &Bindings) -> Bindings {
        let (self_pos, other_pos) = self.shared_positions(other);
        if self_pos.is_empty() {
            return if other.is_empty() {
                self.clone()
            } else {
                Bindings::empty(self.vars.clone())
            };
        }
        self.filter_by_index(&other.binding_index(&other_pos), &self_pos, false)
    }

    /// Natural join of a list of atoms over their relations: `J(R)`.
    ///
    /// Joins left to right; callers wanting a good order should sort atoms.
    pub fn join_all(atoms: &[(&Relation, &[Term])]) -> Bindings {
        let mut acc = Bindings::unit();
        for (rel, terms) in atoms {
            acc = acc.join_atom(rel, terms);
            if acc.is_empty() {
                // Short-circuit: vars of remaining atoms are irrelevant for
                // emptiness, and callers project with missing-var tolerance.
                break;
            }
        }
        acc
    }

    /// Sort rows lexicographically (for deterministic display/tests).
    pub fn sorted(self) -> Bindings {
        let sc = &self.cols;
        let mut order: Vec<usize> = (0..sc.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            (0..sc.arity())
                .map(|c| sc.col(c)[a].cmp(&sc.col(c)[b]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // Row order changed, so the cached indexes do not carry over.
        Bindings::new(self.vars, sc.gather(&order))
    }
}

impl fmt::Debug for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Bindings over {:?}:", self.vars)?;
        for row in self.to_rows() {
            writeln!(f, "  {row:?}")?;
        }
        Ok(())
    }
}

/// The pre-optimization kernels: one boxed key per row, hash tables
/// rebuilt from scratch per operation. Kept as the oracle for the
/// randomized equivalence tests; nothing in the engine calls them.
pub mod baseline {
    use super::*;
    use std::collections::HashMap;

    /// Baseline `from_atom`: per-row `HashMap` unification.
    pub fn from_atom(rel: &Relation, terms: &[Term]) -> Bindings {
        let vars = distinct_vars(terms);
        let first_pos: Vec<usize> = vars
            .iter()
            .map(|v| {
                terms
                    .iter()
                    .position(|t| t.as_var() == Some(*v))
                    .expect("var came from terms")
            })
            .collect();
        let mut rows = Vec::new();
        'rows: for row in rel.to_rows() {
            let mut assignment: HashMap<VarId, Value> = HashMap::with_capacity(vars.len());
            for (t, &val) in terms.iter().zip(row.iter()) {
                match t {
                    Term::Const(c) => {
                        if *c != val {
                            continue 'rows;
                        }
                    }
                    Term::Var(v) => match assignment.get(v) {
                        Some(&prev) if prev != val => continue 'rows,
                        Some(_) => {}
                        None => {
                            assignment.insert(*v, val);
                        }
                    },
                }
            }
            rows.push(first_pos.iter().map(|&p| row[p]).collect());
        }
        Bindings::from_parts(vars, rows)
    }

    /// Baseline natural join (build side = `build`, its columns first).
    pub fn join_ordered(build: &Bindings, probe: &Bindings) -> Bindings {
        let shared: Vec<VarId> = build
            .vars
            .iter()
            .copied()
            .filter(|v| probe.position(*v).is_some())
            .collect();
        let build_pos: Vec<usize> = shared.iter().map(|&v| build.position(v).unwrap()).collect();
        let probe_pos: Vec<usize> = shared.iter().map(|&v| probe.position(v).unwrap()).collect();
        let extra: Vec<usize> = (0..probe.vars.len())
            .filter(|&i| !shared.contains(&probe.vars[i]))
            .collect();

        let mut out_vars = build.vars.clone();
        out_vars.extend(extra.iter().map(|&i| probe.vars[i]));

        let build_rows = build.to_rows();
        let mut table: HashMap<Box<[Value]>, Vec<usize>> = HashMap::new();
        for (i, row) in build_rows.iter().enumerate() {
            let key: Box<[Value]> = build_pos.iter().map(|&p| row[p]).collect();
            table.entry(key).or_default().push(i);
        }

        let mut out_rows = Vec::new();
        for prow in probe.to_rows() {
            let key: Box<[Value]> = probe_pos.iter().map(|&p| prow[p]).collect();
            if let Some(matches) = table.get(&key) {
                for &bi in matches {
                    let brow = &build_rows[bi];
                    let mut row = Vec::with_capacity(out_vars.len());
                    row.extend_from_slice(brow);
                    row.extend(extra.iter().map(|&p| prow[p]));
                    out_rows.push(row.into_boxed_slice());
                }
            }
        }
        Bindings::from_parts(out_vars, out_rows)
    }

    /// Baseline natural join with smaller-side build.
    pub fn join(a: &Bindings, b: &Bindings) -> Bindings {
        if a.len() > b.len() {
            join_ordered(b, a)
        } else {
            join_ordered(a, b)
        }
    }

    /// Baseline projection: one boxed key per row, stored twice.
    pub fn project(b: &Bindings, vars: &[VarId]) -> Bindings {
        let cols: Vec<usize> = vars.iter().filter_map(|&v| b.position(v)).collect();
        let out_vars: Vec<VarId> = cols.iter().map(|&c| b.vars[c]).collect();
        let mut seen: HashSet<Box<[Value]>> = HashSet::with_capacity(b.len());
        let mut rows = Vec::new();
        for row in b.to_rows() {
            let proj: Box<[Value]> = cols.iter().map(|&c| row[c]).collect();
            if seen.insert(proj.clone()) {
                rows.push(proj);
            }
        }
        Bindings::from_parts(out_vars, rows)
    }

    /// Baseline distinct count.
    pub fn count_distinct(b: &Bindings, vars: &[VarId]) -> usize {
        let cols: Vec<usize> = vars.iter().filter_map(|&v| b.position(v)).collect();
        let mut seen: HashSet<Box<[Value]>> = HashSet::with_capacity(b.len());
        for row in b.to_rows() {
            let proj: Box<[Value]> = cols.iter().map(|&c| row[c]).collect();
            seen.insert(proj);
        }
        seen.len()
    }

    /// Baseline semijoin: key set rebuilt per call, one boxed key per row.
    pub fn semijoin(a: &Bindings, other: &Bindings) -> Bindings {
        let shared: Vec<VarId> = a
            .vars
            .iter()
            .copied()
            .filter(|v| other.position(*v).is_some())
            .collect();
        if shared.is_empty() {
            return if other.is_empty() {
                Bindings::empty(a.vars.clone())
            } else {
                a.clone()
            };
        }
        let self_pos: Vec<usize> = shared.iter().map(|&v| a.position(v).unwrap()).collect();
        let other_pos: Vec<usize> = shared.iter().map(|&v| other.position(v).unwrap()).collect();
        let keys: HashSet<Box<[Value]>> = other
            .to_rows()
            .iter()
            .map(|r| other_pos.iter().map(|&p| r[p]).collect())
            .collect();
        let rows: Vec<Tuple> = a
            .to_rows()
            .into_iter()
            .filter(|r| {
                let key: Box<[Value]> = self_pos.iter().map(|&p| r[p]).collect();
                keys.contains(&key)
            })
            .collect();
        Bindings::from_parts(a.vars.clone(), rows)
    }

    /// Baseline antijoin.
    pub fn antijoin(a: &Bindings, other: &Bindings) -> Bindings {
        let shared: Vec<VarId> = a
            .vars
            .iter()
            .copied()
            .filter(|v| other.position(*v).is_some())
            .collect();
        if shared.is_empty() {
            return if other.is_empty() {
                a.clone()
            } else {
                Bindings::empty(a.vars.clone())
            };
        }
        let self_pos: Vec<usize> = shared.iter().map(|&v| a.position(v).unwrap()).collect();
        let other_pos: Vec<usize> = shared.iter().map(|&v| other.position(v).unwrap()).collect();
        let keys: HashSet<Box<[Value]>> = other
            .to_rows()
            .iter()
            .map(|r| other_pos.iter().map(|&p| r[p]).collect())
            .collect();
        let rows: Vec<Tuple> = a
            .to_rows()
            .into_iter()
            .filter(|r| {
                let key: Box<[Value]> = self_pos.iter().map(|&p| r[p]).collect();
                !keys.contains(&key)
            })
            .collect();
        Bindings::from_parts(a.vars.clone(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ints;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn rel_e() -> Relation {
        // e = {(1,2),(2,3),(3,4)}
        Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[2, 3]), ints(&[3, 4])])
    }

    #[test]
    fn bindings_are_send_and_sync() {
        // The frozen column store + thread-safe index cache make Bindings
        // shareable across worker threads — the shared memo service and
        // the parallel scheduler both rely on this bound.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Bindings>();
    }

    #[test]
    fn from_atom_basic() {
        let e = rel_e();
        let b = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        assert_eq!(b.vars(), &[v(0), v(1)]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn from_atom_repeated_var_filters() {
        let r = Relation::from_rows("p", 2, vec![ints(&[1, 1]), ints(&[1, 2]), ints(&[2, 2])]);
        let b = Bindings::from_atom(&r, &[Term::Var(v(0)), Term::Var(v(0))]);
        assert_eq!(b.vars(), &[v(0)]);
        assert_eq!(b.len(), 2); // X=1 and X=2
    }

    #[test]
    fn from_atom_constant_filters() {
        let e = rel_e();
        let b = Bindings::from_atom(&e, &[Term::Const(Value::Int(2)), Term::Var(v(1))]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.to_rows()[0][0], Value::Int(3));
    }

    #[test]
    fn from_atom_constant_indexed_path() {
        // ≥ 16 rows takes the cached-index probe path.
        let rows: Vec<Tuple> = (0..40).map(|i| ints(&[i % 4, i])).collect();
        let r = Relation::from_rows("p", 2, rows);
        let b = Bindings::from_atom(&r, &[Term::Const(Value::Int(2)), Term::Var(v(1))]);
        assert_eq!(b.len(), 10);
        assert!(b.to_rows().iter().all(|row| row.len() == 1));
        // Agrees with the baseline scan.
        let base = baseline::from_atom(&r, &[Term::Const(Value::Int(2)), Term::Var(v(1))]);
        assert_eq!(b.clone().sorted().to_rows(), base.sorted().to_rows());
    }

    #[test]
    fn join_path() {
        // e(X,Y) ⋈ e(Y,Z): paths of length 2 -> (1,2,3), (2,3,4)
        let e = rel_e();
        let xy = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        let yz = Bindings::from_atom(&e, &[Term::Var(v(1)), Term::Var(v(2))]);
        let j = xy.join(&yz).sorted();
        assert_eq!(j.len(), 2);
        assert_eq!(j.count_distinct(&[v(0), v(2)]), 2);
    }

    #[test]
    fn join_is_commutative_up_to_columns() {
        let e = rel_e();
        let a = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        let b = Bindings::from_atom(&e, &[Term::Var(v(1)), Term::Var(v(2))]);
        let ab = a.join(&b);
        let ba = b.join(&a);
        assert_eq!(ab.len(), ba.len());
        let all = [v(0), v(1), v(2)];
        assert_eq!(
            ab.project(&all).sorted().to_rows(),
            ba.project(&all).sorted().to_rows()
        );
    }

    #[test]
    fn join_no_shared_is_cross_product() {
        let e = rel_e();
        let a = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        let b = Bindings::from_atom(&e, &[Term::Var(v(2)), Term::Var(v(3))]);
        assert_eq!(a.join(&b).len(), 9);
    }

    #[test]
    fn unit_is_join_identity() {
        let e = rel_e();
        let a = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        let j = Bindings::unit().join(&a);
        assert_eq!(j.len(), a.len());
        assert_eq!(
            j.project(&[v(0), v(1)]).sorted().to_rows(),
            a.clone().sorted().to_rows()
        );
    }

    #[test]
    fn project_dedups() {
        let e = rel_e();
        let b = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        // project on nothing: single empty row (non-empty input)
        let p = b.project(&[]);
        assert_eq!(p.len(), 1);
        // missing variables are ignored
        let q = b.project(&[v(0), v(9)]);
        assert_eq!(q.vars(), &[v(0)]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn semijoin_filters() {
        let e = rel_e();
        let xy = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        let yz = Bindings::from_atom(&e, &[Term::Var(v(1)), Term::Var(v(2))]);
        let s = xy.semijoin(&yz);
        // rows of e(X,Y) with an outgoing edge from Y: (1,2),(2,3)
        assert_eq!(s.len(), 2);
    }

    /// Every keyed kernel keys an index by the shared variables in
    /// `VarId` order, so the index `semijoin_all` builds on a partner is
    /// the one `semijoin_count` finds when a column-permuted twin probes
    /// the same partner: no second index is built.
    #[test]
    fn shared_key_index_ignores_partner_column_order() {
        let other = Bindings::from_parts(
            vec![v(1), v(2), v(0)],
            vec![ints(&[10, 5, 1]), ints(&[20, 6, 2]), ints(&[30, 7, 3])],
        );
        let xy = Bindings::from_parts(
            vec![v(0), v(1)],
            vec![ints(&[1, 10]), ints(&[2, 99]), ints(&[3, 30])],
        );
        let yx = Bindings::from_parts(
            vec![v(1), v(0)],
            vec![ints(&[10, 1]), ints(&[99, 2]), ints(&[30, 3])],
        );
        assert_eq!(xy.semijoin_all(&[&other]).len(), 2);
        assert_eq!(other.indexes.len(), 1);
        let (_, other_pos) = yx.shared_positions(&other);
        assert!(
            other.cached_index(&other_pos).is_some(),
            "semijoin_count's key misses the index semijoin_all built"
        );
        assert_eq!(yx.semijoin_count(&other), 2);
        assert_eq!(
            other.indexes.len(),
            1,
            "a permuted partner built a second index"
        );
    }

    #[test]
    fn semijoin_disjoint_vars() {
        let e = rel_e();
        let a = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        let empty = Bindings::empty(vec![v(7)]);
        assert!(a.semijoin(&empty).is_empty());
        let nonempty = Bindings::from_atom(&e, &[Term::Var(v(7)), Term::Var(v(8))]);
        assert_eq!(a.semijoin(&nonempty).len(), a.len());
    }

    #[test]
    fn antijoin_is_complement_of_semijoin() {
        let e = rel_e();
        let xy = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        let yz = Bindings::from_atom(&e, &[Term::Var(v(1)), Term::Var(v(2))]);
        let semi = xy.semijoin(&yz);
        let anti = xy.antijoin(&yz);
        assert_eq!(semi.len() + anti.len(), xy.len());
        // disjoint
        let semi_rows = semi.to_rows();
        for row in anti.to_rows() {
            assert!(!semi_rows.contains(&row));
        }
    }

    #[test]
    fn antijoin_disjoint_vars() {
        let e = rel_e();
        let a = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        let empty = Bindings::empty(vec![v(7)]);
        assert_eq!(a.antijoin(&empty).len(), a.len());
        let nonempty = Bindings::from_atom(&e, &[Term::Var(v(7)), Term::Var(v(8))]);
        assert!(a.antijoin(&nonempty).is_empty());
    }

    #[test]
    fn join_all_short_circuits() {
        let e = rel_e();
        let empty = Relation::new("z", 1);
        let t0 = [Term::Var(v(0)), Term::Var(v(1))];
        let tz = [Term::Var(v(5))];
        let j = Bindings::join_all(&[(&empty, &tz), (&e, &t0)]);
        assert!(j.is_empty());
    }

    #[test]
    fn join_atom_matches_join_of_from_atom() {
        let e = rel_e();
        let xy = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        let terms = [Term::Var(v(1)), Term::Var(v(2))];
        let fast = xy.join_atom(&e, &terms);
        let slow = xy.join(&Bindings::from_atom(&e, &terms));
        let all = [v(0), v(1), v(2)];
        assert_eq!(
            fast.project(&all).sorted().to_rows(),
            slow.project(&all).sorted().to_rows()
        );
    }

    #[test]
    fn join_atom_with_constants_and_repeats() {
        let r = Relation::from_rows(
            "p",
            3,
            vec![
                ints(&[1, 1, 5]),
                ints(&[1, 2, 5]),
                ints(&[2, 2, 5]),
                ints(&[2, 2, 6]),
            ],
        );
        let e = rel_e();
        let xy = Bindings::from_atom(&e, &[Term::Var(v(0)), Term::Var(v(1))]);
        // p(Y, Y, 5): repeated var + constant.
        let terms = [Term::Var(v(1)), Term::Var(v(1)), Term::Const(Value::Int(5))];
        let fast = xy.join_atom(&r, &terms);
        let slow = xy.join(&Bindings::from_atom(&r, &terms));
        let all = [v(0), v(1)];
        assert_eq!(
            fast.project(&all).sorted().to_rows(),
            slow.project(&all).sorted().to_rows()
        );
    }

    #[test]
    fn join_atom_keeps_self_major_row_order() {
        // Output rows follow `self`'s row order, then each key's relation
        // rows in relation order; `self`'s columns come first.
        let q = Relation::from_rows(
            "q",
            2,
            vec![
                ints(&[1, 10]),
                ints(&[2, 20]),
                ints(&[1, 11]),
                ints(&[2, 21]),
                ints(&[1, 12]),
            ],
        );
        let x = Bindings::from_parts(vec![v(0)], vec![ints(&[2]), ints(&[1])]);
        let j = x.join_atom(&q, &[Term::Var(v(0)), Term::Var(v(1))]);
        assert_eq!(j.vars(), &[v(0), v(1)]);
        let want: Vec<Tuple> = [[2, 20], [2, 21], [1, 10], [1, 11], [1, 12]]
            .iter()
            .map(|r| ints(r))
            .collect();
        assert_eq!(j.to_rows(), want);
    }

    #[test]
    fn sorted_orders_rows_lexicographically() {
        let mut syms = crate::symbol::SymbolTable::new();
        let (a, b) = (Value::Sym(syms.intern("a")), Value::Sym(syms.intern("b")));
        let (i1, i2) = (Value::Int(1), Value::Int(2));
        let rows: Vec<Tuple> = vec![
            vec![b, i1].into(),
            vec![i2, a].into(),
            vec![i1, b].into(),
            vec![a, i2].into(),
            vec![i2, i1].into(),
            vec![i1, a].into(),
            vec![a, i1].into(),
        ];
        let s = Bindings::from_parts(vec![v(0), v(1)], rows).sorted();
        assert_eq!(s.vars(), &[v(0), v(1)]);
        // Ints order before symbols; ties on column 0 fall to column 1.
        let want: Vec<Tuple> = vec![
            vec![i1, a].into(),
            vec![i1, b].into(),
            vec![i2, i1].into(),
            vec![i2, a].into(),
            vec![a, i1].into(),
            vec![a, i2].into(),
            vec![b, i1].into(),
        ];
        assert_eq!(s.to_rows(), want);
        // The columns hold the same order as the rows.
        assert_eq!(s.columnar().col(0), &[i1, i1, i2, i2, a, a, b]);
        assert_eq!(s.columnar().col(1), &[a, b, i1, a, i1, i2, i1]);
    }

    #[test]
    fn distinct_keys_counts_groups() {
        let r = Relation::from_rows("p", 2, vec![ints(&[1, 1]), ints(&[1, 2]), ints(&[2, 1])]);
        let b = Bindings::from_atom(&r, &[Term::Var(v(0)), Term::Var(v(1))]);
        assert_eq!(b.distinct_keys(&[v(0)]), 2);
        assert_eq!(b.distinct_keys(&[v(0), v(1)]), 3);
        // Absent variables are ignored; a fully-absent key is the empty
        // key: one group for non-empty bindings, zero for empty ones.
        assert_eq!(b.distinct_keys(&[v(9)]), 1);
        assert_eq!(Bindings::empty(vec![v(0)]).distinct_keys(&[v(9)]), 0);
    }

    #[test]
    fn count_distinct_counts_projection() {
        let r = Relation::from_rows("p", 2, vec![ints(&[1, 1]), ints(&[1, 2]), ints(&[2, 1])]);
        let b = Bindings::from_atom(&r, &[Term::Var(v(0)), Term::Var(v(1))]);
        assert_eq!(b.count_distinct(&[v(0)]), 2);
        assert_eq!(b.count_distinct(&[v(1)]), 2);
        assert_eq!(b.count_distinct(&[v(0), v(1)]), 3);
    }
}
