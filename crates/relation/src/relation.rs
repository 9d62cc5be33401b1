//! Relations: named, fixed-arity sets of tuples.
//!
//! Per §2.1 a database is `(D, R1, ..., Rn)` where each `Ri ⊆ D^a(Ri)` is a
//! *set* — duplicate tuples are meaningless, and every cardinality in the
//! plausibility indices (Definition 2.6) counts distinct tuples. `Relation`
//! therefore deduplicates on insertion and keeps rows in insertion order for
//! deterministic iteration.
//!
//! The tuples are stored once, column-major, beside a membership table
//! of row ids; both are copied on write. A cache of column indexes rides
//! along and is replaced on write while shared. So a clone is O(1) in
//! the tuples and shares every index already built — and so does every
//! plain atom over the relation ([`crate::Bindings::from_atom`]).

use crate::hashjoin::{hash_vals, GroupIndex, RawTable};
use crate::value::{Tuple, Value};
use mq_store::{ColIndexCache, ColumnarRows};
use std::fmt;
use std::sync::Arc;

/// A named relation: a set of tuples of a fixed arity.
#[derive(Clone)]
pub struct Relation {
    name: String,
    /// The tuples, in insertion order — the storage every kernel scans.
    cols: ColumnarRows<Value>,
    /// Row hash -> row id, for O(1) membership; keys live in `cols`.
    members: Arc<RawTable>,
    /// Allocation-free column indexes over `cols`, built lazily behind a
    /// lock so the algebra can consult them through `&Relation` —
    /// including concurrently from the parallel `findRules` enumeration.
    /// Shared by every handle on the same columns: clones, catalog
    /// snapshots that did not touch the relation, and plain atoms. An
    /// insert clears the cache only when it is the sole owner and
    /// installs a fresh one otherwise, so an index of the old columns
    /// never serves the new ones.
    indexes: Arc<ColIndexCache<GroupIndex>>,
}

impl Relation {
    /// Create an empty relation with the given name and arity.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            cols: ColumnarRows::empty(arity),
            members: Arc::new(RawTable::with_capacity(0)),
            indexes: Arc::new(ColIndexCache::new()),
        }
    }

    /// Create a relation and bulk-insert `rows` (duplicates are dropped).
    ///
    /// # Panics
    /// Panics if any row's length differs from `arity`.
    pub fn from_rows(name: impl Into<String>, arity: usize, rows: Vec<Tuple>) -> Self {
        let mut rel = Relation::new(name, arity);
        for row in rows {
            rel.insert(row);
        }
        rel
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's arity `a(R)`.
    pub fn arity(&self) -> usize {
        self.cols.arity()
    }

    /// Number of (distinct) tuples, `|R|`.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The id of the row equal to `row` (whose hash is `hash`), if any.
    fn find(&self, hash: u64, row: &[Value]) -> Option<u32> {
        self.members.find(hash, |id| {
            let id = id as usize;
            row.iter()
                .enumerate()
                .all(|(c, v)| self.cols.value(id, c) == v)
        })
    }

    /// Insert a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if `row.len() != arity`.
    pub fn insert(&mut self, row: Tuple) -> bool {
        assert_eq!(
            row.len(),
            self.arity(),
            "tuple arity {} does not match relation `{}` arity {}",
            row.len(),
            self.name,
            self.arity()
        );
        let hash = hash_vals(&row);
        if self.find(hash, &row).is_some() {
            return false;
        }
        let id = u32::try_from(self.len()).expect("relation row ids fit in u32");
        let members = Arc::make_mut(&mut self.members);
        members.reserve(1);
        members.insert_new(hash, id);
        self.cols.push_row(&row);
        // Any previously built key indexes are now stale. A cache shared
        // with another handle still serves that handle's (old) columns.
        match Arc::get_mut(&mut self.indexes) {
            Some(cache) => cache.clear(),
            None => self.indexes = Arc::new(ColIndexCache::new()),
        }
        true
    }

    /// Replace the relation's contents wholesale (duplicates dropped, as
    /// on insert). Used by copy-on-write catalog updates; any cached
    /// group indexes are dropped.
    ///
    /// # Panics
    /// Panics if any row's length differs from the arity.
    pub fn replace_rows(&mut self, rows: Vec<Tuple>) {
        let name = std::mem::take(&mut self.name);
        *self = Relation::from_rows(name, self.arity(), rows);
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        row.len() == self.arity() && self.find(hash_vals(row), row).is_some()
    }

    /// Materialize every tuple as a boxed row, in insertion order.
    pub fn to_rows(&self) -> Vec<Tuple> {
        self.cols.to_rows()
    }

    /// Get (or build once and cache) the shared allocation-free hash
    /// index grouping rows by their values at `cols`.
    ///
    /// The index is built at most once per (relation, column-set) and
    /// shared by every join/semijoin that probes it — across the
    /// thousands of instantiations a metaquery engine evaluates, across
    /// threads, across clones, and across the plain atoms over the
    /// relation. Inserting into the relation drops it.
    pub fn group_index(&self, cols: &[usize]) -> Arc<GroupIndex> {
        self.indexes
            .get_or_build(cols, || GroupIndex::build_columnar(&self.cols, cols))
    }

    /// The relation's index cache, for the plain atoms that share it
    /// along with the columns.
    pub(crate) fn index_cache(&self) -> &Arc<ColIndexCache<GroupIndex>> {
        &self.indexes
    }

    /// The relation's column-major tuple storage, as an O(1) handle clone
    /// (later inserts copy the buffers first, so it never observes one).
    pub fn columnar(&self) -> ColumnarRows<Value> {
        self.cols.clone()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} ({} rows)", self.name, self.arity(), self.len())
    }
}

impl PartialEq for Relation {
    /// Set equality of contents (name and arity must also match).
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.arity() == other.arity()
            && self.len() == other.len()
            && self.to_rows().iter().all(|r| other.contains(r))
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{Bindings, Term, VarId};
    use crate::value::ints;

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new("e", 2);
        assert!(r.insert(ints(&[1, 2])));
        assert!(!r.insert(ints(&[1, 2])));
        assert!(r.insert(ints(&[2, 1])));
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new("e", 2);
        r.insert(ints(&[1, 2, 3]));
    }

    #[test]
    fn contains_and_rows() {
        let r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        assert!(r.contains(&ints(&[1, 2])));
        assert!(!r.contains(&ints(&[2, 1])));
        assert_eq!(r.to_rows(), vec![ints(&[1, 2]), ints(&[3, 4])]);
    }

    #[test]
    fn group_index_groups_rows() {
        let r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[1, 3]), ints(&[2, 3])]);
        let idx = r.group_index(&[0]);
        assert_eq!(idx.num_groups(), 2);
        let rows: Vec<usize> = idx.probe_cols(&ints(&[1]), &[0]).collect();
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    fn group_index_invalidated_by_insert() {
        let mut r = Relation::from_rows("e", 2, vec![ints(&[1, 2])]);
        let _ = r.group_index(&[0]);
        r.insert(ints(&[5, 6]));
        let idx = r.group_index(&[0]);
        assert!(idx.probe_cols(&ints(&[5]), &[0]).next().is_some());
    }

    #[test]
    fn replace_rows_swaps_contents_and_invalidates_indexes() {
        let mut r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        let _ = r.group_index(&[0]);
        r.replace_rows(vec![ints(&[9, 9]), ints(&[9, 9]), ints(&[8, 7])]);
        assert_eq!(r.len(), 2, "replacement deduplicates");
        assert!(r.contains(&ints(&[9, 9])));
        assert!(!r.contains(&ints(&[1, 2])));
        let idx = r.group_index(&[0]);
        assert!(idx.probe_cols(&ints(&[9]), &[0]).next().is_some());
        assert!(idx.probe_cols(&ints(&[1]), &[0]).next().is_none());
    }

    #[test]
    fn columnar_handles_never_observe_later_inserts() {
        let mut r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        let a = r.columnar();
        assert_eq!(a.col(0), &[Value::Int(1), Value::Int(3)]);
        assert!(mq_store::ColumnarRows::ptr_eq(&a, &r.columnar()));
        r.insert(ints(&[5, 6]));
        let c = r.columnar();
        assert!(!mq_store::ColumnarRows::ptr_eq(&a, &c));
        assert_eq!(a.len(), 2);
        assert_eq!(c.col(1), &[Value::Int(2), Value::Int(4), Value::Int(6)]);
    }

    #[test]
    fn clones_share_storage_and_indexes_until_written() {
        let r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        let idx = r.group_index(&[0, 1]);
        let mut c = r.clone();
        assert!(mq_store::ColumnarRows::ptr_eq(&r.columnar(), &c.columnar()));
        assert!(Arc::ptr_eq(&idx, &c.group_index(&[0, 1])));
        assert!(c.insert(ints(&[5, 6])));
        assert!(!c.insert(ints(&[1, 2])));
        assert_eq!((r.len(), c.len()), (2, 3));
        assert!(!r.contains(&ints(&[5, 6])));
        assert!(c.contains(&ints(&[5, 6])));
        assert!(Arc::ptr_eq(&idx, &r.group_index(&[0, 1])));
        assert_eq!(c.group_index(&[0, 1]).num_groups(), 3);
    }

    #[test]
    fn clones_share_indexes_built_after_the_clone() {
        let r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        let c = r.clone();
        let late = c.group_index(&[1]);
        assert!(Arc::ptr_eq(&late, &r.group_index(&[1])));
    }

    fn var_terms(vars: &[u32]) -> Vec<Term> {
        vars.iter().map(|&v| Term::Var(VarId(v))).collect()
    }

    #[test]
    fn plain_atoms_share_the_relations_columns_and_indexes() {
        let r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[1, 3]), ints(&[2, 3])]);
        let by_first = r.group_index(&[0]);
        // A plain atom is the relation renamed, in either variable order.
        let xy = Bindings::from_atom(&r, &var_terms(&[0, 1]));
        let yx = Bindings::from_atom(&r, &var_terms(&[1, 0]));
        for atom in [&xy, &yx] {
            assert!(ColumnarRows::ptr_eq(atom.columnar(), &r.columnar()));
            assert!(Arc::ptr_eq(&by_first, &atom.binding_index(&[0])));
        }
        assert_eq!(yx.vars(), &[VarId(1), VarId(0)]);
        // An index one atom builds serves the relation and the others.
        let by_second = xy.binding_index(&[1]);
        assert!(Arc::ptr_eq(&by_second, &r.group_index(&[1])));
        assert!(Arc::ptr_eq(&by_second, &yx.binding_index(&[1])));
        // A repeated variable or a constant filters rows: gathered.
        let diag = Bindings::from_atom(&r, &var_terms(&[0, 0]));
        assert!(!ColumnarRows::ptr_eq(diag.columnar(), &r.columnar()));
        let one = Bindings::from_atom(&r, &[Term::Const(Value::Int(1)), Term::Var(VarId(0))]);
        assert_eq!(one.len(), 2);
    }

    #[test]
    fn a_plain_atom_keeps_its_rows_and_indexes_across_an_insert() {
        let mut r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[1, 3])]);
        let atom = Bindings::from_atom(&r, &var_terms(&[0, 1]));
        let old = r.group_index(&[0]);
        assert!(r.insert(ints(&[1, 4])));
        // The atom still reads the old rows through the old index …
        assert_eq!(atom.len(), 2);
        assert!(Arc::ptr_eq(&old, &atom.binding_index(&[0])));
        assert_eq!(old.probe_cols(&ints(&[1]), &[0]).count(), 2);
        // … and an index it builds now, from the old rows, stays its own.
        let old_second = atom.binding_index(&[1]);
        assert_eq!(old_second.num_groups(), 2);
        // The relation answers from a fresh index over the new rows.
        let new = r.group_index(&[0]);
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(new.probe_cols(&ints(&[1]), &[0]).count(), 3);
        assert_eq!(r.group_index(&[1]).num_groups(), 3);
        // A sole owner's cache is cleared in place; it holds no stale index.
        let mut sole = Relation::from_rows("s", 1, vec![ints(&[1])]);
        let _ = sole.group_index(&[0]);
        sole.insert(ints(&[2]));
        assert_eq!(sole.group_index(&[0]).num_groups(), 2);
    }

    #[test]
    fn zero_arity_relation_holds_at_most_the_empty_tuple() {
        let mut r = Relation::new("t", 0);
        assert!(!r.contains(&[]));
        assert!(r.insert(ints(&[])));
        assert!(!r.insert(ints(&[])));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
    }

    #[test]
    fn set_equality() {
        let a = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        let b = Relation::from_rows("e", 2, vec![ints(&[3, 4]), ints(&[1, 2])]);
        assert_eq!(a, b);
    }
}
