//! Relations: named, fixed-arity sets of tuples.
//!
//! Per §2.1 a database is `(D, R1, ..., Rn)` where each `Ri ⊆ D^a(Ri)` is a
//! *set* — duplicate tuples are meaningless, and every cardinality in the
//! plausibility indices (Definition 2.6) counts distinct tuples. `Relation`
//! therefore deduplicates on insertion and keeps rows in insertion order for
//! deterministic iteration.
//!
//! The tuples are stored once, column-major, beside a membership table
//! of row ids. Both are copied on write, so a clone is O(1) in the tuples
//! and shares every index already built.

use crate::hashjoin::{hash_vals, GroupIndex, RawTable};
use crate::value::{Tuple, Value};
use mq_store::lock::{read_recover, write_recover};
use mq_store::ColumnarRows;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// A named relation: a set of tuples of a fixed arity.
pub struct Relation {
    name: String,
    /// The tuples, in insertion order — the storage every kernel scans.
    cols: ColumnarRows<Value>,
    /// Row hash -> row id, for O(1) membership; keys live in `cols`.
    members: Arc<RawTable>,
    /// Shared allocation-free column indexes, built lazily behind a lock
    /// so the algebra can consult them through `&Relation` — including
    /// concurrently from the parallel `findRules` enumeration. Clones
    /// share them (same tuples); inserting clears them.
    group_indexes: RwLock<HashMap<Box<[usize]>, Arc<GroupIndex>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            name: self.name.clone(),
            cols: self.cols.clone(),
            members: Arc::clone(&self.members),
            group_indexes: RwLock::new(read_recover(&self.group_indexes).clone()),
        }
    }
}

impl Relation {
    /// Create an empty relation with the given name and arity.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            cols: ColumnarRows::empty(arity),
            members: Arc::new(RawTable::with_capacity(0)),
            group_indexes: RwLock::new(HashMap::new()),
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
        // Any previously built key indexes are now stale.
        write_recover(&self.group_indexes).clear();
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
    /// threads, and across clones. Inserting into the relation drops it.
    pub fn group_index(&self, cols: &[usize]) -> Arc<GroupIndex> {
        if let Some(idx) = read_recover(&self.group_indexes).get(cols) {
            return Arc::clone(idx);
        }
        let built = Arc::new(GroupIndex::build_columnar(&self.cols, cols));
        // Another thread may have raced us; keep the first one inserted.
        Arc::clone(
            write_recover(&self.group_indexes)
                .entry(cols.into())
                .or_insert(built),
        )
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
