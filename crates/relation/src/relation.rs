//! Relations: named, fixed-arity sets of tuples.
//!
//! Per §2.1 a database is `(D, R1, ..., Rn)` where each `Ri ⊆ D^a(Ri)` is a
//! *set* — duplicate tuples are meaningless, and every cardinality in the
//! plausibility indices (Definition 2.6) counts distinct tuples. `Relation`
//! therefore deduplicates on insertion and keeps rows in insertion order for
//! deterministic iteration.

use crate::hashjoin::GroupIndex;
use crate::value::{Tuple, Value};
use mq_store::ColumnarRows;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// A named relation: a set of tuples of a fixed arity.
pub struct Relation {
    name: String,
    arity: usize,
    rows: Vec<Tuple>,
    /// Tuple -> row index, for O(1) membership; values index into `rows`.
    index: HashMap<Tuple, usize>,
    /// Shared allocation-free column indexes, built lazily behind a lock
    /// so the algebra can consult them through `&Relation` — including
    /// concurrently from the parallel `findRules` enumeration. Invalidated
    /// on insert.
    group_indexes: RwLock<HashMap<Box<[usize]>, Arc<GroupIndex>>>,
    /// Lazily built column-major mirror of `rows` (handle clones are
    /// O(1); see [`Relation::columnar`]). Invalidated on insert, like the
    /// group indexes.
    columnar: RwLock<Option<ColumnarRows<Value>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            name: self.name.clone(),
            arity: self.arity,
            rows: self.rows.clone(),
            index: self.index.clone(),
            // Cached indexes are cheap to rebuild; clones start cold.
            group_indexes: RwLock::new(HashMap::new()),
            columnar: RwLock::new(None),
        }
    }
}

impl Relation {
    /// Create an empty relation with the given name and arity.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            arity,
            rows: Vec::new(),
            index: HashMap::new(),
            group_indexes: RwLock::new(HashMap::new()),
            columnar: RwLock::new(None),
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
        self.arity
    }

    /// Number of (distinct) tuples, `|R|`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if `row.len() != arity`.
    pub fn insert(&mut self, row: Tuple) -> bool {
        assert_eq!(
            row.len(),
            self.arity,
            "tuple arity {} does not match relation `{}` arity {}",
            row.len(),
            self.name,
            self.arity
        );
        match self.index.entry(row) {
            Entry::Occupied(_) => false,
            Entry::Vacant(e) => {
                let row = e.key().clone();
                e.insert(self.rows.len());
                self.rows.push(row);
                // Any previously built key indexes / mirrors are now stale.
                self.group_indexes
                    .write()
                    .expect("group index lock poisoned")
                    .clear();
                *self.columnar.write().expect("columnar lock poisoned") = None;
                true
            }
        }
    }

    /// Replace the relation's contents wholesale (duplicates dropped, as
    /// on insert). Used by copy-on-write catalog updates; any cached
    /// group indexes are invalidated.
    ///
    /// # Panics
    /// Panics if any row's length differs from the arity.
    pub fn replace_rows(&mut self, rows: Vec<Tuple>) {
        self.rows.clear();
        self.index.clear();
        self.group_indexes
            .write()
            .expect("group index lock poisoned")
            .clear();
        *self.columnar.write().expect("columnar lock poisoned") = None;
        for row in rows {
            self.insert(row);
        }
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.index.contains_key(row)
    }

    /// Iterate over tuples in insertion order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// Access the i-th row.
    pub fn row(&self, i: usize) -> &Tuple {
        &self.rows[i]
    }

    /// Get (or build once and cache) the shared allocation-free hash
    /// index grouping rows by their values at `cols`.
    ///
    /// The index is built at most once per (relation, column-set) and
    /// shared by every join/semijoin that probes it — across the
    /// thousands of instantiations a metaquery engine evaluates, and
    /// across threads. Inserting into the relation invalidates it.
    pub fn group_index(&self, cols: &[usize]) -> Arc<GroupIndex> {
        if let Some(idx) = self
            .group_indexes
            .read()
            .expect("group index lock poisoned")
            .get(cols)
        {
            return Arc::clone(idx);
        }
        let built = Arc::new(GroupIndex::build_columnar(&self.columnar(), cols));
        let mut cache = self
            .group_indexes
            .write()
            .expect("group index lock poisoned");
        // Another thread may have raced us; keep the first one inserted.
        Arc::clone(
            cache
                .entry(cols.to_vec().into_boxed_slice())
                .or_insert(built),
        )
    }

    /// Get (or build once and cache) the column-major mirror of the
    /// relation's rows — the storage the columnar kernels scan. The
    /// returned handle is an O(1) clone sharing the cached buffers;
    /// inserting into the relation invalidates the mirror.
    pub fn columnar(&self) -> ColumnarRows<Value> {
        if let Some(c) = self
            .columnar
            .read()
            .expect("columnar lock poisoned")
            .as_ref()
        {
            return c.clone();
        }
        let built = ColumnarRows::from_rows(self.arity, &self.rows);
        let mut cache = self.columnar.write().expect("columnar lock poisoned");
        // Another thread may have raced us; keep the first one inserted.
        cache.get_or_insert(built).clone()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} ({} rows)", self.name, self.arity, self.rows.len())
    }
}

impl PartialEq for Relation {
    /// Set equality of contents (name and arity must also match).
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.arity == other.arity
            && self.rows.len() == other.rows.len()
            && self.rows.iter().all(|r| other.contains(r))
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
        assert_eq!(r.rows().count(), 2);
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
    fn columnar_mirror_is_cached_and_invalidated() {
        let mut r = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        let a = r.columnar();
        assert_eq!(a.col(0), &[Value::Int(1), Value::Int(3)]);
        let b = r.columnar();
        assert!(mq_store::ColumnarRows::ptr_eq(&a, &b), "mirror is cached");
        r.insert(ints(&[5, 6]));
        let c = r.columnar();
        assert!(!mq_store::ColumnarRows::ptr_eq(&a, &c));
        assert_eq!(c.col(1), &[Value::Int(2), Value::Int(4), Value::Int(6)]);
    }

    #[test]
    fn set_equality() {
        let a = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[3, 4])]);
        let b = Relation::from_rows("e", 2, vec![ints(&[3, 4]), ints(&[1, 2])]);
        assert_eq!(a, b);
    }
}
