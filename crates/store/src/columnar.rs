//! Column-major frozen row storage: one contiguous buffer per column.
//!
//! A [`ColumnarRows`] stores a row set column by column. All values of
//! column `c` sit back to back in **one** buffer, so a kernel that only
//! touches the key columns of a relation — hash-join probing, grouped
//! index builds, distinct counting — walks a dense `&[V]` slice instead
//! of hopping through per-row boxes, and batch operations (hash `n`
//! keys in one pass, compare a key column value-by-value) compile to
//! tight, vectorization-friendly loops.
//!
//! The column set sits behind an `Arc`: handle clones are O(1) and the
//! whole value is `Send + Sync`. Storage mutates only through
//! [`ColumnarRows::push_row`], which copies a shared column set first,
//! so no handle ever observes a later append. Every relation
//! (`Relation`) and variable relation (`Bindings`) is stored in one, and
//! the join, semijoin and projection kernels run over them.

use std::fmt;
use std::sync::Arc;

/// Column-major row storage: `arity` columns, each one contiguous
/// buffer of `len` values. Handle clones are O(1) and share the column
/// buffers; appends copy them first while they are shared.
pub struct ColumnarRows<V> {
    cols: Arc<[Vec<V>]>,
    rows: usize,
}

impl<V: Clone> ColumnarRows<V> {
    /// Transpose `rows` (each of length `arity`) into column buffers.
    ///
    /// Allocates O(arity) times regardless of the row count — pinned
    /// down by the allocation-count test in `tests/no_alloc_kernels.rs`.
    ///
    /// # Panics
    /// Panics if any row's length differs from `arity`.
    pub fn from_rows<R: AsRef<[V]>>(arity: usize, rows: &[R]) -> Self {
        let mut cols: Vec<Vec<V>> = (0..arity).map(|_| Vec::with_capacity(rows.len())).collect();
        for row in rows {
            let row = row.as_ref();
            assert_eq!(
                row.len(),
                arity,
                "columnar row length {} does not match arity {arity}",
                row.len()
            );
            for (c, v) in row.iter().enumerate() {
                cols[c].push(v.clone());
            }
        }
        ColumnarRows {
            cols: cols.into(),
            rows: rows.len(),
        }
    }

    /// Append one row, first copying the column set if another handle
    /// shares it (so no other handle observes the append).
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the arity.
    pub fn push_row(&mut self, row: &[V]) {
        assert_eq!(row.len(), self.arity(), "columnar row length mismatch");
        for (col, v) in Arc::make_mut(&mut self.cols).iter_mut().zip(row) {
            col.push(v.clone());
        }
        self.rows += 1;
    }

    /// Materialize row `i` by appending its values to `out` (one clone
    /// per value, no allocation beyond `out`'s own growth).
    pub fn push_row_into(&self, i: usize, out: &mut Vec<V>) {
        debug_assert!(i < self.rows, "row {i} out of {} rows", self.rows);
        for col in self.cols.iter() {
            out.push(col[i].clone());
        }
    }

    /// Materialize every row as a boxed tuple (the row-major view).
    pub fn to_rows(&self) -> Vec<Box<[V]>> {
        let mut buf = Vec::with_capacity(self.arity());
        (0..self.rows)
            .map(|i| {
                buf.clear();
                self.push_row_into(i, &mut buf);
                buf.as_slice().into()
            })
            .collect()
    }

    /// A new store holding only the rows whose indexes appear in `keep`,
    /// in `keep` order — the columnar gather behind semijoin/antijoin
    /// style filters. Allocates O(arity) buffers.
    ///
    /// # Panics
    /// Panics if any index in `keep` is out of range.
    pub fn gather(&self, keep: &[usize]) -> Self {
        let cols: Vec<Vec<V>> = self
            .cols
            .iter()
            .map(|col| keep.iter().map(|&i| col[i].clone()).collect())
            .collect();
        ColumnarRows {
            cols: cols.into(),
            rows: keep.len(),
        }
    }
}

impl<V> ColumnarRows<V> {
    /// An empty store of the given arity.
    pub fn empty(arity: usize) -> Self {
        let cols: Vec<Vec<V>> = (0..arity).map(|_| Vec::new()).collect();
        ColumnarRows {
            cols: cols.into(),
            rows: 0,
        }
    }

    /// Wrap already-built column buffers.
    ///
    /// `rows` must be passed explicitly so zero-arity stores (legal:
    /// they count rows with no values) stay well-defined.
    ///
    /// # Panics
    /// Panics if any column's length differs from `rows`.
    pub fn from_columns(rows: usize, cols: Vec<Vec<V>>) -> Self {
        for (c, col) in cols.iter().enumerate() {
            assert_eq!(
                col.len(),
                rows,
                "column {c} holds {} values for {rows} rows",
                col.len()
            );
        }
        ColumnarRows {
            cols: cols.into(),
            rows,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the store holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The fixed row arity (number of columns).
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column `c` as one contiguous value slice of length [`len`](Self::len).
    #[inline]
    pub fn col(&self, c: usize) -> &[V] {
        &self.cols[c]
    }

    /// The value at row `i`, column `c`.
    #[inline]
    pub fn value(&self, i: usize, c: usize) -> &V {
        &self.cols[c][i]
    }

    /// Whether two handles share the same column storage.
    #[inline]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.cols, &b.cols)
    }
}

impl<V> Clone for ColumnarRows<V> {
    #[inline]
    fn clone(&self) -> Self {
        ColumnarRows {
            cols: Arc::clone(&self.cols),
            rows: self.rows,
        }
    }
}

impl<V: PartialEq> PartialEq for ColumnarRows<V> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && (Self::ptr_eq(self, other) || *self.cols == *other.cols)
    }
}

impl<V: Eq> Eq for ColumnarRows<V> {}

impl<V: fmt::Debug> fmt::Debug for ColumnarRows<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.cols.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(rows: &[&[i32]]) -> Vec<Box<[i32]>> {
        rows.iter().map(|r| r.to_vec().into_boxed_slice()).collect()
    }

    #[test]
    fn from_rows_transposes() {
        let c = ColumnarRows::from_rows(2, &boxed(&[&[1, 2], &[3, 4], &[5, 6]]));
        assert_eq!(c.len(), 3);
        assert_eq!(c.arity(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.col(0), &[1, 3, 5]);
        assert_eq!(c.col(1), &[2, 4, 6]);
        assert_eq!(*c.value(1, 0), 3);
        assert_eq!(c.to_rows(), boxed(&[&[1, 2], &[3, 4], &[5, 6]]));
    }

    #[test]
    fn clone_shares_storage_and_gather_does_not() {
        let a = ColumnarRows::from_rows(2, &boxed(&[&[1, 2], &[3, 4], &[5, 6]]));
        let b = a.clone();
        assert!(ColumnarRows::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let g = a.gather(&[2, 0]);
        assert!(!ColumnarRows::ptr_eq(&a, &g));
        assert_eq!(g.col(0), &[5, 1]);
        assert_eq!(g.col(1), &[6, 2]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn from_columns_roundtrip_and_push_row() {
        let c = ColumnarRows::from_columns(3, vec![vec![1, 3, 5], vec![2, 4, 6]]);
        let mut out = Vec::new();
        c.push_row_into(2, &mut out);
        assert_eq!(out, vec![5, 6]);
        assert_eq!(
            c,
            ColumnarRows::from_rows(2, &boxed(&[&[1, 2], &[3, 4], &[5, 6]]))
        );
    }

    #[test]
    fn push_row_copies_shared_storage_only() {
        let mut a = ColumnarRows::from_rows(2, &boxed(&[&[1, 2]]));
        let b = a.clone();
        a.push_row(&[3, 4]);
        assert!(!ColumnarRows::ptr_eq(&a, &b), "shared storage is copied");
        assert_eq!(b.len(), 1);
        assert_eq!(a.col(1), &[2, 4]);
        a.push_row(&[5, 6]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.to_rows(), boxed(&[&[1, 2], &[3, 4], &[5, 6]]));
    }

    #[test]
    fn zero_arity_rows_are_well_defined() {
        let c = ColumnarRows::<i32>::from_columns(2, vec![]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.arity(), 0);
        assert_eq!(c.to_rows(), boxed(&[&[], &[]]));
    }

    #[test]
    #[should_panic(expected = "does not match arity")]
    fn arity_mismatch_panics() {
        let _ = ColumnarRows::from_rows(2, &boxed(&[&[1, 2, 3]]));
    }

    #[test]
    #[should_panic(expected = "values for")]
    fn column_length_mismatch_panics() {
        let _ = ColumnarRows::from_columns(2, vec![vec![1], vec![2, 3]]);
    }

    #[test]
    fn columnar_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ColumnarRows<i64>>();
    }
}
