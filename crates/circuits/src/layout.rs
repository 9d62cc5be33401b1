//! Input encodings for data-complexity circuit families.
//!
//! Under the data complexity measure the schema is fixed and the database
//! varies (§3.2). A circuit family member is built for a fixed *domain
//! size* `D`: the input is one bit per potential tuple of each relation
//! (`D^arity` bits per relation), set to 1 iff the tuple is present. The
//! domain is `{0, ..., D-1}` as integer constants.

use mq_relation::{Database, Value};

/// The fixed schema plus domain size a circuit family member is built for.
#[derive(Clone, Debug)]
pub struct SchemaLayout {
    /// Relation names and arities, in id order.
    pub relations: Vec<(String, usize)>,
    /// Domain size `D`.
    pub domain: usize,
    offsets: Vec<usize>,
    total: usize,
}

impl SchemaLayout {
    /// Build a layout for the given relations and domain size.
    pub fn new(relations: Vec<(String, usize)>, domain: usize) -> Self {
        assert!(domain >= 1, "domain must be non-empty");
        let mut offsets = Vec::with_capacity(relations.len());
        let mut total = 0usize;
        for (_, arity) in &relations {
            offsets.push(total);
            total += domain.pow(*arity as u32);
        }
        SchemaLayout {
            relations,
            domain,
            offsets,
            total,
        }
    }

    /// Layout matching a database's schema (names, arities in id order).
    pub fn of_database(db: &Database, domain: usize) -> Self {
        let relations = db
            .relations()
            .map(|r| (r.name().to_string(), r.arity()))
            .collect();
        SchemaLayout::new(relations, domain)
    }

    /// Total number of input bits.
    pub fn n_inputs(&self) -> usize {
        self.total
    }

    /// The input bit for tuple `t` of relation `rel` (values in
    /// `0..domain`, length = arity).
    pub fn bit(&self, rel: usize, tuple: &[usize]) -> usize {
        let (_, arity) = self.relations[rel];
        assert_eq!(tuple.len(), arity, "tuple arity mismatch");
        let mut idx = 0usize;
        for &v in tuple {
            assert!(v < self.domain, "value out of domain");
            idx = idx * self.domain + v;
        }
        self.offsets[rel] + idx
    }

    /// Encode a database as an input assignment. Every value must be
    /// `Value::Int(v)` with `0 <= v < domain`, and the database schema
    /// must match the layout.
    pub fn encode(&self, db: &Database) -> Vec<bool> {
        assert_eq!(db.num_relations(), self.relations.len(), "schema mismatch");
        let mut bits = vec![false; self.total];
        for (i, rel) in db.relations().enumerate() {
            assert_eq!(rel.arity(), self.relations[i].1, "arity mismatch");
            for row in rel.to_rows() {
                let tuple: Vec<usize> = row
                    .iter()
                    .map(|v| match v {
                        Value::Int(x) if *x >= 0 && (*x as usize) < self.domain => *x as usize,
                        _ => panic!("value {v:?} outside layout domain"),
                    })
                    .collect();
                bits[self.bit(i, &tuple)] = true;
            }
        }
        bits
    }

    /// Enumerate all tuples over the domain of a given arity (row-major).
    pub fn tuples(&self, arity: usize) -> impl Iterator<Item = Vec<usize>> + '_ {
        let d = self.domain;
        let total = d.pow(arity as u32);
        (0..total).map(move |mut idx| {
            let mut t = vec![0usize; arity];
            for slot in t.iter_mut().rev() {
                *slot = idx % d;
                idx /= d;
            }
            t
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_relation::ints;

    #[test]
    fn bit_indexing_is_dense_and_disjoint() {
        let l = SchemaLayout::new(vec![("a".into(), 1), ("b".into(), 2)], 3);
        assert_eq!(l.n_inputs(), 3 + 9);
        let mut seen = std::collections::HashSet::new();
        for t in 0..3 {
            assert!(seen.insert(l.bit(0, &[t])));
        }
        for x in 0..3 {
            for y in 0..3 {
                assert!(seen.insert(l.bit(1, &[x, y])));
            }
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn encode_roundtrip() {
        let mut db = Database::new();
        let a = db.add_relation("a", 1);
        let b = db.add_relation("b", 2);
        db.insert(a, ints(&[2]));
        db.insert(b, ints(&[0, 1]));
        let l = SchemaLayout::of_database(&db, 3);
        let bits = l.encode(&db);
        assert!(bits[l.bit(0, &[2])]);
        assert!(!bits[l.bit(0, &[0])]);
        assert!(bits[l.bit(1, &[0, 1])]);
        assert!(!bits[l.bit(1, &[1, 0])]);
        assert_eq!(bits.iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn tuples_enumerates_all() {
        let l = SchemaLayout::new(vec![("a".into(), 2)], 3);
        let ts: Vec<Vec<usize>> = l.tuples(2).collect();
        assert_eq!(ts.len(), 9);
        assert_eq!(ts[0], vec![0, 0]);
        assert_eq!(ts[8], vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "outside layout domain")]
    fn encode_rejects_out_of_domain() {
        let mut db = Database::new();
        let a = db.add_relation("a", 1);
        db.insert(a, ints(&[7]));
        let l = SchemaLayout::of_database(&db, 3);
        let _ = l.encode(&db);
    }
}
