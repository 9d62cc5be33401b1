//! Databases: a finite domain plus a collection of named relations (§2.1).

use crate::relation::Relation;
use crate::symbol::{Symbol, SymbolTable};
use crate::value::{Tuple, Value};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Identifier of a relation inside a [`Database`], stable across lookups.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelId(pub u32);

impl RelId {
    /// Raw index into the database's relation list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A database instance `DB = (D, R1, ..., Rn)`.
///
/// The active domain `D` is derived from the stored tuples; [`Database`]
/// additionally owns the [`SymbolTable`] used to intern string constants so
/// that values can be rendered back to text.
#[derive(Clone, Default)]
pub struct Database {
    symbols: SymbolTable,
    relations: Vec<Relation>,
    by_name: HashMap<String, RelId>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a string constant.
    pub fn sym(&mut self, name: &str) -> Value {
        Value::Sym(self.symbols.intern(name))
    }

    /// Access the symbol table (for display).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Resolve a symbol to its string.
    pub fn resolve(&self, s: Symbol) -> &str {
        self.symbols.resolve(s)
    }

    /// Add an empty relation; returns its id.
    ///
    /// # Panics
    /// Panics if a relation with the same name already exists.
    pub fn add_relation(&mut self, name: impl Into<String>, arity: usize) -> RelId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "relation `{name}` already exists"
        );
        let id = RelId(u32::try_from(self.relations.len()).expect("too many relations"));
        self.by_name.insert(name.clone(), id);
        self.relations.push(Relation::new(name, arity));
        id
    }

    /// Add a relation with the given rows.
    pub fn add_relation_with_rows(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        rows: Vec<Tuple>,
    ) -> RelId {
        let id = self.add_relation(name, arity);
        for row in rows {
            self.relations[id.index()].insert(row);
        }
        id
    }

    /// Insert a tuple into an existing relation; returns `true` if new.
    pub fn insert(&mut self, rel: RelId, row: Tuple) -> bool {
        self.relations[rel.index()].insert(row)
    }

    /// Look up a relation id by name.
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.by_name.get(name).copied()
    }

    /// Access a relation by id.
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Mutable access to a relation by id (catalog updates replace rows).
    pub fn relation_mut(&mut self, id: RelId) -> &mut Relation {
        &mut self.relations[id.index()]
    }

    /// Access a relation by name.
    ///
    /// # Panics
    /// Panics if no relation has that name.
    pub fn rel(&self, name: &str) -> &Relation {
        let id = self
            .rel_id(name)
            .unwrap_or_else(|| panic!("no relation named `{name}`"));
        self.relation(id)
    }

    /// All relation ids, in creation order.
    pub fn rel_ids(&self) -> impl ExactSizeIterator<Item = RelId> {
        (0..self.relations.len() as u32).map(RelId)
    }

    /// All relations, in creation order.
    pub fn relations(&self) -> impl ExactSizeIterator<Item = &Relation> {
        self.relations.iter()
    }

    /// Number of relations `n`.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across relations (a size measure for data
    /// complexity experiments).
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Size `d` of the largest relation (the `d` of Theorem 4.12).
    pub fn max_relation_size(&self) -> usize {
        self.relations.iter().map(|r| r.len()).max().unwrap_or(0)
    }

    /// Maximum arity `b` over all relations.
    pub fn max_arity(&self) -> usize {
        self.relations.iter().map(|r| r.arity()).max().unwrap_or(0)
    }

    /// The active domain: every constant appearing in some tuple.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for rel in &self.relations {
            for row in rel.to_rows() {
                dom.extend(row.iter().copied());
            }
        }
        dom
    }

    /// Render the database as text tables (for examples and debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for rel in &self.relations {
            out.push_str(&format!("{} (arity {}):\n", rel.name(), rel.arity()));
            for row in rel.to_rows() {
                let cells: Vec<String> = row
                    .iter()
                    .map(|v| v.display(&self.symbols).to_string())
                    .collect();
                out.push_str(&format!("  ({})\n", cells.join(", ")));
            }
        }
        out
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.relations.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ints;

    #[test]
    fn add_and_lookup() {
        let mut db = Database::new();
        let e = db.add_relation("e", 2);
        db.insert(e, ints(&[1, 2]));
        assert_eq!(db.rel("e").len(), 1);
        assert_eq!(db.rel_id("e"), Some(e));
        assert_eq!(db.rel_id("missing"), None);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_name_panics() {
        let mut db = Database::new();
        db.add_relation("e", 2);
        db.add_relation("e", 3);
    }

    #[test]
    fn size_measures() {
        let mut db = Database::new();
        db.add_relation_with_rows("a", 1, vec![ints(&[1]), ints(&[2])]);
        db.add_relation_with_rows("b", 3, vec![ints(&[1, 2, 3])]);
        assert_eq!(db.num_relations(), 2);
        assert_eq!(db.total_tuples(), 3);
        assert_eq!(db.max_relation_size(), 2);
        assert_eq!(db.max_arity(), 3);
    }

    #[test]
    fn active_domain_collects_constants() {
        let mut db = Database::new();
        let v = db.sym("x");
        db.add_relation_with_rows("a", 2, vec![vec![v, Value::Int(7)].into_boxed_slice()]);
        let dom = db.active_domain();
        assert_eq!(dom.len(), 2);
        assert!(dom.contains(&v));
        assert!(dom.contains(&Value::Int(7)));
    }

    #[test]
    fn symbols_render() {
        let mut db = Database::new();
        let v = db.sym("Omnitel");
        db.add_relation_with_rows("ca", 1, vec![vec![v].into_boxed_slice()]);
        let text = db.render();
        assert!(text.contains("Omnitel"));
        assert!(text.contains("ca (arity 1)"));
    }
}
