//! The database catalog: named, generation-tagged, frozen snapshots.
//!
//! A [`Catalog`] owns every database the service can answer metaqueries
//! over. Each entry is published as an immutable [`DbHandle`] snapshot:
//!
//! * the [`Database`] itself behind an `Arc`, **frozen** at registration
//!   — nothing mutates it, so any number of sessions can search it
//!   concurrently, and every relation's single-column `group_index`es
//!   are pre-warmed so the first search pays no index build. Protocol
//!   queries (`dump`, `stats`) read the same relations' columns;
//! * a `version` (bumped by every update) plus **per-relation
//!   generations** ([`RelGeneration`]): the tags that key the entry's
//!   persistent cross-search [`AtomCache`];
//! * the entry's [`AtomCache`] itself, shared by every snapshot of the
//!   entry across updates.
//!
//! Updates are **copy-on-write**: [`Catalog::append_rows`] /
//! [`Catalog::replace_relation`] clone the current database, mutate the
//! clone, bump `version` and the touched relation's generation, and
//! publish a new snapshot. A relation clone shares its tuples and built
//! indexes until written, so the update copies only the touched
//! relation and every other relation keeps its warmed indexes. Sessions pinned to the old handle keep
//! searching exactly the rows they started with (their memo services
//! probe the old generations, so they never observe post-update
//! bindings), while new sessions cold-start only the touched relation's
//! atom-cache entries — every other relation's persist across the
//! update.

use mq_core::engine::memo::{AtomCache, RelGeneration, SharedMemos};
use mq_relation::{Database, RelId, Tuple};
use mq_store::lock::{lock_recover, read_recover, write_recover};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, RwLock};

/// Errors raised by catalog operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// No database registered under that name.
    UnknownDb(String),
    /// A database with that name is already registered.
    DuplicateDb(String),
    /// The named relation does not exist in the database.
    UnknownRelation {
        /// The database name.
        db: String,
        /// The missing relation name.
        relation: String,
    },
    /// An update row's length does not match the relation's arity.
    ArityMismatch {
        /// The relation name.
        relation: String,
        /// The relation's arity.
        expected: usize,
        /// The offending row's length.
        got: usize,
    },
    /// The update closure panicked mid-mutation. The entry is untouched
    /// (updates mutate a private clone and publish atomically), so this
    /// is a per-update error, not a poisoned catalog: later reads and
    /// updates of the same entry proceed normally.
    UpdatePanicked {
        /// The database name.
        db: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownDb(name) => write!(f, "no database named `{name}`"),
            CatalogError::DuplicateDb(name) => {
                write!(f, "database `{name}` is already registered")
            }
            CatalogError::UnknownRelation { db, relation } => {
                write!(f, "database `{db}` has no relation `{relation}`")
            }
            CatalogError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation `{relation}` has arity {expected}, update row has {got} values"
            ),
            CatalogError::UpdatePanicked { db, message } => {
                write!(f, "update of `{db}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// An immutable snapshot of one catalog entry: the frozen database, its
/// version and per-relation generations, and the entry's persistent atom
/// cache. Clones are O(1) (`Arc`
/// handles); sessions pin the snapshot they were opened against.
#[derive(Clone)]
pub struct DbHandle {
    name: Arc<str>,
    db: Arc<Database>,
    version: u64,
    rel_gens: Arc<Vec<RelGeneration>>,
    atoms: Arc<AtomCache>,
}

impl DbHandle {
    /// Freeze `db` into a snapshot: pre-warm every relation's
    /// single-column `group_index` (the indexes the planner's join keys
    /// overwhelmingly probe). Relations an update did not touch still
    /// hold their indexes, so after an update only the touched relation
    /// builds any; [`Catalog::update_with`] runs this outside the catalog
    /// map lock so snapshots and queries are never blocked behind it.
    fn freeze(
        name: Arc<str>,
        db: Database,
        version: u64,
        rel_gens: Vec<RelGeneration>,
        atoms: Arc<AtomCache>,
    ) -> Self {
        let _span = mq_obs::trace::SpanGuard::start_always(mq_obs::trace::CATALOG_FREEZE);
        for rel in db.relations() {
            for col in 0..rel.arity() {
                let _ = rel.group_index(&[col]);
            }
        }
        DbHandle {
            name,
            db: Arc::new(db),
            version,
            rel_gens: Arc::new(rel_gens),
            atoms,
        }
    }

    /// The catalog entry's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The frozen database this snapshot serves.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The snapshot version (bumped by every update of the entry).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The generation of relation `rel` in this snapshot.
    pub fn generation(&self, rel: RelId) -> RelGeneration {
        self.rel_gens.get(rel.index()).copied().unwrap_or(0)
    }

    /// Per-relation generations, indexed by `RelId`.
    pub fn generations(&self) -> &Arc<Vec<RelGeneration>> {
        &self.rel_gens
    }

    /// The entry's persistent cross-search atom cache (shared by every
    /// snapshot of the entry, across updates).
    pub fn atom_cache(&self) -> &Arc<AtomCache> {
        &self.atoms
    }

    /// A fresh per-search memo service seeded from the entry's
    /// persistent atom cache under this snapshot's generations — what
    /// the session layer hands to `find_rules_instrumented`.
    pub fn memo_service(&self) -> Arc<SharedMemos> {
        Arc::new(SharedMemos::with_persistent_atoms(
            Arc::clone(&self.atoms),
            Arc::clone(&self.rel_gens),
        ))
    }
}

impl fmt::Debug for DbHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DbHandle({} v{}, {} relations, {} tuples)",
            self.name,
            self.version,
            self.db.num_relations(),
            self.db.total_tuples()
        )
    }
}

/// One catalog entry: the published snapshot plus a per-entry update
/// lock, so the snapshot build of an update runs without holding
/// the catalog-wide map lock (snapshots and queries are never blocked
/// behind it) while concurrent updates of the *same* entry still
/// serialize (no lost updates).
struct Entry {
    handle: DbHandle,
    update: Arc<Mutex<()>>,
}

/// A catalog of named, generation-tagged databases. All methods take
/// `&self`; the catalog is meant to sit behind the service and be probed
/// from many session threads concurrently.
pub struct Catalog {
    entries: RwLock<HashMap<String, Entry>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog {
            entries: RwLock::new(HashMap::new()),
        }
    }

    /// Register `db` under `name`, freezing it into the first snapshot
    /// (version 1, every relation at generation 1). The freeze happens
    /// before the map lock is taken; a duplicate name loses the race
    /// cleanly.
    pub fn register(&self, name: &str, db: Database) -> Result<DbHandle, CatalogError> {
        if read_recover(&self.entries).contains_key(name) {
            return Err(CatalogError::DuplicateDb(name.to_string()));
        }
        let n_relations = db.num_relations();
        let handle = DbHandle::freeze(
            Arc::from(name),
            db,
            1,
            vec![1; n_relations],
            Arc::new(AtomCache::new()),
        );
        let mut entries = write_recover(&self.entries);
        if entries.contains_key(name) {
            return Err(CatalogError::DuplicateDb(name.to_string()));
        }
        entries.insert(
            name.to_string(),
            Entry {
                handle: handle.clone(),
                update: Arc::new(Mutex::new(())),
            },
        );
        Ok(handle)
    }

    /// The current snapshot of `name`.
    pub fn snapshot(&self, name: &str) -> Result<DbHandle, CatalogError> {
        read_recover(&self.entries)
            .get(name)
            .map(|e| e.handle.clone())
            .ok_or_else(|| CatalogError::UnknownDb(name.to_string()))
    }

    /// Registered database names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recover(&self.entries).keys().cloned().collect();
        names.sort();
        names
    }

    /// Copy-on-write update of one relation: clone the current snapshot's
    /// database, let `touch` mutate it (returning the touched relation),
    /// bump the entry version and the touched relation's generation, and
    /// publish the new snapshot. Sessions holding the old [`DbHandle`]
    /// are unaffected; the entry's atom cache keeps every untouched
    /// relation's entries warm (their generations don't change).
    ///
    /// The clone/warm/freeze costs O(touched relation) — untouched
    /// relations share storage and indexes with the old snapshot — and
    /// runs under the entry's private update lock only: the catalog map
    /// lock is held just to fetch the current snapshot and to publish the
    /// new one, so concurrent snapshots and queries (of this or any other
    /// entry) never stall behind an update.
    pub fn update_with(
        &self,
        name: &str,
        touch: impl FnOnce(&mut Database) -> Result<RelId, CatalogError>,
    ) -> Result<DbHandle, CatalogError> {
        let update = read_recover(&self.entries)
            .get(name)
            .map(|e| Arc::clone(&e.update))
            .ok_or_else(|| CatalogError::UnknownDb(name.to_string()))?;
        // Serialize with other updates of this entry; the snapshot read
        // below therefore sees the latest published version (no lost
        // updates). Recovering a poisoned guard is sound: the lock
        // protects no data (`Mutex<()>`), it only sequences updates, and
        // a panicking `touch` below is caught before it can unwind
        // through the guard anyway.
        let _guard = lock_recover(&update);
        let current = self.snapshot(name)?;
        let mut db = (*current.db).clone();
        // `touch` is caller code: isolate its panics. It mutates only the
        // private clone, so a panic mid-mutation discards the clone and
        // leaves the published snapshot untouched — surfaced as a
        // per-update error rather than a poisoned entry.
        let touched = catch_unwind(AssertUnwindSafe(|| touch(&mut db))).map_err(|payload| {
            CatalogError::UpdatePanicked {
                db: name.to_string(),
                message: panic_message(&*payload),
            }
        })??;
        let version = current.version + 1;
        let mut rel_gens = (*current.rel_gens).clone();
        // Relations added by the update enter at the new version.
        rel_gens.resize(db.num_relations(), version);
        if let Some(gen) = rel_gens.get_mut(touched.index()) {
            *gen = version;
        }
        let handle = DbHandle::freeze(
            Arc::clone(&current.name),
            db,
            version,
            rel_gens,
            Arc::clone(&current.atoms),
        );
        let mut entries = write_recover(&self.entries);
        let entry = entries
            .get_mut(name)
            .ok_or_else(|| CatalogError::UnknownDb(name.to_string()))?;
        entry.handle = handle.clone();
        Ok(handle)
    }

    /// Append `rows` to relation `rel_name` (copy-on-write; duplicates
    /// are dropped, matching relation set semantics).
    pub fn append_rows(
        &self,
        name: &str,
        rel_name: &str,
        rows: Vec<Tuple>,
    ) -> Result<DbHandle, CatalogError> {
        self.update_with(name, |db| {
            let rel = resolve(db, name, rel_name)?;
            check_arities(db, rel, rel_name, &rows)?;
            for row in rows {
                db.insert(rel, row);
            }
            Ok(rel)
        })
    }

    /// Replace relation `rel_name`'s contents wholesale (copy-on-write).
    pub fn replace_relation(
        &self,
        name: &str,
        rel_name: &str,
        rows: Vec<Tuple>,
    ) -> Result<DbHandle, CatalogError> {
        self.update_with(name, |db| {
            let rel = resolve(db, name, rel_name)?;
            check_arities(db, rel, rel_name, &rows)?;
            db.relation_mut(rel).replace_rows(rows);
            Ok(rel)
        })
    }

    /// Maintenance sweep: drop every atom-cache entry of `name` whose
    /// generation is no longer current. Only call once no session is
    /// still pinned to an older snapshot — stale entries are harmless
    /// (old snapshots *need* them), they just hold memory.
    pub fn purge_stale(&self, name: &str) -> Result<(), CatalogError> {
        let handle = self.snapshot(name)?;
        handle.atoms.purge_stale(&handle.rel_gens);
        Ok(())
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

/// Render a panic payload for error messages (`&str` and `String`
/// payloads verbatim, anything else a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn resolve(db: &Database, name: &str, rel_name: &str) -> Result<RelId, CatalogError> {
    db.rel_id(rel_name)
        .ok_or_else(|| CatalogError::UnknownRelation {
            db: name.to_string(),
            relation: rel_name.to_string(),
        })
}

fn check_arities(
    db: &Database,
    rel: RelId,
    rel_name: &str,
    rows: &[Tuple],
) -> Result<(), CatalogError> {
    let expected = db.relation(rel).arity();
    for row in rows {
        if row.len() != expected {
            return Err(CatalogError::ArityMismatch {
                relation: rel_name.to_string(),
                expected,
                got: row.len(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_relation::hashjoin::ColumnarRows;
    use mq_relation::ints;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        let q = db.add_relation("q", 2);
        db.insert(p, ints(&[1, 2]));
        db.insert(p, ints(&[2, 3]));
        db.insert(q, ints(&[2, 4]));
        db
    }

    #[test]
    fn register_freezes_and_warms() {
        let cat = Catalog::new();
        let h = cat.register("tele", sample_db()).unwrap();
        assert_eq!(h.name(), "tele");
        assert_eq!(h.version(), 1);
        assert_eq!(h.database().total_tuples(), 3);
        let p = h.database().rel_id("p").unwrap();
        assert_eq!(h.generation(p), 1);
        assert_eq!(
            cat.register("tele", sample_db()).unwrap_err(),
            CatalogError::DuplicateDb("tele".into())
        );
        assert_eq!(cat.names(), vec!["tele".to_string()]);
    }

    #[test]
    fn append_bumps_only_touched_generation_and_keeps_old_snapshot() {
        let cat = Catalog::new();
        let old = cat.register("tele", sample_db()).unwrap();
        let p = old.database().rel_id("p").unwrap();
        let q = old.database().rel_id("q").unwrap();
        let new = cat.append_rows("tele", "q", vec![ints(&[9, 9])]).unwrap();
        assert_eq!(new.version(), 2);
        assert_eq!(new.generation(q), 2, "touched relation bumps");
        assert_eq!(new.generation(p), 1, "untouched relation keeps its gen");
        // The old snapshot is frozen: still 1 q-row, version 1.
        assert_eq!(old.version(), 1);
        assert_eq!(old.database().relation(q).len(), 1);
        assert_eq!(new.database().relation(q).len(), 2);
        // The catalog now serves the new snapshot.
        assert_eq!(cat.snapshot("tele").unwrap().version(), 2);
    }

    #[test]
    fn append_copies_only_the_touched_relation() {
        let cat = Catalog::new();
        let old = cat.register("tele", sample_db()).unwrap();
        let (p, q) = (old.database().rel("p"), old.database().rel("q"));
        let warmed = p.group_index(&[0, 1]);
        let new = cat.append_rows("tele", "q", vec![ints(&[9, 9])]).unwrap();
        let (new_p, new_q) = (new.database().rel("p"), new.database().rel("q"));
        assert!(ColumnarRows::ptr_eq(&p.columnar(), &new_p.columnar()));
        assert!(Arc::ptr_eq(&warmed, &new_p.group_index(&[0, 1])));
        assert!(!ColumnarRows::ptr_eq(&q.columnar(), &new_q.columnar()));
        assert_eq!(q.len(), 1, "the old snapshot still reads one q row");
        assert_eq!(new_q.len(), 2);
    }

    #[test]
    fn replace_swaps_contents() {
        let cat = Catalog::new();
        cat.register("tele", sample_db()).unwrap();
        let h = cat
            .replace_relation("tele", "p", vec![ints(&[7, 8])])
            .unwrap();
        let p = h.database().rel_id("p").unwrap();
        assert_eq!(h.database().relation(p).len(), 1);
        assert!(h.database().relation(p).contains(&ints(&[7, 8])));
    }

    #[test]
    fn update_errors_are_reported() {
        let cat = Catalog::new();
        cat.register("tele", sample_db()).unwrap();
        assert!(matches!(
            cat.append_rows("tele", "zz", vec![]).unwrap_err(),
            CatalogError::UnknownRelation { .. }
        ));
        assert!(matches!(
            cat.append_rows("tele", "p", vec![ints(&[1])]).unwrap_err(),
            CatalogError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        assert!(matches!(
            cat.append_rows("nope", "p", vec![]).unwrap_err(),
            CatalogError::UnknownDb(_)
        ));
        // A failed update leaves the entry untouched.
        assert_eq!(cat.snapshot("tele").unwrap().version(), 1);
    }

    #[test]
    fn panicking_update_is_isolated_and_entry_stays_usable() {
        let cat = Catalog::new();
        cat.register("tele", sample_db()).unwrap();
        // A panic mid-update surfaces as a per-update error...
        let err = cat
            .update_with("tele", |_db| -> Result<RelId, CatalogError> {
                panic!("boom in touch")
            })
            .unwrap_err();
        assert!(
            matches!(&err, CatalogError::UpdatePanicked { db, message }
                if db == "tele" && message.contains("boom")),
            "want UpdatePanicked, got {err:?}"
        );
        // ...the published snapshot is untouched...
        assert_eq!(cat.snapshot("tele").unwrap().version(), 1);
        // ...and both reads and later updates of the entry still work.
        let h = cat.append_rows("tele", "q", vec![ints(&[9, 9])]).unwrap();
        assert_eq!(h.version(), 2);
        assert_eq!(cat.names(), vec!["tele".to_string()]);
    }

    #[test]
    fn purge_stale_drops_only_old_generations() {
        use mq_core::engine::find_rules::find_rules_instrumented;
        use mq_core::engine::Thresholds;
        use mq_core::instantiate::InstType;
        use mq_core::parse::parse_metaquery;

        let cat = Catalog::new();
        let h = cat.register("tele", sample_db()).unwrap();
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let _ = find_rules_instrumented(
            h.database(),
            &mq,
            InstType::Zero,
            Thresholds::none(),
            Some(h.memo_service()),
            None,
            None,
            0,
        )
        .unwrap();
        let cache = Arc::clone(h.atom_cache());
        let before = cache.len();
        assert!(before > 0, "the search must have warmed the atom cache");
        cat.append_rows("tele", "q", vec![ints(&[5, 6])]).unwrap();
        cat.purge_stale("tele").unwrap();
        let after = cache.len();
        assert!(after < before, "stale q entries must be dropped");
        assert!(after > 0, "untouched p entries must survive");
    }
}
