//! The catalog: a registry of tables, optionally backed by on-disk storage.

use crate::error::DbError;
use crate::storage::{open_catalog, persist_catalog, Storage, StoreConfig};
use crate::table::Table;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Registry of tables.
///
/// A catalog opened with [`Catalog::open`] additionally carries a
/// [`Storage`] handle: one real buffer pool shared by every table's
/// scans, with honest hit/miss counters and a
/// [`drop_caches`](Storage::drop_caches) switch for cold runs.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    store: Option<Arc<Storage>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table; its name must be unused.
    pub fn register(&mut self, table: Table) -> Result<(), DbError> {
        let name = table.name().to_owned();
        if self.tables.contains_key(&name) {
            return Err(DbError::DuplicateTable(name));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Looks up a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_owned()))
    }

    /// Drops a table; returns it if it existed.
    pub fn drop_table(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Persists every table under `root/` and commits a catalog
    /// manifest, with default storage settings. Each table becomes a
    /// directory of checksummed, per-column compressed segment files;
    /// commits are temp-then-rename, so a crash mid-persist reopens to
    /// the last complete state.
    pub fn persist(&self, root: &Path) -> Result<(), DbError> {
        self.persist_with(root, &StoreConfig::default())
    }

    /// [`Catalog::persist`] with explicit storage settings.
    pub fn persist_with(&self, root: &Path, config: &StoreConfig) -> Result<(), DbError> {
        persist_catalog(self, root, config)
    }

    /// Opens a persisted catalog with default storage settings (64 MiB
    /// LRU pool). Tables are disk-backed: scans pull column chunks
    /// through the shared buffer pool.
    pub fn open(root: &Path) -> Result<Catalog, DbError> {
        Self::open_with(root, StoreConfig::default())
    }

    /// [`Catalog::open`] with explicit pool budget, eviction policy,
    /// and fault registry.
    pub fn open_with(root: &Path, config: StoreConfig) -> Result<Catalog, DbError> {
        open_catalog(root, config)
    }

    /// The storage handle, if this catalog was opened from disk. Exposes
    /// real pool counters, the quarantine report, and `drop_caches`.
    pub fn storage(&self) -> Option<&Arc<Storage>> {
        self.store.as_ref()
    }

    pub(crate) fn attach_storage(&mut self, store: Arc<Storage>) {
        self.store = Some(store);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::DataType;

    fn table(name: &str) -> Table {
        TableBuilder::new(name).column("x", DataType::Int).build()
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register(table("a")).unwrap();
        c.register(table("b")).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.table("a").unwrap().name(), "a");
        assert!(c.table("zzz").is_err());
        assert_eq!(c.table_names(), vec!["a", "b"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.register(table("a")).unwrap();
        let err = c.register(table("a")).unwrap_err();
        assert_eq!(err, DbError::DuplicateTable("a".to_owned()));
    }

    #[test]
    fn mutation_through_catalog() {
        let mut c = Catalog::new();
        c.register(table("a")).unwrap();
        c.table_mut("a")
            .unwrap()
            .push_row(vec![crate::types::Value::Int(1)])
            .unwrap();
        assert_eq!(c.table("a").unwrap().row_count(), 1);
    }

    #[test]
    fn drop_table() {
        let mut c = Catalog::new();
        c.register(table("a")).unwrap();
        assert!(c.drop_table("a").is_some());
        assert!(c.drop_table("a").is_none());
        assert!(c.is_empty());
    }
}
