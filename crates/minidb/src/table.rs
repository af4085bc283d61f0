//! In-memory committed table storage with secondary indexes.
//!
//! Rows live in a `BTreeMap` keyed by primary key, so scans are ordered and
//! point lookups are logarithmic. Secondary indexes map column values to the
//! set of primary keys holding them and are maintained eagerly on apply.
//! Only *committed* data ever enters a `TableStore` — transactions buffer
//! their writes privately until commit (deferred update). The schema and
//! every row are shared allocations: a reader takes a handle, never a copy,
//! and a commit stores the very row its statement buffered.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use crate::error::{DbError, DbResult};
use crate::value::{Schema, SharedRow, Value};

/// Committed rows and indexes of one table.
#[derive(Debug, Clone)]
pub struct TableStore {
    pub schema: Arc<Schema>,
    rows: BTreeMap<Value, SharedRow>,
    /// column index -> (value -> set of primary keys)
    indexes: HashMap<usize, BTreeMap<Value, BTreeSet<Value>>>,
}

impl TableStore {
    pub fn new(schema: Schema) -> Self {
        TableStore { schema: Arc::new(schema), rows: BTreeMap::new(), indexes: HashMap::new() }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds (and back-fills) a secondary index on `column`.
    pub fn create_index(&mut self, column: &str) -> DbResult<()> {
        let col = self
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn(column.to_string()))?;
        if self.indexes.contains_key(&col) {
            return Ok(()); // idempotent: replay may re-create
        }
        let mut index: BTreeMap<Value, BTreeSet<Value>> = BTreeMap::new();
        for (key, row) in &self.rows {
            index.entry(row[col].clone()).or_default().insert(key.clone());
        }
        self.indexes.insert(col, index);
        Ok(())
    }

    pub fn get(&self, key: &Value) -> Option<&SharedRow> {
        self.rows.get(key)
    }

    pub fn contains(&self, key: &Value) -> bool {
        self.rows.contains_key(key)
    }

    /// Ordered iterator over (key, row).
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &SharedRow)> {
        self.rows.iter()
    }

    /// Primary keys whose `column` equals `value`, via index when present,
    /// otherwise by scan.
    pub fn find_equal(&self, column: &str, value: &Value) -> DbResult<Vec<Value>> {
        let col = self
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn(column.to_string()))?;
        if let Some(index) = self.indexes.get(&col) {
            Ok(index.get(value).map(|keys| keys.iter().cloned().collect()).unwrap_or_default())
        } else {
            Ok(self
                .rows
                .iter()
                .filter(|(_, row)| &row[col] == value)
                .map(|(k, _)| k.clone())
                .collect())
        }
    }

    /// Inserts a committed row. The caller has already validated the schema
    /// and uniqueness under locks; replay trusts the log.
    pub fn apply_insert(&mut self, row: SharedRow) {
        let key = self.schema.key_of(&row);
        for (col, index) in &mut self.indexes {
            index.entry(row[*col].clone()).or_default().insert(key.clone());
        }
        self.rows.insert(key, row);
    }

    /// Replaces the committed row at `key`.
    pub fn apply_update(&mut self, key: Value, row: SharedRow) {
        if let Some(old) = self.rows.get(&key) {
            for (col, index) in &mut self.indexes {
                let old_val = &old[*col];
                let new_val = &row[*col];
                if old_val != new_val {
                    if let Some(set) = index.get_mut(old_val) {
                        set.remove(&key);
                        if set.is_empty() {
                            index.remove(old_val);
                        }
                    }
                    index.entry(new_val.clone()).or_default().insert(key.clone());
                }
            }
        }
        self.rows.insert(key, row);
    }

    /// Removes the committed row at `key`.
    pub fn apply_delete(&mut self, key: &Value) {
        if let Some(old) = self.rows.remove(key) {
            for (col, index) in &mut self.indexes {
                if let Some(set) = index.get_mut(&old[*col]) {
                    set.remove(key);
                    if set.is_empty() {
                        index.remove(&old[*col]);
                    }
                }
            }
        }
    }

    /// Columns carrying secondary indexes (snapshot serialization).
    pub fn indexed_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> =
            self.indexes.keys().map(|c| self.schema.columns[*c].name.clone()).collect();
        cols.sort();
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Column, ColumnType};

    fn store() -> TableStore {
        let schema = Schema::new(
            "emp",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("dept", ColumnType::Text),
                Column::nullable("picture", ColumnType::DataLink),
            ],
            "id",
        )
        .unwrap();
        TableStore::new(schema)
    }

    fn emp(id: i64, dept: &str) -> SharedRow {
        [Value::Int(id), Value::Text(dept.into()), Value::Null].into()
    }

    #[test]
    fn insert_get_delete() {
        let mut s = store();
        s.apply_insert(emp(1, "eng"));
        assert_eq!(s.get(&Value::Int(1)).unwrap()[1], Value::Text("eng".into()));
        assert_eq!(s.len(), 1);
        s.apply_delete(&Value::Int(1));
        assert!(s.get(&Value::Int(1)).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn update_replaces() {
        let mut s = store();
        s.apply_insert(emp(1, "eng"));
        s.apply_update(Value::Int(1), emp(1, "sales"));
        assert_eq!(s.get(&Value::Int(1)).unwrap()[1], Value::Text("sales".into()));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn scan_is_key_ordered() {
        let mut s = store();
        s.apply_insert(emp(3, "a"));
        s.apply_insert(emp(1, "b"));
        s.apply_insert(emp(2, "c"));
        let keys: Vec<i64> = s.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn index_backfills_and_maintains() {
        let mut s = store();
        s.apply_insert(emp(1, "eng"));
        s.apply_insert(emp(2, "eng"));
        s.apply_insert(emp(3, "sales"));
        s.create_index("dept").unwrap();
        assert_eq!(s.indexed_columns(), ["dept"]);

        let eng = s.find_equal("dept", &Value::Text("eng".into())).unwrap();
        assert_eq!(eng, vec![Value::Int(1), Value::Int(2)]);

        s.apply_update(Value::Int(2), emp(2, "sales"));
        let eng = s.find_equal("dept", &Value::Text("eng".into())).unwrap();
        assert_eq!(eng, vec![Value::Int(1)]);
        let sales = s.find_equal("dept", &Value::Text("sales".into())).unwrap();
        assert_eq!(sales.len(), 2);

        s.apply_delete(&Value::Int(3));
        let sales = s.find_equal("dept", &Value::Text("sales".into())).unwrap();
        assert_eq!(sales, vec![Value::Int(2)]);
    }

    #[test]
    fn find_equal_without_index_scans() {
        let mut s = store();
        s.apply_insert(emp(1, "eng"));
        s.apply_insert(emp(2, "ops"));
        let hits = s.find_equal("dept", &Value::Text("ops".into())).unwrap();
        assert_eq!(hits, vec![Value::Int(2)]);
    }

    #[test]
    fn find_on_missing_column_errors() {
        let s = store();
        assert!(matches!(s.find_equal("nope", &Value::Int(0)), Err(DbError::NoSuchColumn(_))));
    }

    #[test]
    fn create_index_is_idempotent() {
        let mut s = store();
        s.apply_insert(emp(1, "eng"));
        s.create_index("dept").unwrap();
        s.create_index("dept").unwrap();
        assert_eq!(s.indexed_columns(), vec!["dept".to_string()]);
    }
}
