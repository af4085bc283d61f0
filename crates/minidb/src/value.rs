//! Typed values, rows and schemas.
//!
//! The type system is deliberately small: what the paper's scenarios need
//! (movie catalogues, web-page metadata) plus the `DataLink` type proposed
//! for the SQL/MED standard (§2.1). A `DataLink` value carries the URL text;
//! interpretation (control mode, tokens) belongs to the DataLinks engine in
//! `dl-core`, keeping this crate a generic substrate.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    Float,
    Bool,
    Text,
    Bytes,
    /// SQL/MED DATALINK: a URL referencing an external file (§2.1).
    DataLink,
}

/// A single typed value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Text(String),
    Bytes(Vec<u8>),
    /// URL of an external file, e.g. `dlfs://server1/movies/clip.mpg`.
    DataLink(String),
}

impl Value {
    /// True when the value is compatible with `ty` (Null matches anything
    /// nullable; nullability is checked separately by the schema).
    pub fn matches(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), ColumnType::Int)
                | (Value::Float(_), ColumnType::Float)
                | (Value::Bool(_), ColumnType::Bool)
                | (Value::Text(_), ColumnType::Text)
                | (Value::Bytes(_), ColumnType::Bytes)
                | (Value::DataLink(_), ColumnType::DataLink)
        )
    }

    fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts text from `Text` or `DataLink` values.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) | Value::DataLink(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Discriminant used for cross-type ordering.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Text(_) => 4,
            Value::Bytes(_) => 5,
            Value::DataLink(_) => 6,
        }
    }
}

/// Equality matches the total order below: floats compare *bitwise* via the
/// IEEE total-order key, so `NaN == NaN` and `-0.0 != +0.0`. That keeps
/// `Eq`, `Ord` and `Hash` mutually consistent, which values-as-keys require.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u8(self.rank());
        match self {
            Value::Null => {}
            Value::Int(i) => state.write_i64(*i),
            Value::Float(f) => state.write_u64(total_order_key(*f)),
            Value::Bool(b) => state.write_u8(u8::from(*b)),
            Value::Text(s) | Value::DataLink(s) => state.write(s.as_bytes()),
            Value::Bytes(b) => state.write(b),
        }
    }
}

/// Total order over values so they can serve as B-tree keys. Floats are
/// ordered by their IEEE total-order bit pattern (NaN sorts high), matching
/// what a database index needs: *some* deterministic total order.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => {
                let ka = total_order_key(*a);
                let kb = total_order_key(*b);
                ka.cmp(&kb)
            }
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (DataLink(a), DataLink(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn total_order_key(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "x'{}'", hex(b)),
            Value::DataLink(u) => write!(f, "DATALINK('{u}')"),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Convenience conversions for terser test and example code.
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A row is a vector of values, positionally matching the schema's columns:
/// what a statement supplies ([`crate::Txn::insert`], [`crate::Txn::update`])
/// and what a scan returns.
pub type Row = Vec<Value>;

/// A committed or buffered row image, one allocation shared by the table
/// store, a transaction's read-your-writes overlay, its ops and the commit
/// record: a point read hands out this handle, not a copy.
pub type SharedRow = Arc<[Value]>;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: &str, ty: ColumnType) -> Self {
        Column { name: name.to_string(), ty, nullable: false }
    }

    pub fn nullable(name: &str, ty: ColumnType) -> Self {
        Column { name: name.to_string(), ty, nullable: true }
    }
}

/// A table schema: named columns with a single-column primary key.
///
/// Composite keys are not needed by any DataLinks structure (the repository
/// keys everything by file path or token id), so the engine keeps the
/// textbook single-column primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub table: String,
    pub columns: Vec<Column>,
    /// Index into `columns` of the primary-key column.
    pub primary_key: usize,
}

impl Schema {
    /// Builds a schema; the primary key is the column named `pk`.
    pub fn new(table: &str, columns: Vec<Column>, pk: &str) -> Result<Self, String> {
        let primary_key = columns
            .iter()
            .position(|c| c.name == pk)
            .ok_or_else(|| format!("primary key column {pk} not in column list"))?;
        if columns[primary_key].nullable {
            return Err(format!("primary key column {pk} must not be nullable"));
        }
        let mut names: Vec<&str> = columns.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != columns.len() {
            return Err(format!("duplicate column names in table {table}"));
        }
        Ok(Schema { table: table.to_string(), columns, primary_key })
    }

    /// Index of column `name`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validates a row against the schema; returns a description of the
    /// first violation.
    pub fn validate(&self, row: &[Value]) -> Result<(), String> {
        if row.len() != self.columns.len() {
            return Err(format!(
                "row has {} values, table {} has {} columns",
                row.len(),
                self.table,
                self.columns.len()
            ));
        }
        for (value, col) in row.iter().zip(&self.columns) {
            if value.is_null() {
                if !col.nullable {
                    return Err(format!("column {} is not nullable", col.name));
                }
            } else if !value.matches(col.ty) {
                return Err(format!(
                    "value {value} does not match type {:?} of column {}",
                    col.ty, col.name
                ));
            }
        }
        if row[self.primary_key].is_null() {
            return Err("primary key is null".to_string());
        }
        Ok(())
    }

    /// Extracts the primary-key value of a row.
    pub fn key_of(&self, row: &[Value]) -> Value {
        row[self.primary_key].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movie_schema() -> Schema {
        Schema::new(
            "movies",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("title", ColumnType::Text),
                Column::nullable("clip", ColumnType::DataLink),
                Column::nullable("price", ColumnType::Float),
            ],
            "id",
        )
        .unwrap()
    }

    #[test]
    fn schema_rejects_unknown_pk() {
        assert!(Schema::new("t", vec![Column::new("a", ColumnType::Int)], "b").is_err());
    }

    #[test]
    fn schema_rejects_nullable_pk() {
        assert!(Schema::new("t", vec![Column::nullable("a", ColumnType::Int)], "a").is_err());
    }

    #[test]
    fn schema_rejects_duplicate_columns() {
        assert!(Schema::new(
            "t",
            vec![Column::new("a", ColumnType::Int), Column::new("a", ColumnType::Text)],
            "a"
        )
        .is_err());
    }

    #[test]
    fn validate_accepts_good_row() {
        let s = movie_schema();
        let row = vec![
            Value::Int(1),
            Value::Text("Vertigo".into()),
            Value::DataLink("dlfs://srv/clips/vertigo.mpg".into()),
            Value::Float(9.99),
        ];
        assert!(s.validate(&row).is_ok());
        assert_eq!(s.key_of(&row), Value::Int(1));
    }

    #[test]
    fn validate_rejects_wrong_arity_and_types() {
        let s = movie_schema();
        assert!(s.validate(&[Value::Int(1)]).is_err());
        let bad_type = vec![
            Value::Int(1),
            Value::Int(2), // title must be text
            Value::Null,
            Value::Null,
        ];
        assert!(s.validate(&bad_type).is_err());
    }

    #[test]
    fn validate_rejects_null_in_non_nullable() {
        let s = movie_schema();
        let row = vec![Value::Int(1), Value::Null, Value::Null, Value::Null];
        assert!(s.validate(&row).is_err());
    }

    #[test]
    fn nullable_columns_accept_null() {
        let s = movie_schema();
        let row = vec![Value::Int(1), Value::Text("M".into()), Value::Null, Value::Null];
        assert!(s.validate(&row).is_ok());
    }

    #[test]
    fn value_total_order_is_consistent() {
        let mut vals = [
            Value::Float(f64::NAN),
            Value::Float(-1.5),
            Value::Float(2.0),
            Value::Int(3),
            Value::Null,
            Value::Text("b".into()),
            Value::Text("a".into()),
        ];
        vals.sort();
        // Null < ints < floats < text; floats ordered, NaN last among floats.
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(3));
        assert_eq!(vals[2], Value::Float(-1.5));
        assert_eq!(vals[3], Value::Float(2.0));
        assert!(matches!(vals[4], Value::Float(f) if f.is_nan()));
        assert_eq!(vals[5], Value::Text("a".into()));
    }

    #[test]
    fn float_total_order_handles_signs_and_zero() {
        let a = Value::Float(-0.0);
        let b = Value::Float(0.0);
        assert!(a < b, "-0.0 sorts before +0.0 in total order");
        assert!(Value::Float(f64::NEG_INFINITY) < Value::Float(-1.0));
        assert!(Value::Float(1.0) < Value::Float(f64::INFINITY));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Text("x".into()).to_string(), "'x'");
        assert_eq!(Value::Bytes(vec![0xab, 0x01]).to_string(), "x'ab01'");
        assert_eq!(Value::DataLink("dlfs://s/f".into()).to_string(), "DATALINK('dlfs://s/f')");
    }

    #[test]
    fn value_matches_types() {
        assert!(Value::Int(1).matches(ColumnType::Int));
        assert!(!Value::Int(1).matches(ColumnType::Text));
        assert!(Value::Null.matches(ColumnType::Bytes));
        assert!(Value::DataLink("u".into()).matches(ColumnType::DataLink));
    }
}
