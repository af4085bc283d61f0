//! Logical row operations — the unit of logging and replay.
//!
//! The engine uses *logical* redo logging: each committed transaction's
//! effects are described as a list of `RowOp`s that can be re-applied to the
//! in-memory stores during recovery. DDL is logged with the same vocabulary
//! so a log replay can rebuild the catalog from scratch. A row op holds the
//! statement's [`SharedRow`]: the transaction's overlay, its commit record
//! and, once applied, the table store all hold that one allocation.

use crate::codec::{
    get_row, get_schema, get_value, put_row, put_schema, put_value, row_len, schema_len, str_len,
    value_len, Dec, Enc,
};
use crate::error::{DbError, DbResult};
use crate::value::{Schema, SharedRow, Value};

/// One logical operation against the catalog or a table.
#[derive(Debug, Clone, PartialEq)]
pub enum RowOp {
    CreateTable(Schema),
    DropTable(String),
    /// Secondary index on `column` of `table`.
    CreateIndex {
        table: String,
        column: String,
    },
    Insert {
        table: String,
        row: SharedRow,
    },
    /// Full-row replacement identified by primary key.
    Update {
        table: String,
        key: Value,
        row: SharedRow,
    },
    Delete {
        table: String,
        key: Value,
    },
}

impl RowOp {
    /// Table touched by this op.
    pub fn table(&self) -> &str {
        match self {
            RowOp::CreateTable(s) => &s.table,
            RowOp::DropTable(t) => t,
            RowOp::CreateIndex { table, .. } => table,
            RowOp::Insert { table, .. } => table,
            RowOp::Update { table, .. } => table,
            RowOp::Delete { table, .. } => table,
        }
    }

    pub fn encode(&self, enc: &mut Enc) {
        match self {
            RowOp::CreateTable(schema) => {
                enc.put_u8(0);
                put_schema(enc, schema);
            }
            RowOp::DropTable(table) => {
                enc.put_u8(1);
                enc.put_str(table);
            }
            RowOp::CreateIndex { table, column } => {
                enc.put_u8(2);
                enc.put_str(table);
                enc.put_str(column);
            }
            RowOp::Insert { table, row } => {
                enc.put_u8(3);
                enc.put_str(table);
                put_row(enc, row);
            }
            RowOp::Update { table, key, row } => {
                enc.put_u8(4);
                enc.put_str(table);
                put_value(enc, key);
                put_row(enc, row);
            }
            RowOp::Delete { table, key } => {
                enc.put_u8(5);
                enc.put_str(table);
                put_value(enc, key);
            }
        }
    }

    /// Bytes [`RowOp::encode`] writes.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            RowOp::CreateTable(schema) => schema_len(schema),
            RowOp::DropTable(table) => str_len(table),
            RowOp::CreateIndex { table, column } => str_len(table) + str_len(column),
            RowOp::Insert { table, row } => str_len(table) + row_len(row),
            RowOp::Update { table, key, row } => str_len(table) + value_len(key) + row_len(row),
            RowOp::Delete { table, key } => str_len(table) + value_len(key),
        }
    }

    pub fn decode(dec: &mut Dec<'_>) -> DbResult<RowOp> {
        Ok(match dec.get_u8()? {
            0 => RowOp::CreateTable(get_schema(dec)?),
            1 => RowOp::DropTable(dec.get_str()?),
            2 => RowOp::CreateIndex { table: dec.get_str()?, column: dec.get_str()? },
            3 => RowOp::Insert { table: dec.get_str()?, row: get_row(dec)?.into() },
            4 => RowOp::Update {
                table: dec.get_str()?,
                key: get_value(dec)?,
                row: get_row(dec)?.into(),
            },
            5 => RowOp::Delete { table: dec.get_str()?, key: get_value(dec)? },
            t => return Err(DbError::Corrupt(format!("unknown rowop tag {t}"))),
        })
    }

    pub fn encode_list(ops: &[RowOp], enc: &mut Enc) {
        enc.put_u32(ops.len() as u32);
        for op in ops {
            op.encode(enc);
        }
    }

    /// Bytes [`RowOp::encode_list`] writes.
    pub fn list_encoded_len(ops: &[RowOp]) -> usize {
        4 + ops.iter().map(RowOp::encoded_len).sum::<usize>()
    }

    pub fn decode_list(dec: &mut Dec<'_>) -> DbResult<Vec<RowOp>> {
        let n = dec.get_u32()? as usize;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(RowOp::decode(dec)?);
        }
        Ok(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Column, ColumnType};

    fn ops_fixture() -> Vec<RowOp> {
        let schema = Schema::new(
            "t",
            vec![Column::new("k", ColumnType::Int), Column::nullable("v", ColumnType::Text)],
            "k",
        )
        .unwrap();
        vec![
            RowOp::CreateTable(schema),
            RowOp::CreateIndex { table: "t".into(), column: "v".into() },
            RowOp::Insert {
                table: "t".into(),
                row: [Value::Int(1), Value::Text("a".into())].into(),
            },
            RowOp::Update {
                table: "t".into(),
                key: Value::Int(1),
                row: [Value::Int(1), Value::Text("b".into())].into(),
            },
            RowOp::Delete { table: "t".into(), key: Value::Int(1) },
            RowOp::DropTable("t".into()),
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        let ops = ops_fixture();
        let mut enc = Enc::new();
        RowOp::encode_list(&ops, &mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), RowOp::list_encoded_len(&ops));
        let mut dec = Dec::new(&bytes);
        assert_eq!(RowOp::decode_list(&mut dec).unwrap(), ops);
        assert!(dec.is_done());
    }

    #[test]
    fn each_op_writes_the_bytes_its_length_says() {
        let mut ops = ops_fixture();
        ops.push(RowOp::Insert {
            table: "every value".into(),
            row: [
                Value::Null,
                Value::Int(-1),
                Value::Float(0.5),
                Value::Bool(true),
                Value::Text("txt".into()),
                Value::Bytes(vec![1, 2, 3, 4]),
                Value::DataLink("dlfs://srv/a/b".into()),
            ]
            .into(),
        });
        for op in &ops {
            let mut enc = Enc::new();
            op.encode(&mut enc);
            assert_eq!(enc.len(), op.encoded_len(), "{op:?}");
        }
    }

    #[test]
    fn table_accessor() {
        for op in ops_fixture() {
            assert_eq!(op.table(), "t");
        }
    }

    #[test]
    fn decode_garbage_is_error() {
        let mut dec = Dec::new(&[42]);
        assert!(RowOp::decode(&mut dec).is_err());
    }
}
