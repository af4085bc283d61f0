//! Hand-rolled binary codec for log records, snapshots and repository rows.
//!
//! Database logs want a self-contained, versioned, checksummed format with
//! no reflection overhead, so the codec is explicit: little-endian fixed
//! width integers, length-prefixed byte strings, one tag byte per value.
//! A CRC-32 (IEEE, table-driven) guards every framed record.

use crate::error::{DbError, DbResult};
use crate::value::{Column, ColumnType, Row, Schema, Value};

/// CRC-32 (IEEE 802.3) lookup table, built at first use.
fn crc_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        table
    })
}

/// Computes the CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only byte sink with typed put operations.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Enc { buf: Vec::with_capacity(cap) }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over a byte slice with typed take operations.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(DbError::Corrupt(format!(
                "decode underrun: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn get_u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> DbResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_u64(&mut self) -> DbResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn get_i64(&mut self) -> DbResult<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn get_f64(&mut self) -> DbResult<f64> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn get_bool(&mut self) -> DbResult<bool> {
        Ok(self.get_u8()? != 0)
    }

    fn get_bytes(&mut self) -> DbResult<Vec<u8>> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    pub fn get_str(&mut self) -> DbResult<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|e| DbError::Corrupt(format!("invalid utf8: {e}")))
    }
}

// --- Value / Row / Schema codecs -------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_TEXT: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_DATALINK: u8 = 6;

pub fn put_value(enc: &mut Enc, v: &Value) {
    match v {
        Value::Null => enc.put_u8(TAG_NULL),
        Value::Int(i) => {
            enc.put_u8(TAG_INT);
            enc.put_i64(*i);
        }
        Value::Float(f) => {
            enc.put_u8(TAG_FLOAT);
            enc.put_f64(*f);
        }
        Value::Bool(b) => {
            enc.put_u8(TAG_BOOL);
            enc.put_bool(*b);
        }
        Value::Text(s) => {
            enc.put_u8(TAG_TEXT);
            enc.put_str(s);
        }
        Value::Bytes(b) => {
            enc.put_u8(TAG_BYTES);
            enc.put_bytes(b);
        }
        Value::DataLink(u) => {
            enc.put_u8(TAG_DATALINK);
            enc.put_str(u);
        }
    }
}

pub fn get_value(dec: &mut Dec<'_>) -> DbResult<Value> {
    Ok(match dec.get_u8()? {
        TAG_NULL => Value::Null,
        TAG_INT => Value::Int(dec.get_i64()?),
        TAG_FLOAT => Value::Float(dec.get_f64()?),
        TAG_BOOL => Value::Bool(dec.get_bool()?),
        TAG_TEXT => Value::Text(dec.get_str()?),
        TAG_BYTES => Value::Bytes(dec.get_bytes()?),
        TAG_DATALINK => Value::DataLink(dec.get_str()?),
        t => return Err(DbError::Corrupt(format!("unknown value tag {t}"))),
    })
}

pub fn put_row(enc: &mut Enc, row: &[Value]) {
    enc.put_u32(row.len() as u32);
    for v in row {
        put_value(enc, v);
    }
}

pub fn get_row(dec: &mut Dec<'_>) -> DbResult<Row> {
    let n = dec.get_u32()? as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(get_value(dec)?);
    }
    Ok(row)
}

fn column_type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Bool => 2,
        ColumnType::Text => 3,
        ColumnType::Bytes => 4,
        ColumnType::DataLink => 5,
    }
}

fn column_type_from_tag(tag: u8) -> DbResult<ColumnType> {
    Ok(match tag {
        0 => ColumnType::Int,
        1 => ColumnType::Float,
        2 => ColumnType::Bool,
        3 => ColumnType::Text,
        4 => ColumnType::Bytes,
        5 => ColumnType::DataLink,
        t => return Err(DbError::Corrupt(format!("unknown column type tag {t}"))),
    })
}

pub fn put_schema(enc: &mut Enc, schema: &Schema) {
    enc.put_str(&schema.table);
    enc.put_u32(schema.columns.len() as u32);
    for col in &schema.columns {
        enc.put_str(&col.name);
        enc.put_u8(column_type_tag(col.ty));
        enc.put_bool(col.nullable);
    }
    enc.put_u32(schema.primary_key as u32);
}

pub fn get_schema(dec: &mut Dec<'_>) -> DbResult<Schema> {
    let table = dec.get_str()?;
    let ncols = dec.get_u32()? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = dec.get_str()?;
        let ty = column_type_from_tag(dec.get_u8()?)?;
        let nullable = dec.get_bool()?;
        columns.push(Column { name, ty, nullable });
    }
    let primary_key = dec.get_u32()? as usize;
    if primary_key >= columns.len() {
        return Err(DbError::Corrupt("primary key index out of range".into()));
    }
    Ok(Schema { table, columns, primary_key })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scalar_roundtrip() {
        let mut enc = Enc::new();
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX);
        enc.put_i64(-42);
        enc.put_f64(3.25);
        enc.put_bool(true);
        enc.put_str("hello");
        enc.put_bytes(&[1, 2, 3]);
        let bytes = enc.into_bytes();

        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_i64().unwrap(), -42);
        assert_eq!(dec.get_f64().unwrap(), 3.25);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_str().unwrap(), "hello");
        assert_eq!(dec.get_bytes().unwrap(), vec![1, 2, 3]);
        assert!(dec.is_done());
    }

    #[test]
    fn underrun_is_reported_not_panicking() {
        let mut dec = Dec::new(&[1, 2]);
        assert!(matches!(dec.get_u64(), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn value_roundtrip_all_variants() {
        let values = vec![
            Value::Null,
            Value::Int(-7),
            Value::Float(1.5),
            Value::Bool(true),
            Value::Text("τext".into()),
            Value::Bytes(vec![0, 255, 127]),
            Value::DataLink("dlfs://srv/a/b".into()),
        ];
        let mut enc = Enc::new();
        put_row(&mut enc, &values);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(get_row(&mut dec).unwrap(), values);
    }

    #[test]
    fn nan_float_roundtrips_bitwise() {
        let mut enc = Enc::new();
        put_value(&mut enc, &Value::Float(f64::NAN));
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        match get_value(&mut dec).unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn schema_roundtrip() {
        let schema = Schema::new(
            "emp",
            vec![
                Column::new("id", ColumnType::Int),
                Column::nullable("picture", ColumnType::DataLink),
                Column::nullable("note", ColumnType::Text),
            ],
            "id",
        )
        .unwrap();
        let mut enc = Enc::new();
        put_schema(&mut enc, &schema);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(get_schema(&mut dec).unwrap(), schema);
    }

    #[test]
    fn bad_tags_are_corruption_errors() {
        let mut dec = Dec::new(&[99]);
        assert!(matches!(get_value(&mut dec), Err(DbError::Corrupt(_))));
    }
}
