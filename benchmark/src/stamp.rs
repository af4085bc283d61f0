//! Stamped file content. Every payload the benchmark writes is one
//! 16-byte record `(client, seq, magic)` repeated to fill the file, so a
//! torn write (two stamps in one file), a truncated file or stale content
//! (a seq older than the last acknowledged update) is detectable from the
//! bytes alone.

pub const FILE_SIZE: usize = 4096;
const RECORD: usize = 16;
const MAGIC: u32 = 0xD17A_11C5;

/// The `client` of content nobody has updated yet (the seeded files).
pub const NO_CLIENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub client: u32,
    pub seq: u64,
}

#[derive(Debug, PartialEq, Eq)]
pub enum StampError {
    WrongLength(usize),
    BadMagic,
    /// The record at this byte offset differs from the first one.
    Torn(usize),
}

impl Stamp {
    pub fn seed() -> Stamp {
        Stamp { client: NO_CLIENT, seq: 0 }
    }

    fn record(self) -> [u8; RECORD] {
        let mut r = [0u8; RECORD];
        r[0..4].copy_from_slice(&self.client.to_le_bytes());
        r[4..12].copy_from_slice(&self.seq.to_le_bytes());
        r[12..16].copy_from_slice(&MAGIC.to_le_bytes());
        r
    }

    pub fn encode(self) -> Vec<u8> {
        self.record().repeat(FILE_SIZE / RECORD)
    }

    /// Decodes `data`, accepting only a full-size file of one uniform stamp.
    pub fn verify(data: &[u8]) -> Result<Stamp, StampError> {
        if data.len() != FILE_SIZE {
            return Err(StampError::WrongLength(data.len()));
        }
        let first = &data[..RECORD];
        if first[12..16] != MAGIC.to_le_bytes() {
            return Err(StampError::BadMagic);
        }
        if let Some(i) = data.chunks_exact(RECORD).position(|c| c != first) {
            return Err(StampError::Torn(i * RECORD));
        }
        Ok(Stamp {
            client: u32::from_le_bytes(first[0..4].try_into().expect("4 bytes")),
            seq: u64::from_le_bytes(first[4..12].try_into().expect("8 bytes")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_round_trips_at_file_size() {
        let s = Stamp { client: 1, seq: 0xDEAD_BEEF_0042 };
        let bytes = s.encode();
        assert_eq!(bytes.len(), FILE_SIZE);
        assert_eq!(Stamp::verify(&bytes), Ok(s));
        assert_eq!(Stamp::verify(&Stamp::seed().encode()), Ok(Stamp::seed()));
    }

    #[test]
    fn torn_content_is_rejected_at_the_tear() {
        let mut bytes = Stamp { client: 0, seq: 7 }.encode();
        let newer = Stamp { client: 0, seq: 8 }.encode();
        bytes[2048..].copy_from_slice(&newer[2048..]);
        assert_eq!(Stamp::verify(&bytes), Err(StampError::Torn(2048)));
    }

    #[test]
    fn short_and_foreign_content_is_rejected() {
        let bytes = Stamp { client: 0, seq: 7 }.encode();
        assert_eq!(Stamp::verify(&bytes[..4000]), Err(StampError::WrongLength(4000)));
        assert_eq!(Stamp::verify(&[0u8; FILE_SIZE]), Err(StampError::BadMagic));
    }
}
