//! The frame codec.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! [u32 len][u64 request-id][u8 tag][payload...]
//! ```
//!
//! `len` counts everything after itself (request-id + tag + payload), so
//! a reader needs exactly 4 bytes to learn how much more to wait for.
//! The request-id correlates replies with requests: one connection
//! multiplexes any number of concurrent calls, and replies may arrive in
//! any order. Strings are `[u32 len][utf8 bytes]`; bools are a strict
//! 0/1 byte; enums cross the wire as raw `u8` discriminants so this
//! crate stays independent of the DLFM type definitions.

use std::fmt;

/// Ceiling on a frame's declared length. A stream announcing more than
/// this is garbage (or hostile) — fail decoding instead of buffering
/// unboundedly. Generous: the largest legitimate payload is a path plus
/// a token, both far under a megabyte.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Why a byte stream failed to decode. Any error is fatal to the
/// connection that produced it: framing has lost sync and nothing after
/// the failure can be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Declared frame length exceeds [`MAX_FRAME_LEN`] or is too short
    /// to hold the request-id + tag.
    BadLength(u64),
    /// Unknown message tag.
    BadTag(u8),
    /// Payload ended before the message was complete, or had trailing
    /// bytes after it.
    Truncated,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A bool field held something other than 0 or 1.
    BadBool(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadLength(n) => write!(f, "frame length {n} out of bounds"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::Truncated => write!(f, "truncated message payload"),
            DecodeError::BadUtf8 => write!(f, "string field is not UTF-8"),
            DecodeError::BadBool(b) => write!(f, "bool field holds {b}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Every message of the agent/upcall protocol. Requests and replies
/// share one tag space; the request-id in the frame header ties them
/// together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    // --- session -----------------------------------------------------------
    /// First frame on every connection; the server answers [`Message::HelloAck`].
    Hello {
        client: String,
    },
    /// Connection parameters the client caches for its lifetime. The
    /// coordinator epoch stamps every subsequent 2PC request from this
    /// connection, exactly like an in-process agent handle minted at
    /// connect time.
    HelloAck {
        server: String,
        coord_epoch: u64,
        strict_link: bool,
        dlfm_uid: u32,
        dlfm_gid: u32,
    },

    // --- agent operations (link/unlink + 2PC) ------------------------------
    Link {
        txid: u64,
        coord_epoch: u64,
        path: String,
        mode: u8,
        recovery: bool,
        on_unlink: u8,
    },
    Unlink {
        txid: u64,
        coord_epoch: u64,
        path: String,
    },
    Commit {
        txid: u64,
        coord_epoch: u64,
    },
    Abort {
        txid: u64,
        coord_epoch: u64,
    },

    // --- upcall operations (the DLFS conversation) --------------------------
    ValidateToken {
        path: String,
        token: String,
        uid: u32,
    },
    OpenCheck {
        path: String,
        uid: u32,
        wanted: u8,
        opener: u64,
        /// The access token the open presents, as stripped from the name
        /// at lookup; empty when it presents none.
        token: String,
    },
    CloseNotify {
        path: String,
        opener: u64,
        wrote: bool,
        size: u64,
        mtime: u64,
    },
    MutationCheck {
        path: String,
    },
    RegisterOpen {
        path: String,
        uid: u32,
        opener: u64,
    },
    UnregisterOpen {
        path: String,
        opener: u64,
    },
    /// Current sync/archive epoch (DLFS's Busy wait polls this over the
    /// wire until it moves past the epoch its `OpenBusy` reply carried).
    EpochGet,
    /// The repository's durable LSN — the freshness token of
    /// read-your-writes routing.
    FreshnessToken,

    // --- replies ------------------------------------------------------------
    Ok,
    Err(String),
    /// A link's vote: what the node read of the file under the branch's
    /// row lock, for the host's metadata row — size and mtime (§4.3) and
    /// the original owner and permission bits the decision's take-over
    /// replaces and an unlink hands back.
    LinkVote {
        size: u64,
        mtime: u64,
        uid: u32,
        gid: u32,
        mode: u16,
    },
    TokenKindIs(u8),
    OpenApproved {
        uid: u32,
        gid: u32,
    },
    OpenNotManaged,
    /// A conflicting open holds the file. Carries the sync epoch — which
    /// moves whenever an open-table entry or branch mark leaves — as the
    /// server read it *before* it ran the check, so the client can wait
    /// for a change from that epoch without having asked for it in a
    /// separate round trip.
    OpenBusy(u64),
    OpenRejected(String),
    EpochIs(u64),
    Freshness(u64),
}

// Tag space: requests low, replies from 64. Gaps are reserved.
const T_HELLO: u8 = 1;
const T_HELLO_ACK: u8 = 2;
const T_LINK: u8 = 3;
const T_UNLINK: u8 = 4;
const T_COMMIT: u8 = 6;
const T_ABORT: u8 = 7;
const T_VALIDATE_TOKEN: u8 = 8;
const T_OPEN_CHECK: u8 = 9;
const T_CLOSE_NOTIFY: u8 = 10;
const T_MUTATION_CHECK: u8 = 11;
const T_REGISTER_OPEN: u8 = 12;
const T_UNREGISTER_OPEN: u8 = 13;
const T_EPOCH_GET: u8 = 14;
const T_FRESHNESS_TOKEN: u8 = 15;
const T_OK: u8 = 64;
const T_ERR: u8 = 65;
const T_TOKEN_KIND: u8 = 66;
const T_OPEN_APPROVED: u8 = 67;
const T_OPEN_NOT_MANAGED: u8 = 68;
const T_OPEN_BUSY: u8 = 69;
const T_OPEN_REJECTED: u8 = 70;
const T_EPOCH_IS: u8 = 71;
const T_FRESHNESS: u8 = 72;
const T_LINK_VOTE: u8 = 73;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over one frame's payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::BadBool(other)),
        }
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Truncated)
        }
    }
}

impl Message {
    /// The variant's name, without its fields (labels, error text).
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::HelloAck { .. } => "HelloAck",
            Message::Link { .. } => "Link",
            Message::Unlink { .. } => "Unlink",
            Message::Commit { .. } => "Commit",
            Message::Abort { .. } => "Abort",
            Message::ValidateToken { .. } => "ValidateToken",
            Message::OpenCheck { .. } => "OpenCheck",
            Message::CloseNotify { .. } => "CloseNotify",
            Message::MutationCheck { .. } => "MutationCheck",
            Message::RegisterOpen { .. } => "RegisterOpen",
            Message::UnregisterOpen { .. } => "UnregisterOpen",
            Message::EpochGet => "EpochGet",
            Message::FreshnessToken => "FreshnessToken",
            Message::Ok => "Ok",
            Message::Err(_) => "Err",
            Message::LinkVote { .. } => "LinkVote",
            Message::TokenKindIs(_) => "TokenKindIs",
            Message::OpenApproved { .. } => "OpenApproved",
            Message::OpenNotManaged => "OpenNotManaged",
            Message::OpenBusy(_) => "OpenBusy",
            Message::OpenRejected(_) => "OpenRejected",
            Message::EpochIs(_) => "EpochIs",
            Message::Freshness(_) => "Freshness",
        }
    }

    /// The host transaction an agent operation belongs to.
    pub fn txid(&self) -> Option<u64> {
        match self {
            Message::Link { txid, .. }
            | Message::Unlink { txid, .. }
            | Message::Commit { txid, .. }
            | Message::Abort { txid, .. } => Some(*txid),
            _ => None,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => T_HELLO,
            Message::HelloAck { .. } => T_HELLO_ACK,
            Message::Link { .. } => T_LINK,
            Message::Unlink { .. } => T_UNLINK,
            Message::Commit { .. } => T_COMMIT,
            Message::Abort { .. } => T_ABORT,
            Message::ValidateToken { .. } => T_VALIDATE_TOKEN,
            Message::OpenCheck { .. } => T_OPEN_CHECK,
            Message::CloseNotify { .. } => T_CLOSE_NOTIFY,
            Message::MutationCheck { .. } => T_MUTATION_CHECK,
            Message::RegisterOpen { .. } => T_REGISTER_OPEN,
            Message::UnregisterOpen { .. } => T_UNREGISTER_OPEN,
            Message::EpochGet => T_EPOCH_GET,
            Message::FreshnessToken => T_FRESHNESS_TOKEN,
            Message::Ok => T_OK,
            Message::Err(_) => T_ERR,
            Message::LinkVote { .. } => T_LINK_VOTE,
            Message::TokenKindIs(_) => T_TOKEN_KIND,
            Message::OpenApproved { .. } => T_OPEN_APPROVED,
            Message::OpenNotManaged => T_OPEN_NOT_MANAGED,
            Message::OpenBusy(_) => T_OPEN_BUSY,
            Message::OpenRejected(_) => T_OPEN_REJECTED,
            Message::EpochIs(_) => T_EPOCH_IS,
            Message::Freshness(_) => T_FRESHNESS,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { client } => put_str(out, client),
            Message::HelloAck { server, coord_epoch, strict_link, dlfm_uid, dlfm_gid } => {
                put_str(out, server);
                put_u64(out, *coord_epoch);
                put_bool(out, *strict_link);
                put_u32(out, *dlfm_uid);
                put_u32(out, *dlfm_gid);
            }
            Message::Link { txid, coord_epoch, path, mode, recovery, on_unlink } => {
                put_u64(out, *txid);
                put_u64(out, *coord_epoch);
                put_str(out, path);
                out.push(*mode);
                put_bool(out, *recovery);
                out.push(*on_unlink);
            }
            Message::Unlink { txid, coord_epoch, path } => {
                put_u64(out, *txid);
                put_u64(out, *coord_epoch);
                put_str(out, path);
            }
            Message::Commit { txid, coord_epoch } | Message::Abort { txid, coord_epoch } => {
                put_u64(out, *txid);
                put_u64(out, *coord_epoch);
            }
            Message::ValidateToken { path, token, uid } => {
                put_str(out, path);
                put_str(out, token);
                put_u32(out, *uid);
            }
            Message::OpenCheck { path, uid, wanted, opener, token } => {
                put_str(out, path);
                put_u32(out, *uid);
                out.push(*wanted);
                put_u64(out, *opener);
                put_str(out, token);
            }
            Message::CloseNotify { path, opener, wrote, size, mtime } => {
                put_str(out, path);
                put_u64(out, *opener);
                put_bool(out, *wrote);
                put_u64(out, *size);
                put_u64(out, *mtime);
            }
            Message::MutationCheck { path } => put_str(out, path),
            Message::RegisterOpen { path, uid, opener } => {
                put_str(out, path);
                put_u32(out, *uid);
                put_u64(out, *opener);
            }
            Message::UnregisterOpen { path, opener } => {
                put_str(out, path);
                put_u64(out, *opener);
            }
            Message::EpochGet | Message::FreshnessToken | Message::Ok | Message::OpenNotManaged => {
            }
            Message::Err(e) | Message::OpenRejected(e) => put_str(out, e),
            Message::LinkVote { size, mtime, uid, gid, mode } => {
                put_u64(out, *size);
                put_u64(out, *mtime);
                put_u32(out, *uid);
                put_u32(out, *gid);
                put_u16(out, *mode);
            }
            Message::TokenKindIs(k) => out.push(*k),
            Message::OpenApproved { uid, gid } => {
                put_u32(out, *uid);
                put_u32(out, *gid);
            }
            Message::OpenBusy(v) | Message::EpochIs(v) | Message::Freshness(v) => put_u64(out, *v),
        }
    }

    fn decode_payload(tag: u8, payload: &[u8]) -> Result<Message, DecodeError> {
        let mut r = Reader { buf: payload, pos: 0 };
        let msg = match tag {
            T_HELLO => Message::Hello { client: r.string()? },
            T_HELLO_ACK => Message::HelloAck {
                server: r.string()?,
                coord_epoch: r.u64()?,
                strict_link: r.bool()?,
                dlfm_uid: r.u32()?,
                dlfm_gid: r.u32()?,
            },
            T_LINK => Message::Link {
                txid: r.u64()?,
                coord_epoch: r.u64()?,
                path: r.string()?,
                mode: r.u8()?,
                recovery: r.bool()?,
                on_unlink: r.u8()?,
            },
            T_UNLINK => {
                Message::Unlink { txid: r.u64()?, coord_epoch: r.u64()?, path: r.string()? }
            }
            T_COMMIT => Message::Commit { txid: r.u64()?, coord_epoch: r.u64()? },
            T_ABORT => Message::Abort { txid: r.u64()?, coord_epoch: r.u64()? },
            T_VALIDATE_TOKEN => {
                Message::ValidateToken { path: r.string()?, token: r.string()?, uid: r.u32()? }
            }
            T_OPEN_CHECK => Message::OpenCheck {
                path: r.string()?,
                uid: r.u32()?,
                wanted: r.u8()?,
                opener: r.u64()?,
                token: r.string()?,
            },
            T_CLOSE_NOTIFY => Message::CloseNotify {
                path: r.string()?,
                opener: r.u64()?,
                wrote: r.bool()?,
                size: r.u64()?,
                mtime: r.u64()?,
            },
            T_MUTATION_CHECK => Message::MutationCheck { path: r.string()? },
            T_REGISTER_OPEN => {
                Message::RegisterOpen { path: r.string()?, uid: r.u32()?, opener: r.u64()? }
            }
            T_UNREGISTER_OPEN => Message::UnregisterOpen { path: r.string()?, opener: r.u64()? },
            T_EPOCH_GET => Message::EpochGet,
            T_FRESHNESS_TOKEN => Message::FreshnessToken,
            T_OK => Message::Ok,
            T_ERR => Message::Err(r.string()?),
            T_LINK_VOTE => Message::LinkVote {
                size: r.u64()?,
                mtime: r.u64()?,
                uid: r.u32()?,
                gid: r.u32()?,
                mode: r.u16()?,
            },
            T_TOKEN_KIND => Message::TokenKindIs(r.u8()?),
            T_OPEN_APPROVED => Message::OpenApproved { uid: r.u32()?, gid: r.u32()? },
            T_OPEN_NOT_MANAGED => Message::OpenNotManaged,
            T_OPEN_BUSY => Message::OpenBusy(r.u64()?),
            T_OPEN_REJECTED => Message::OpenRejected(r.string()?),
            T_EPOCH_IS => Message::EpochIs(r.u64()?),
            T_FRESHNESS => Message::Freshness(r.u64()?),
            other => return Err(DecodeError::BadTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Encodes one complete frame, ready for the socket.
pub fn encode_frame(request_id: u64, msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_u32(&mut out, 0); // length back-patched below
    put_u64(&mut out, request_id);
    out.push(msg.tag());
    msg.encode_payload(&mut out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// An incremental frame decoder: feed it whatever bytes the socket
/// produced, pull complete frames out. Partial frames park until the
/// rest arrives; malformed input fails permanently.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames (compacted
    /// lazily so a burst of small frames doesn't memmove per frame).
    consumed: usize,
    poisoned: bool,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        if self.consumed > 0 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, if one is buffered. `Ok(None)` means
    /// "wait for more bytes"; an error poisons the decoder (the stream
    /// has lost framing sync).
    pub fn next_frame(&mut self) -> Result<Option<(u64, Message)>, DecodeError> {
        if self.poisoned {
            return Err(DecodeError::Truncated);
        }
        let pending = &self.buf[self.consumed..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        // A frame must at least hold the request-id and tag.
        if !(9..=MAX_FRAME_LEN).contains(&len) {
            self.poisoned = true;
            return Err(DecodeError::BadLength(len as u64));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let body = &pending[4..4 + len];
        let request_id = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        let tag = body[8];
        match Message::decode_payload(tag, &body[9..]) {
            Ok(msg) => {
                self.consumed += 4 + len;
                Ok(Some((request_id, msg)))
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_basic() {
        let msg = Message::Link {
            txid: 7,
            coord_epoch: 3,
            path: "/data/a.bin".into(),
            mode: 2,
            recovery: true,
            on_unlink: 1,
        };
        let bytes = encode_frame(42, &msg);
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_frame().unwrap(), Some((42, msg)));
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn torn_frame_waits_for_the_rest() {
        let msg = Message::ValidateToken { path: "/p".into(), token: "t".into(), uid: 5 };
        let bytes = encode_frame(1, &msg);
        let mut d = FrameDecoder::new();
        for chunk in bytes.chunks(3) {
            assert!(matches!(d.next_frame(), Ok(None) | Ok(Some(_))) || chunk.is_empty());
            d.feed(chunk);
        }
        assert_eq!(d.next_frame().unwrap(), Some((1, msg)));
    }

    #[test]
    fn garbage_poisons_without_panicking() {
        let mut d = FrameDecoder::new();
        d.feed(&[0xFF; 64]);
        assert!(d.next_frame().is_err());
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut d = FrameDecoder::new();
        d.feed(&(u32::MAX).to_le_bytes());
        d.feed(&[0; 16]);
        assert_eq!(d.next_frame(), Err(DecodeError::BadLength(u32::MAX as u64)));
    }
}
