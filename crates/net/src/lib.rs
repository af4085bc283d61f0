//! The wire transport: a length-prefixed binary frame codec for the DLFM
//! agent/upcall protocol plus a small poll(2)-driven reactor serving many
//! nonblocking Unix-domain socket connections, leader/followers.
//!
//! The paper's DataLinks architecture is a *networked* protocol — DLFS
//! clients and the DLFM daemon complex exchange link/unlink, open/close
//! and 2PC messages across a host boundary (§2.2) — and this crate is
//! that boundary made real. It is deliberately self-contained:
//!
//! * [`Message`] / [`encode_frame`] / [`FrameDecoder`] — the codec. Every
//!   protocol operation (link, unlink, the 2PC decision with
//!   coordinator-epoch stamps, token validation, open/close claims,
//!   freshness tokens) round-trips through a `[u32 len][u64 request-id]
//!   [u8 tag][payload]` frame. The decoder is incremental: partial reads
//!   and torn frames park until more bytes arrive, garbage fails with a
//!   [`DecodeError`] instead of a panic.
//! * [`Reactor`] / [`ReactorHandle`] / [`NetEvent`] — the server-side
//!   runtime, served leader/followers: one thread at a time holds the
//!   poll set over nonblocking `std::os::unix::net` sockets
//!   (hand-declared poll(2), no tokio/mio), reads every ready frame and
//!   runs the caller-supplied handler on the frame it read itself. With
//!   more frames ready it hands the poll set to a follower first; with
//!   one, it only lends the set and polls again when the handler returns,
//!   unless the handler parks or blocks past a 1 ms bound first. Threads
//!   are added as handlers block and retire when idle. Replies are written by whoever sends them, straight
//!   to the socket; the leader only drains what a full kernel buffer left
//!   behind.
//!
//! Higher layers map these frames onto the in-process server machinery:
//! `dl-dlfm`'s `WireDaemon` sits on the reactor, and its wire clients use
//! the codec alone over blocking sockets, one per concurrent caller. This
//! crate knows nothing about DLFM itself.

mod frame;
mod reactor;

pub use frame::{encode_frame, DecodeError, FrameDecoder, Message, MAX_FRAME_LEN};
pub use reactor::{NetEvent, Reactor, ReactorHandle};
