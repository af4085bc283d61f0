//! Property tests over the frame codec: every message kind round-trips
//! bit-exactly, and the decoder survives arbitrary, truncated and torn
//! byte streams without panicking.

use proptest::prelude::*;

use dl_net::{encode_frame, FrameDecoder, Message, MAX_FRAME_LEN};

/// A strategy covering every [`Message`] variant, strings included.
fn message_strategy() -> impl Strategy<Value = Message> {
    let s = "[a-z0-9/._-]{0,24}";
    prop_oneof![
        s.prop_map(|client| Message::Hello { client }),
        (s, any::<u64>(), any::<bool>(), any::<u32>(), any::<u32>()).prop_map(
            |(server, coord_epoch, strict_link, dlfm_uid, dlfm_gid)| Message::HelloAck {
                server,
                coord_epoch,
                strict_link,
                dlfm_uid,
                dlfm_gid,
            }
        ),
        (any::<u64>(), any::<u64>(), s, any::<u8>(), any::<bool>(), any::<u8>()).prop_map(
            |(txid, coord_epoch, path, mode, recovery, on_unlink)| Message::Link {
                txid,
                coord_epoch,
                path,
                mode,
                recovery,
                on_unlink,
            }
        ),
        (any::<u64>(), any::<u64>(), s).prop_map(|(txid, coord_epoch, path)| Message::Unlink {
            txid,
            coord_epoch,
            path
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(txid, coord_epoch)| Message::Commit { txid, coord_epoch }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(txid, coord_epoch)| Message::Abort { txid, coord_epoch }),
        (s, s, any::<u32>()).prop_map(|(path, token, uid)| Message::ValidateToken {
            path,
            token,
            uid
        }),
        (s, any::<u32>(), any::<u8>(), any::<u64>(), s).prop_map(
            |(path, uid, wanted, opener, token)| Message::OpenCheck {
                path,
                uid,
                wanted,
                opener,
                token
            }
        ),
        (s, any::<u64>(), any::<bool>(), any::<u64>(), any::<u64>()).prop_map(
            |(path, opener, wrote, size, mtime)| Message::CloseNotify {
                path,
                opener,
                wrote,
                size,
                mtime,
            }
        ),
        s.prop_map(|path| Message::MutationCheck { path }),
        (s, any::<u32>(), any::<u64>()).prop_map(|(path, uid, opener)| Message::RegisterOpen {
            path,
            uid,
            opener
        }),
        (s, any::<u64>()).prop_map(|(path, opener)| Message::UnregisterOpen { path, opener }),
        Just(Message::EpochGet),
        Just(Message::FreshnessToken),
        Just(Message::Ok),
        s.prop_map(Message::Err),
        (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>(), any::<u16>()).prop_map(
            |(size, mtime, uid, gid, mode)| Message::LinkVote { size, mtime, uid, gid, mode }
        ),
        any::<u8>().prop_map(Message::TokenKindIs),
        (any::<u32>(), any::<u32>()).prop_map(|(uid, gid)| Message::OpenApproved { uid, gid }),
        Just(Message::OpenNotManaged),
        any::<u64>().prop_map(Message::OpenBusy),
        s.prop_map(Message::OpenRejected),
        any::<u64>().prop_map(Message::EpochIs),
        any::<u64>().prop_map(Message::Freshness),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// encode → feed → next_frame returns the identical message and
    /// request-id, for every message kind.
    #[test]
    fn every_message_round_trips(
        request_id in any::<u64>(),
        msg in message_strategy(),
    ) {
        let bytes = encode_frame(request_id, &msg);
        prop_assert!(bytes.len() - 4 <= MAX_FRAME_LEN);
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        let decoded = d.next_frame().unwrap();
        prop_assert_eq!(decoded, Some((request_id, msg)));
        prop_assert_eq!(d.next_frame().unwrap(), None);
    }

    /// A frame delivered in arbitrarily torn chunks still decodes, and
    /// every incomplete prefix parks as `Ok(None)` — never an error,
    /// never a panic.
    #[test]
    fn torn_delivery_still_decodes(
        request_id in any::<u64>(),
        msg in message_strategy(),
        chunk in 1usize..7,
    ) {
        let bytes = encode_frame(request_id, &msg);
        let mut d = FrameDecoder::new();
        let mut out = None;
        for piece in bytes.chunks(chunk) {
            d.feed(piece);
            if let Some(frame) = d.next_frame().unwrap() {
                out = Some(frame);
            }
        }
        prop_assert_eq!(out, Some((request_id, msg)));
    }

    /// A stream of several frames back-to-back decodes in order.
    #[test]
    fn pipelined_frames_decode_in_order(
        msgs in proptest::collection::vec(message_strategy(), 1..8),
    ) {
        let mut bytes = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64, m));
        }
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        for (i, m) in msgs.iter().enumerate() {
            prop_assert_eq!(d.next_frame().unwrap(), Some((i as u64, m.clone())));
        }
        prop_assert_eq!(d.next_frame().unwrap(), None);
    }

    /// Arbitrary bytes never panic the decoder: each pull either yields a
    /// frame, parks, or fails cleanly — and once poisoned it stays
    /// poisoned.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        for _ in 0..64 {
            match d.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    // A poisoned decoder must keep failing, not revive.
                    prop_assert!(d.next_frame().is_err());
                    break;
                }
            }
        }
    }

    /// Truncating a valid frame anywhere parks the decoder (no error, no
    /// frame) — the bytes so far are always a legitimate prefix.
    #[test]
    fn truncated_prefix_parks(
        request_id in any::<u64>(),
        msg in message_strategy(),
        cut in 0usize..64,
    ) {
        let bytes = encode_frame(request_id, &msg);
        prop_assume!(cut < bytes.len());
        let mut d = FrameDecoder::new();
        d.feed(&bytes[..cut]);
        prop_assert_eq!(d.next_frame().unwrap(), None);
    }

    /// Flipping the declared length to something oversized fails cleanly.
    #[test]
    fn oversized_length_rejected(
        request_id in any::<u64>(),
        msg in message_strategy(),
        len in (MAX_FRAME_LEN as u32 + 1)..u32::MAX,
    ) {
        let mut bytes = encode_frame(request_id, &msg);
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.feed(&bytes);
        prop_assert!(d.next_frame().is_err());
    }
}
