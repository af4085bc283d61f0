//! Property tests over the access-token machinery (§4.1) and file-system
//! substrate invariants.

use proptest::prelude::*;

use datalinks::dlfm::{
    embed_token, split_token_suffix, AccessToken, TokenError, TokenKey, TokenKind,
};
use datalinks::fskit::{Cred, FileSystem, Lfs, MemFs, OpenOptions};
use std::sync::Arc;

fn kind_strategy() -> impl Strategy<Value = TokenKind> {
    prop_oneof![Just(TokenKind::Read), Just(TokenKind::Write)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// encode → decode → verify holds for every (key, server, path, kind,
    /// expiry) combination.
    #[test]
    fn token_roundtrip(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        server in "[a-z0-9]{1,12}",
        path in "(/[a-z0-9.]{1,10}){1,4}",
        kind in kind_strategy(),
        expiry in 0u64..u64::MAX / 2,
    ) {
        let key = TokenKey::new(&key);
        let token = AccessToken::generate(&key, &server, &path, kind, expiry);
        let decoded = AccessToken::decode(&token.encode()).unwrap();
        prop_assert_eq!(&decoded, &token);
        prop_assert!(decoded.verify(&key, &server, &path, expiry).is_ok());
        prop_assert_eq!(
            decoded.verify(&key, &server, &path, expiry + 1),
            Err(TokenError::Expired)
        );
    }

    /// A token never verifies under a different key, server, path, or kind.
    #[test]
    fn token_never_transfers(
        key in proptest::collection::vec(any::<u8>(), 1..32),
        other_key in proptest::collection::vec(any::<u8>(), 1..32),
        server in "[a-z]{1,8}",
        path in "/[a-z]{1,8}",
        other_path in "/[A-Z]{1,8}",
        kind in kind_strategy(),
    ) {
        prop_assume!(key != other_key);
        let (key, other_key) = (TokenKey::new(&key), TokenKey::new(&other_key));
        let token = AccessToken::generate(&key, &server, &path, kind, u64::MAX / 2);
        prop_assert_eq!(
            token.verify(&other_key, &server, &path, 0),
            Err(TokenError::BadSignature)
        );
        prop_assert_eq!(
            token.verify(&key, &server, &other_path, 0),
            Err(TokenError::BadSignature)
        );
        prop_assert_eq!(
            token.verify(&key, "othersrv", &path, 0),
            Err(TokenError::BadSignature)
        );
        // Kind relabelling (read token used as write token) breaks the MAC.
        let mut forged = token.clone();
        forged.kind = match kind {
            TokenKind::Read => TokenKind::Write,
            TokenKind::Write => TokenKind::Read,
        };
        prop_assert_eq!(forged.verify(&key, &server, &path, 0), Err(TokenError::BadSignature));
    }

    /// Corrupting any single character of the encoded token makes it either
    /// malformed or unverifiable — never silently valid.
    #[test]
    fn token_tamper_detected(
        pos_seed in any::<usize>(),
        replacement in proptest::char::range('0', 'z'),
    ) {
        let key = &TokenKey::new(b"k");
        let token = AccessToken::generate(key, "s", "/f", TokenKind::Write, 12345);
        let encoded = token.encode();
        let pos = pos_seed % encoded.len();
        let mut chars: Vec<char> = encoded.chars().collect();
        prop_assume!(chars[pos] != replacement);
        chars[pos] = replacement;
        let tampered: String = chars.into_iter().collect();

        match AccessToken::decode(&tampered) {
            Err(_) => {} // malformed: fine
            Ok(decoded) => {
                // Hex is case-insensitive, so an upper/lower-case flip can
                // decode to the *same* token — that is not a tamper.
                prop_assume!(decoded != token);
                prop_assert!(
                    decoded.verify(key, "s", "/f", 0).is_err(),
                    "tampered token verified: {tampered}"
                );
            }
        }
    }

    /// Token embedding in names always splits back losslessly.
    #[test]
    fn embed_split_roundtrip(
        path in "(/[a-z0-9._-]{1,12}){1,4}",
        kind in kind_strategy(),
        expiry in any::<u64>(),
    ) {
        let token = AccessToken::generate(&TokenKey::new(b"key"), "srv", &path, kind, expiry);
        let embedded = embed_token(&path, &token);
        let (name, suffix) = split_token_suffix(&embedded);
        prop_assert_eq!(name, path.as_str());
        prop_assert_eq!(AccessToken::decode(suffix.unwrap()).unwrap(), token);
    }

    /// File-system substrate: write/read roundtrip at arbitrary offsets with
    /// zero-fill semantics for holes.
    #[test]
    fn fs_sparse_write_read(
        writes in proptest::collection::vec(
            (0u64..4096, proptest::collection::vec(any::<u8>(), 1..128)),
            1..12
        )
    ) {
        let fs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
        let lfs = Lfs::new(fs);
        let alice = Cred::user(1);
        let fd = lfs.open(&alice, "/f", OpenOptions::create(0o644)).unwrap();

        // Model: a simple byte vector.
        let mut model: Vec<u8> = Vec::new();
        for (off, data) in &writes {
            let end = *off as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[*off as usize..end].copy_from_slice(data);
            lfs.write_at(fd, *off, data).unwrap();
        }
        lfs.close(fd).unwrap();

        let got = lfs.read_file(&alice, "/f").unwrap();
        prop_assert_eq!(got, model);
    }

    /// Permission bits: `permits` agrees with the owner/group/other
    /// decomposition for all inputs.
    #[test]
    fn permission_decomposition(mode in 0u16..0o777, uid in 1u32..50, gid in 1u32..50,
                                cu in 1u32..50, cg in 1u32..50) {
        use datalinks::fskit::types::{permits, Access};
        let cred = Cred { uid: cu, gid: cg };
        let shift = if cu == uid { 6 } else if cg == gid { 3 } else { 0 };
        for (access, bit) in [(Access::Read, 0o4u16), (Access::Write, 0o2), (Access::Exec, 0o1)] {
            let expect = (mode >> shift) & bit != 0;
            prop_assert_eq!(permits(uid, gid, mode, &cred, access), expect);
        }
    }
}
