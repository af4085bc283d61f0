//! Access tokens (§4.1).
//!
//! "Only those applications that access the file using a valid token,
//! obtained from the database, are granted the permission. Since
//! applications will continue to access files through standard file system
//! API, the access token would have to be embedded in the URL or file name.
//! Also, multiple types of access tokens are provided for different types of
//! file access such as read, write..."
//!
//! A token binds (file path, token kind, expiry time) under an HMAC-SHA-256
//! keyed with a per-file-server secret shared between the DataLinks engine
//! (which *generates* tokens when a DATALINK column is retrieved) and the
//! DLFM upcall daemon (which *validates* them). SHA-256 is implemented here
//! from scratch because no cryptography crate is in the sanctioned offline
//! dependency set; the unit tests pin it to FIPS 180-4 test vectors.
//!
//! Wire format inside a file name: `clip.mpg;dltoken=<kind><expiry-hex>-<mac-hex>`.

use std::fmt;

// --- SHA-256 ---------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-256's running state: the chaining value, the bytes of the block not
/// yet compressed, and how many bytes were hashed. Split into the block
/// compression and a finish step so a hash can resume from a stored
/// chaining value (HMAC's precomputed pads, [`TokenKey`]) and take its
/// message in parts, with no allocation.
struct Sha256 {
    h: [u32; 8],
    block: [u8; 64],
    filled: usize,
    len: u64,
}

impl Sha256 {
    fn new() -> Sha256 {
        Sha256::resume(H0, 0)
    }

    /// A hash resumed from chaining value `h` after `len` bytes, a whole
    /// number of blocks.
    fn resume(h: [u32; 8], len: u64) -> Sha256 {
        Sha256 { h, block: [0; 64], filled: 0, len }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        while !data.is_empty() {
            let take = (64 - self.filled).min(data.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled == 64 {
                compress(&mut self.h, &self.block);
                self.filled = 0;
            }
        }
    }

    /// Padding (0x80, zeros, the 64-bit big-endian bit length), then the
    /// digest.
    fn finish(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        self.block[self.filled] = 0x80;
        self.block[self.filled + 1..].fill(0);
        if self.filled >= 56 {
            compress(&mut self.h, &self.block);
            self.block = [0; 64];
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.h, &self.block);
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// SHA-256's compression function: folds one 64-byte block into `h`.
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *word = word.wrapping_add(v);
    }
}

/// Computes SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hash = Sha256::new();
    hash.update(data);
    hash.finish()
}

/// HMAC-SHA-256 (RFC 2104).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    TokenKey::new(key).mac(&[message])
}

/// A token secret ready to sign with: HMAC-SHA-256's inner and outer pad
/// blocks, compressed once. Built where a server's `token_key` bytes are
/// read — the engine's server registration, the DLFM server, a standby —
/// so a MAC costs the message's blocks and two finishing blocks, not the
/// two pad blocks besides.
#[derive(Clone, Copy)]
pub struct TokenKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl TokenKey {
    pub fn new(key: &[u8]) -> TokenKey {
        let mut block = [0u8; 64];
        if key.len() > block.len() {
            block[..32].copy_from_slice(&sha256(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = H0;
            compress(&mut h, &block.map(|b| b ^ byte));
            h
        };
        TokenKey { inner: pad(0x36), outer: pad(0x5c) }
    }

    /// HMAC-SHA-256 of the concatenation of `parts`.
    fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, 64);
        for part in parts {
            inner.update(part);
        }
        let mut outer = Sha256::resume(self.outer, 64);
        outer.update(&inner.finish());
        outer.finish()
    }
}

/// The pads are derived from the secret: print neither.
impl fmt::Debug for TokenKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TokenKey(..)")
    }
}

// --- Tokens ------------------------------------------------------------------

/// Token types — "multiple types of access tokens are provided for
/// different types of file access" (§4.1). The discriminants are the
/// protocol's `wanted` / `TokenKindIs` byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    Read = 0,
    Write = 1,
}

impl From<TokenKind> for u8 {
    fn from(kind: TokenKind) -> u8 {
        kind as u8
    }
}

impl TryFrom<u8> for TokenKind {
    type Error = String;

    fn try_from(b: u8) -> Result<TokenKind, String> {
        match b {
            0 => Ok(TokenKind::Read),
            1 => Ok(TokenKind::Write),
            _ => Err(format!("bad token-kind discriminant {b}")),
        }
    }
}

impl TokenKind {
    fn code(self) -> char {
        match self {
            TokenKind::Read => 'r',
            TokenKind::Write => 'w',
        }
    }

    fn from_code(c: char) -> Option<TokenKind> {
        match c {
            'r' => Some(TokenKind::Read),
            'w' => Some(TokenKind::Write),
            _ => None,
        }
    }

    /// Does a token of this kind authorize `wanted` access? Write tokens
    /// subsume read (an updater may read what it updates).
    pub fn authorizes(self, wanted: TokenKind) -> bool {
        match (self, wanted) {
            (TokenKind::Write, _) => true,
            (TokenKind::Read, TokenKind::Read) => true,
            (TokenKind::Read, TokenKind::Write) => false,
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Read => f.write_str("read"),
            TokenKind::Write => f.write_str("write"),
        }
    }
}

/// The marker separating a file name from its embedded token.
pub const TOKEN_MARKER: &str = ";dltoken=";

/// A decoded access token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessToken {
    pub kind: TokenKind,
    /// Expiry, milliseconds since epoch on the shared clock.
    pub expires_at_ms: u64,
    mac: [u8; 32],
}

/// Length of the truncated MAC embedded in file names, in bytes. 16 bytes
/// (128 bits) keeps names shorter while leaving forgery infeasible.
const MAC_LEN: usize = 16;

/// The MAC of a token's binding: server, path, kind and expiry.
fn binding_mac(
    key: &TokenKey,
    server: &str,
    path: &str,
    kind: TokenKind,
    expires_at_ms: u64,
) -> [u8; 32] {
    key.mac(&[
        server.as_bytes(),
        &[0],
        path.as_bytes(),
        &[0, kind.code() as u8],
        &expires_at_ms.to_be_bytes(),
    ])
}

impl AccessToken {
    /// Generates a token for `path` on `server`, valid until
    /// `expires_at_ms`, signed with `key`. Only the truncated MAC (the part
    /// that travels inside file names) is retained.
    pub fn generate(
        key: &TokenKey,
        server: &str,
        path: &str,
        kind: TokenKind,
        expires_at_ms: u64,
    ) -> AccessToken {
        let mut mac = binding_mac(key, server, path, kind, expires_at_ms);
        mac[MAC_LEN..].fill(0);
        AccessToken { kind, expires_at_ms, mac }
    }

    /// Verifies the MAC and expiry against the expected binding.
    pub fn verify(
        &self,
        key: &TokenKey,
        server: &str,
        path: &str,
        now_ms: u64,
    ) -> Result<(), TokenError> {
        let expected = binding_mac(key, server, path, self.kind, self.expires_at_ms);
        // Constant-time-ish comparison over the truncated MAC.
        let mut diff = 0u8;
        for (a, b) in expected[..MAC_LEN].iter().zip(&self.mac[..MAC_LEN]) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(TokenError::BadSignature);
        }
        if now_ms > self.expires_at_ms {
            return Err(TokenError::Expired);
        }
        Ok(())
    }

    /// Serializes to the string embedded after [`TOKEN_MARKER`]: kind
    /// code, hex expiry, `-`, hex MAC — written in place into one string
    /// sized for the longest token.
    pub fn encode(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(1 + 16 + 1 + MAC_LEN * 2);
        s.push(self.kind.code());
        // Writing into a `String` cannot fail.
        let _ = write!(s, "{:x}-", self.expires_at_ms);
        for b in &self.mac[..MAC_LEN] {
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// Parses the string produced by [`AccessToken::encode`].
    pub fn decode(s: &str) -> Result<AccessToken, TokenError> {
        let mut chars = s.chars();
        let kind = chars.next().and_then(TokenKind::from_code).ok_or(TokenError::Malformed)?;
        let rest: &str = chars.as_str();
        let (expiry_hex, mac_hex) = rest.split_once('-').ok_or(TokenError::Malformed)?;
        let expires_at_ms =
            u64::from_str_radix(expiry_hex, 16).map_err(|_| TokenError::Malformed)?;
        if mac_hex.len() != MAC_LEN * 2 {
            return Err(TokenError::Malformed);
        }
        let mut mac = [0u8; 32];
        for i in 0..MAC_LEN {
            mac[i] = u8::from_str_radix(&mac_hex[2 * i..2 * i + 2], 16)
                .map_err(|_| TokenError::Malformed)?;
        }
        Ok(AccessToken { kind, expires_at_ms, mac })
    }

    /// Decodes `s` and verifies it for `path` on `server` at `now_ms` — the
    /// whole cryptographic check an admission makes before it records a
    /// token entry.
    pub fn decode_verified(
        s: &str,
        key: &TokenKey,
        server: &str,
        path: &str,
        now_ms: u64,
    ) -> Result<AccessToken, TokenError> {
        let token = AccessToken::decode(s)?;
        token.verify(key, server, path, now_ms)?;
        Ok(token)
    }
}

/// Token validation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenError {
    Malformed,
    BadSignature,
    Expired,
}

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenError::Malformed => f.write_str("malformed token"),
            TokenError::BadSignature => f.write_str("token signature mismatch"),
            TokenError::Expired => f.write_str("token expired"),
        }
    }
}

impl std::error::Error for TokenError {}

/// Splits a directory-entry name into (real name, embedded token string).
///
/// `clip.mpg;dltoken=w1a2b-ff..` → `("clip.mpg", Some("w1a2b-ff.."))`.
pub fn split_token_suffix(name: &str) -> (&str, Option<&str>) {
    match name.find(TOKEN_MARKER) {
        Some(idx) => (&name[..idx], Some(&name[idx + TOKEN_MARKER.len()..])),
        None => (name, None),
    }
}

/// Appends a token to the final component of `path`.
pub fn embed_token(path: &str, token: &AccessToken) -> String {
    format!("{path}{TOKEN_MARKER}{}", token.encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_fips_vectors() {
        // FIPS 180-4 / NIST CAVP known answers.
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One block + 1 byte boundary case.
        let m = vec![b'a'; 65];
        assert_eq!(
            hex(&sha256(&m)),
            "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"
        );
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        // RFC 4231 test case 1.
        let key = [0x0b; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // RFC 4231 test case 2 (short key).
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // RFC 4231 test case 6 (key longer than block size).
        let key = [0xaa; 131];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn sha256_long_message_vector() {
        // FIPS 180-4: one million repetitions of 'a'.
        assert_eq!(
            hex(&sha256(&vec![b'a'; 1_000_000])),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hashing_in_parts_matches_one_shot_across_block_boundaries() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..data.len() {
            let whole = sha256(&data[..len]);
            for split in [0, 1, len / 3, len / 2, len.saturating_sub(1), len] {
                let split = split.min(len);
                let mut parts = Sha256::new();
                parts.update(&data[..split]);
                parts.update(&data[split..len]);
                assert_eq!(parts.finish(), whole, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn a_prepared_key_macs_like_the_one_shot_hmac() {
        for key in [&b"Jefe"[..], &[0xaa; 131], &[0x0b; 64], b""] {
            let prepared = TokenKey::new(key);
            for msg in [&b""[..], b"Hi There", &[7u8; 200]] {
                let (head, tail) = msg.split_at(msg.len() / 2);
                assert_eq!(prepared.mac(&[head, tail]), hmac_sha256(key, msg));
            }
        }
    }

    const KEY: &[u8] = b"per-server-secret";

    fn key() -> TokenKey {
        TokenKey::new(KEY)
    }

    #[test]
    fn token_roundtrip_and_verify() {
        let tok =
            AccessToken::generate(&key(), "srv1", "/movies/clip.mpg", TokenKind::Write, 5_000);
        let encoded = tok.encode();
        let decoded = AccessToken::decode(&encoded).unwrap();
        assert_eq!(decoded, tok);
        assert!(decoded.verify(&key(), "srv1", "/movies/clip.mpg", 4_999).is_ok());
    }

    #[test]
    fn a_token_carries_the_truncated_hmac_of_its_binding() {
        let tok = AccessToken::generate(&key(), "s", "/f", TokenKind::Write, 9_000);
        let binding = [&b"s\0/f\0w"[..], &9_000u64.to_be_bytes()].concat();
        assert_eq!(tok.mac[..MAC_LEN], hmac_sha256(KEY, &binding)[..MAC_LEN]);
        let decoded =
            AccessToken::decode_verified(&tok.encode(), &key(), "s", "/f", 9_000).unwrap();
        assert_eq!(decoded, tok);
        assert_eq!(
            AccessToken::decode_verified(&tok.encode(), &key(), "s", "/f", 9_001),
            Err(TokenError::Expired)
        );
        assert_eq!(
            AccessToken::decode_verified("r1-zz", &key(), "s", "/f", 0),
            Err(TokenError::Malformed)
        );
    }

    #[test]
    fn expired_token_rejected() {
        let tok = AccessToken::generate(&key(), "s", "/f", TokenKind::Read, 1_000);
        assert_eq!(tok.verify(&key(), "s", "/f", 1_001), Err(TokenError::Expired));
        assert!(tok.verify(&key(), "s", "/f", 1_000).is_ok(), "inclusive expiry");
    }

    #[test]
    fn token_bound_to_path_server_kind() {
        let tok = AccessToken::generate(&key(), "s", "/f", TokenKind::Read, 9_999);
        assert_eq!(tok.verify(&key(), "s", "/other", 0), Err(TokenError::BadSignature));
        assert_eq!(tok.verify(&key(), "other", "/f", 0), Err(TokenError::BadSignature));
        assert_eq!(
            tok.verify(&TokenKey::new(b"wrong-key"), "s", "/f", 0),
            Err(TokenError::BadSignature)
        );

        // Re-labelling a read token as a write token breaks the MAC: an
        // application cannot use a read token to open a file for update
        // (the §4.1 attack this design defends against).
        let mut forged = tok.clone();
        forged.kind = TokenKind::Write;
        assert_eq!(forged.verify(&key(), "s", "/f", 0), Err(TokenError::BadSignature));
    }

    #[test]
    fn tampered_expiry_rejected() {
        let tok = AccessToken::generate(&key(), "s", "/f", TokenKind::Read, 1_000);
        let mut forged = tok.clone();
        forged.expires_at_ms = u64::MAX; // try to extend lifetime
        assert_eq!(forged.verify(&key(), "s", "/f", 2_000), Err(TokenError::BadSignature));
    }

    #[test]
    fn write_token_subsumes_read() {
        assert!(TokenKind::Write.authorizes(TokenKind::Read));
        assert!(TokenKind::Write.authorizes(TokenKind::Write));
        assert!(TokenKind::Read.authorizes(TokenKind::Read));
        assert!(!TokenKind::Read.authorizes(TokenKind::Write));
    }

    #[test]
    fn split_and_embed() {
        let tok = AccessToken::generate(&key(), "s", "/d/f.txt", TokenKind::Read, 77);
        let with = embed_token("/d/f.txt", &tok);
        let (parent_and_name, suffix) = split_token_suffix(&with);
        assert_eq!(parent_and_name, "/d/f.txt");
        let parsed = AccessToken::decode(suffix.unwrap()).unwrap();
        assert_eq!(parsed, tok);

        assert_eq!(split_token_suffix("plain.txt"), ("plain.txt", None));
    }

    #[test]
    fn malformed_tokens_rejected() {
        assert_eq!(AccessToken::decode(""), Err(TokenError::Malformed));
        assert_eq!(AccessToken::decode("zzz"), Err(TokenError::Malformed));
        assert_eq!(AccessToken::decode("r12"), Err(TokenError::Malformed));
        assert_eq!(AccessToken::decode("rff-shortmac"), Err(TokenError::Malformed));
        assert_eq!(
            AccessToken::decode("x1-00000000000000000000000000000000"),
            Err(TokenError::Malformed)
        );
    }

    #[test]
    fn an_encoded_token_is_pinned_byte_for_byte() {
        // Tokens travel inside file names: the encoding must never drift.
        let tok = AccessToken::generate(
            &key(),
            "srv1",
            "/movies/clip.mpg",
            TokenKind::Write,
            0x1234_abcd,
        );
        assert_eq!(tok.encode(), "w1234abcd-8839db7d36a1a687ec029c73b6ee52c1");
        let tok = AccessToken::generate(&key(), "s", "/f", TokenKind::Read, 0);
        assert_eq!(tok.encode(), "r0-7873960b32574bbb1e7a2aac27ebdc31");
        let tok = AccessToken::generate(&key(), "s", "/f", TokenKind::Read, u64::MAX);
        assert_eq!(tok.encode().len(), tok.encode().capacity(), "sized once, never grown");
    }
}
