//! CRC-32 (IEEE 802.3) checksums for Object Persistent Representations.
//!
//! An OPR is "a sequential set of bytes" (§3.1.1) that may cross disks and
//! jurisdictions during migration (Fig. 11); the checksum lets a Magistrate
//! detect truncation or corruption before attempting activation.
//! Implemented locally (table-driven, reflected polynomial `0xEDB88320`)
//! to keep the dependency set to the approved list.
//!
//! [`mix64`] and [`digest64`] are the 64-bit digests behind the kernel's
//! snapshot witnesses: a strong bijective mix of one word, and a
//! word-at-a-time digest of a byte string. They detect divergence, not
//! tampering; content addressing uses SHA-256 ([`crate::cas`]).

/// The reflected CRC-32 polynomial (IEEE).
const POLY: u32 = 0xEDB8_8320;

/// The 256-entry lookup table, built at compile time.
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed chunks with `state` starting at `0xFFFF_FFFF`
/// and finish by XOR-ing with `0xFFFF_FFFF`.
pub fn update(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes.
    pub fn write(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finish and return the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// A bijective avalanche mix of one 64-bit word (the SplitMix64
/// finalizer behind a golden-ratio offset, so `mix64(0) != 0`). Sums of
/// `mix64` terms make order-independent multiset digests.
#[inline]
pub fn mix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit digest of `data`, eight bytes at a time. The length is mixed
/// in first, so zero padding of the last word is unambiguous.
pub fn digest64(data: &[u8]) -> u64 {
    let mut h = mix64(data.len() as u64);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let mut le = [0u8; 8];
        le.copy_from_slice(w);
        h = mix64(h.rotate_left(23) ^ u64::from_le_bytes(le));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut le = [0u8; 8];
        le[..tail.len()].copy_from_slice(tail);
        h = mix64(h.rotate_left(23) ^ u64::from_le_bytes(le));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest64_separates_length_content_and_order() {
        assert_ne!(digest64(b""), digest64(&[0]));
        assert_ne!(digest64(&[0; 8]), digest64(&[0; 9]));
        assert_ne!(digest64(b"abcdefgh12345678"), digest64(b"12345678abcdefgh"));
        assert_ne!(digest64(b"legion"), digest64(b"legioN"));
        assert_eq!(digest64(b"legion"), digest64(b"legion"));
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello legion world";
        let mut h = Crc32::new();
        h.write(&data[..5]);
        h.write(&data[5..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let clean = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn empty_hasher_is_zero() {
        assert_eq!(Crc32::new().finish(), 0);
    }
}
