//! In-crate snapshot checksums (the environment is offline — no new deps).
//!
//! The snapshot integrity layer uses a word-wise FNV-1a variant: the
//! classic 64-bit FNV-1a fold, but absorbing one little-endian `u64` per
//! step instead of one byte. Sections are 8-byte aligned words by
//! construction, so the word-wise fold checksums a 300 MB snapshot with an
//! eighth of the multiplies of byte-wise FNV while keeping its avalanche on
//! single-bit flips (the whole point here: any flipped bit anywhere in a
//! covered range changes the digest).
//!
//! The digest is *not* cryptographic — it defends against truncation, bit
//! rot, and torn transfers, not an adversary crafting collisions.

/// The 64-bit FNV offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-wise FNV-1a over a `u64` slice.
#[inline]
pub fn fnv1a_words(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(FNV_OFFSET, |h, &w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Word-wise FNV-1a over a byte buffer, decoding 8-byte little-endian
/// chunks; a trailing partial chunk (never produced by the writer, but
/// tolerated) is zero-padded.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut pad = [0u8; 8];
        pad[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(pad)).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_and_bytes_agree_on_aligned_input() {
        let words = [0u64, 1, u64::MAX, 0xdead_beef, 42];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(fnv1a_words(&words), fnv1a_bytes(&bytes));
    }

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(fnv1a_words(&[]), FNV_OFFSET);
        assert_eq!(fnv1a_bytes(&[]), FNV_OFFSET);
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let mut bytes: Vec<u8> = (0u8..64).collect();
        let clean = fnv1a_bytes(&bytes);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                assert_ne!(fnv1a_bytes(&bytes), clean, "flip {byte}:{bit} undetected");
                bytes[byte] ^= 1 << bit;
            }
        }
        assert_eq!(fnv1a_bytes(&bytes), clean, "flips must have been restored");
    }

    #[test]
    fn digest_is_position_sensitive() {
        assert_ne!(fnv1a_words(&[1, 2]), fnv1a_words(&[2, 1]));
        assert_ne!(fnv1a_words(&[0, 0]), fnv1a_words(&[0]));
    }

    #[test]
    fn trailing_partial_chunk_is_absorbed() {
        let full = fnv1a_bytes(&[7u8; 8]);
        let partial = fnv1a_bytes(&[7u8; 5]);
        assert_ne!(full, partial);
        assert_ne!(partial, FNV_OFFSET);
    }
}
