//! K-mer encoding and extraction.
//!
//! A k-mer is a length-`k` substring of a nucleotide sequence
//! (Section II-B). GenomeAtScale represents every sequencing sample as the
//! set of k-mers it contains; each k-mer becomes a row index of the
//! indicator matrix. This module packs k-mers (k ≤ 31) into `u64` values
//! with 2 bits per base, supports canonical k-mers (a k-mer and its
//! reverse complement map to the same code — the reason the paper uses
//! k = 19 instead of 20 is to avoid k-mers equal to their own reverse
//! complement, which only exist for even k), and extracts k-mers from
//! sequences with a rolling encoder that skips ambiguous (`N`) bases.

use crate::error::{GenomicsError, GenomicsResult};
use serde::{Deserialize, Serialize};

/// A 2-bit packed k-mer code. The value is smaller than `4^k`.
pub type Kmer = u64;

/// Encode a nucleotide into 2 bits; returns `None` for ambiguous bases.
#[inline]
pub fn encode_base(b: u8) -> Option<u64> {
    match b {
        b'A' | b'a' => Some(0),
        b'C' | b'c' => Some(1),
        b'G' | b'g' => Some(2),
        b'T' | b't' => Some(3),
        _ => None,
    }
}

/// Decode 2 bits into an upper-case nucleotide.
#[inline]
pub fn decode_base(code: u64) -> u8 {
    match code & 0b11 {
        0 => b'A',
        1 => b'C',
        2 => b'G',
        _ => b'T',
    }
}

/// Complement of a 2-bit encoded base (A↔T, C↔G).
#[inline]
pub fn complement_base(code: u64) -> u64 {
    3 - (code & 0b11)
}

/// Reverse complement of a packed k-mer.
pub fn reverse_complement(kmer: Kmer, k: usize) -> Kmer {
    let mut rc = 0u64;
    let mut fwd = kmer;
    for _ in 0..k {
        rc = (rc << 2) | complement_base(fwd & 0b11);
        fwd >>= 2;
    }
    rc
}

/// The canonical form of a k-mer: the smaller of the k-mer and its reverse
/// complement.
#[inline]
pub fn canonical(kmer: Kmer, k: usize) -> Kmer {
    kmer.min(reverse_complement(kmer, k))
}

/// Decode a packed k-mer back into its nucleotide string.
pub fn decode_kmer(kmer: Kmer, k: usize) -> String {
    let mut out = vec![0u8; k];
    let mut v = kmer;
    for i in (0..k).rev() {
        out[i] = decode_base(v & 0b11);
        v >>= 2;
    }
    String::from_utf8(out).expect("decoded bases are ASCII")
}

/// Extracts packed k-mers from sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KmerExtractor {
    k: usize,
    canonical: bool,
}

impl KmerExtractor {
    /// Create an extractor for canonical k-mers of length `k` (1..=31).
    pub fn new(k: usize) -> GenomicsResult<Self> {
        if k == 0 || k > 31 {
            return Err(GenomicsError::InvalidK(k));
        }
        Ok(KmerExtractor { k, canonical: true })
    }

    /// Create an extractor that keeps the forward orientation only.
    pub fn new_forward(k: usize) -> GenomicsResult<Self> {
        Ok(KmerExtractor { canonical: false, ..Self::new(k)? })
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct k-mer codes (`4^k`), i.e. the attribute-universe
    /// size `m` of the indicator matrix.
    pub fn universe_size(&self) -> u64 {
        1u64 << (2 * self.k)
    }

    /// Extract all (possibly duplicate) k-mer codes from a sequence.
    ///
    /// Windows containing an ambiguous base are skipped; the rolling
    /// encoder restarts after each such base.
    pub fn extract(&self, seq: &[u8]) -> Vec<Kmer> {
        let mut out = Vec::new();
        self.extract_into(seq, &mut out);
        out
    }

    /// Extract k-mer codes, appending to `out` (avoids reallocation when
    /// processing many reads).
    pub fn extract_into(&self, seq: &[u8], out: &mut Vec<Kmer>) {
        if seq.len() < self.k {
            return;
        }
        let mask: u64 = if self.k == 32 { u64::MAX } else { (1u64 << (2 * self.k)) - 1 };
        let mut current: u64 = 0;
        let mut valid = 0usize;
        for &b in seq {
            match encode_base(b) {
                Some(code) => {
                    current = ((current << 2) | code) & mask;
                    valid += 1;
                    if valid >= self.k {
                        let kmer =
                            if self.canonical { canonical(current, self.k) } else { current };
                        out.push(kmer);
                    }
                }
                None => {
                    current = 0;
                    valid = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_encoding_roundtrip() {
        for (b, code) in [(b'A', 0), (b'C', 1), (b'G', 2), (b'T', 3)] {
            assert_eq!(encode_base(b), Some(code));
            assert_eq!(decode_base(code), b);
        }
        assert_eq!(encode_base(b'a'), Some(0));
        assert_eq!(encode_base(b'N'), None);
        assert_eq!(encode_base(b'X'), None);
        assert_eq!(complement_base(0), 3);
        assert_eq!(complement_base(1), 2);
    }

    #[test]
    fn reverse_complement_involution() {
        let ex = KmerExtractor::new_forward(7).unwrap();
        let kmers = ex.extract(b"ACGTTGCAGGT");
        for &km in &kmers {
            assert_eq!(reverse_complement(reverse_complement(km, 7), 7), km);
        }
    }

    #[test]
    fn paper_example_3mers_and_4mers() {
        // "in a sequence AATGTC, there are four 3-mers (AAT, ATG, TGT, GTC)
        // and three 4-mers (AATG, ATGT, TGTC)".
        let ex3 = KmerExtractor::new_forward(3).unwrap();
        assert_eq!(ex3.extract(b"AATGTC").len(), 4);
        let ex4 = KmerExtractor::new_forward(4).unwrap();
        assert_eq!(ex4.extract(b"AATGTC").len(), 3);
    }

    #[test]
    fn forward_kmers_decode_to_the_right_strings() {
        let ex = KmerExtractor::new_forward(3).unwrap();
        let kmers = ex.extract(b"AATGTC");
        let strings: Vec<String> = kmers.iter().map(|&k| decode_kmer(k, 3)).collect();
        assert_eq!(strings, vec!["AAT", "ATG", "TGT", "GTC"]);
    }

    #[test]
    fn canonical_collapses_reverse_complement_sequences() {
        let ex = KmerExtractor::new(5).unwrap();
        let fwd = b"ACGTTGCAAGGTC";
        // Reverse complement of the whole sequence.
        let rc: Vec<u8> = fwd
            .iter()
            .rev()
            .map(|&b| match b {
                b'A' => b'T',
                b'T' => b'A',
                b'C' => b'G',
                _ => b'C',
            })
            .collect();
        let mut a = ex.extract(fwd);
        let mut b = ex.extract(&rc);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn ambiguous_bases_break_the_window() {
        let ex = KmerExtractor::new_forward(3).unwrap();
        // "AANTGT": valid 3-mers only from "TGT" (the window must restart
        // after N): AAN, ANT, NTG are invalid.
        assert_eq!(ex.extract(b"AANTGT"), ex.extract(b"TGT"));
        // All-N sequence yields nothing.
        assert!(ex.extract(b"NNNNNN").is_empty());
    }

    #[test]
    fn short_sequences_yield_nothing() {
        let ex = KmerExtractor::new(9).unwrap();
        assert!(ex.extract(b"ACGT").is_empty());
        assert!(ex.extract(b"").is_empty());
    }

    #[test]
    fn invalid_k_rejected() {
        assert!(KmerExtractor::new(0).is_err());
        assert!(KmerExtractor::new(32).is_err());
        assert!(KmerExtractor::new(31).is_ok());
    }

    #[test]
    fn universe_size_is_four_to_the_k() {
        assert_eq!(KmerExtractor::new(3).unwrap().universe_size(), 64);
        assert_eq!(KmerExtractor::new(19).unwrap().universe_size(), 1u64 << 38);
    }

    #[test]
    fn odd_k_has_no_self_reverse_complement_kmers() {
        // The paper uses odd k (19, 31) so no k-mer equals its own reverse
        // complement; verify for k = 3 over the whole universe.
        for code in 0..64u64 {
            assert_ne!(reverse_complement(code, 3), code);
        }
    }
}
