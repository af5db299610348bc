//! Per-sample k-mer sets.
//!
//! GenomeAtScale represents each sequencing sample `i` as the set `X_i` of
//! k-mers appearing in it (Section II-B). Raw high-throughput data is
//! noisy, so rare k-mers are removed with a minimum-count threshold before
//! the set is formed (Section V-A2 describes thresholds chosen per dataset
//! size). The tool also produces "files with a sorted numerical
//! representation for each data sample" (Section IV) — this module reads
//! and writes that representation.
//!
//! The grammar [`KmerSample::read_sorted`] accepts: one unsigned decimal
//! k-mer code per line (`u64`, an optional leading `+`); whitespace
//! around it (Unicode `White_Space`, so also `\r` of a `\r\n` line
//! ending) is trimmed; blank lines are skipped; the last line may lack its
//! newline. Unsorted input is sorted and deduplicated.
//! [`KmerSample::write_sorted`] writes the canonical form: ascending codes,
//! plain digits, one `\n` after each.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};

use crate::error::{GenomicsError, GenomicsResult};
use crate::kmer::{Kmer, KmerExtractor};

/// A named data sample: a sorted, deduplicated set of k-mer codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmerSample {
    name: String,
    kmers: Vec<Kmer>,
}

impl KmerSample {
    /// Build a sample from an already-sorted-and-unique k-mer list.
    pub fn from_sorted_kmers(name: impl Into<String>, kmers: Vec<Kmer>) -> GenomicsResult<Self> {
        if !strictly_increasing(&kmers) {
            return Err(GenomicsError::InvalidConfig(
                "k-mer list must be strictly increasing".to_string(),
            ));
        }
        Ok(KmerSample { name: name.into(), kmers })
    }

    /// Build a sample from arbitrary k-mer codes (sorted and deduplicated
    /// internally).
    pub fn from_kmers(name: impl Into<String>, mut kmers: Vec<Kmer>) -> Self {
        kmers.sort_unstable();
        kmers.dedup();
        KmerSample { name: name.into(), kmers }
    }

    /// Extract the sample from a single sequence.
    pub fn from_sequence(name: impl Into<String>, seq: &[u8], extractor: &KmerExtractor) -> Self {
        KmerSample::from_kmers(name, extractor.extract(seq))
    }

    /// Extract the sample from several sequences (e.g. all reads or
    /// contigs of one experiment).
    pub fn from_sequences<'a>(
        name: impl Into<String>,
        seqs: impl IntoIterator<Item = &'a [u8]>,
        extractor: &KmerExtractor,
    ) -> Self {
        let mut all = Vec::new();
        for s in seqs {
            extractor.extract_into(s, &mut all);
        }
        KmerSample::from_kmers(name, all)
    }

    /// Extract the sample from noisy reads, keeping only k-mers observed
    /// at least `min_count` times (the rare-k-mer / noise filter applied
    /// to the Kingsford and BIGSI data).
    pub fn from_reads_with_threshold<'a>(
        name: impl Into<String>,
        reads: impl IntoIterator<Item = &'a [u8]>,
        extractor: &KmerExtractor,
        min_count: usize,
    ) -> Self {
        let mut counts: HashMap<Kmer, usize> = HashMap::new();
        let mut buf = Vec::new();
        for r in reads {
            buf.clear();
            extractor.extract_into(r, &mut buf);
            for &k in &buf {
                *counts.entry(k).or_insert(0) += 1;
            }
        }
        let kept: Vec<Kmer> =
            counts.into_iter().filter(|&(_, c)| c >= min_count).map(|(k, _)| k).collect();
        KmerSample::from_kmers(name, kept)
    }

    /// Sample name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sorted distinct k-mer codes.
    pub fn kmers(&self) -> &[Kmer] {
        &self.kmers
    }

    /// Number of distinct k-mers, `|X_i|`.
    pub fn len(&self) -> usize {
        self.kmers.len()
    }

    /// True if the sample contains no k-mers.
    pub fn is_empty(&self) -> bool {
        self.kmers.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, kmer: Kmer) -> bool {
        self.kmers.binary_search(&kmer).is_ok()
    }

    /// `|X_i ∩ X_j|` by merging the two sorted lists.
    pub fn intersection_size(&self, other: &KmerSample) -> usize {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < self.kmers.len() && j < other.kmers.len() {
            match self.kmers[i].cmp(&other.kmers[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// `|X_i ∪ X_j|`.
    pub fn union_size(&self, other: &KmerSample) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// Exact Jaccard similarity `J(X_i, X_j)`; two empty sets have
    /// similarity 1 by the paper's convention.
    pub fn jaccard(&self, other: &KmerSample) -> f64 {
        let union = self.union_size(other);
        if union == 0 {
            return 1.0;
        }
        self.intersection_size(other) as f64 / union as f64
    }

    /// Exact Jaccard distance `d_J = 1 − J`.
    pub fn jaccard_distance(&self, other: &KmerSample) -> f64 {
        1.0 - self.jaccard(other)
    }

    /// Write the sorted numerical representation: one decimal k-mer code
    /// per line (the file format GenomeAtScale's preprocessing emits).
    /// Buffered here, so an unbuffered writer is not called once per k-mer.
    pub fn write_sorted(&self, w: impl Write) -> GenomicsResult<()> {
        let mut w = io::BufWriter::with_capacity(8 * 1024, w);
        for k in &self.kmers {
            writeln!(w, "{k}")?;
        }
        w.flush()?;
        Ok(())
    }

    /// Read a sorted numerical representation produced by
    /// [`KmerSample::write_sorted`], or any text in the module's grammar:
    /// one unsigned decimal per line, surrounding whitespace trimmed,
    /// blank lines skipped, `\r\n` accepted, unsorted input sorted and
    /// deduplicated.
    ///
    /// Streams over `r`'s buffer: only a line split across two refills is
    /// copied. A line of plain ASCII digits is parsed in place; any other
    /// line is decoded as UTF-8, trimmed and parsed as a `u64` on its own,
    /// so the error for a bad line is an [`GenomicsError::Io`] of kind
    /// `InvalidData` (not UTF-8) or a [`GenomicsError::MalformedRecord`]
    /// naming its 1-based line. Input that already ascends strictly is
    /// kept as read; anything else is sorted and deduplicated.
    pub fn read_sorted(name: impl Into<String>, mut r: impl BufRead) -> GenomicsResult<Self> {
        let mut reader = LineReader::default();
        // A line that a refill split: its bytes so far. (`read_until` into
        // one reused line made `allpairs_dist`'s set-up 2.5x slower.)
        let mut carried = Vec::new();
        loop {
            let buf = match r.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if buf.is_empty() {
                break;
            }
            let len = buf.len();
            let mut rest = buf;
            if !carried.is_empty() {
                let end = rest.iter().position(|&b| b == b'\n').map_or(rest.len(), |end| end + 1);
                carried.extend_from_slice(&rest[..end]);
                rest = &rest[end..];
                if carried.ends_with(b"\n") {
                    reader.take_line(&carried)?;
                    carried.clear();
                }
            }
            while let Some(used) = reader.take_line(rest)? {
                rest = &rest[used..];
            }
            carried.extend_from_slice(rest);
            r.consume(len);
        }
        if !carried.is_empty() {
            carried.push(b'\n');
            reader.take_line(&carried)?;
        }
        let kmers = reader.kmers;
        if strictly_increasing(&kmers) {
            Ok(KmerSample { name: name.into(), kmers })
        } else {
            Ok(KmerSample::from_kmers(name, kmers))
        }
    }
}

/// True if every value is smaller than the next. Branch-free over the
/// slice (one exit, not one per pair): the early-exit scan's speed moved
/// 45 % with where the linker placed it.
#[inline]
pub fn strictly_increasing(values: &[u64]) -> bool {
    values.windows(2).fold(true, |ok, w| ok & (w[0] < w[1]))
}

/// The k-mers of the lines [`KmerSample::read_sorted`] has seen so far.
#[derive(Default)]
struct LineReader {
    kmers: Vec<Kmer>,
    /// 1-based number of the last line seen.
    line: usize,
}

impl LineReader {
    /// Take the first line of `bytes` if `bytes` holds all of it, up to
    /// and with its `\n`; returns the bytes it spanned, or `None` when the
    /// line goes on past `bytes`.
    ///
    /// One pass parses a line of plain ASCII digits, with checked
    /// arithmetic; any other line (empty, another byte anywhere, past
    /// `u64::MAX`) is parsed again as text by [`parse_trimmed`].
    fn take_line(&mut self, bytes: &[u8]) -> GenomicsResult<Option<usize>> {
        let mut v: u64 = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let digit = b.wrapping_sub(b'0');
            if digit <= 9 {
                match v.checked_mul(10).and_then(|v| v.checked_add(u64::from(digit))) {
                    Some(next) => v = next,
                    None => break,
                }
            } else if b == b'\n' && i > 0 {
                self.line += 1;
                self.kmers.push(v);
                return Ok(Some(i + 1));
            } else {
                break;
            }
        }
        let Some(end) = bytes.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        self.line += 1;
        if let Some(v) = parse_trimmed(&bytes[..end], self.line)? {
            self.kmers.push(v);
        }
        Ok(Some(end + 1))
    }
}

/// A line as text: UTF-8, trimmed, `None` when blank, else a `u64`.
fn parse_trimmed(bytes: &[u8], line: usize) -> GenomicsResult<Option<u64>> {
    let text = std::str::from_utf8(bytes).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    let t = text.trim();
    if t.is_empty() {
        return Ok(None);
    }
    t.parse().map(Some).map_err(|_| GenomicsError::MalformedRecord {
        line,
        message: format!("'{t}' is not an unsigned integer"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex() -> KmerExtractor {
        KmerExtractor::new_forward(3).unwrap()
    }

    #[test]
    fn from_kmers_sorts_and_dedups() {
        let s = KmerSample::from_kmers("s", vec![5, 1, 5, 3]);
        assert_eq!(s.kmers(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.contains(3));
        assert!(!s.contains(2));
    }

    #[test]
    fn from_sorted_kmers_validates_order() {
        assert!(KmerSample::from_sorted_kmers("a", vec![1, 2, 3]).is_ok());
        assert!(KmerSample::from_sorted_kmers("a", vec![1, 1]).is_err());
        assert!(KmerSample::from_sorted_kmers("a", vec![2, 1]).is_err());
    }

    #[test]
    fn set_operations_match_brute_force() {
        let a = KmerSample::from_kmers("a", vec![1, 2, 3, 4, 5]);
        let b = KmerSample::from_kmers("b", vec![4, 5, 6, 7]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 7);
        assert!((a.jaccard(&b) - 2.0 / 7.0).abs() < 1e-12);
        assert!((a.jaccard_distance(&b) - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sets_have_similarity_one() {
        let a = KmerSample::from_kmers("a", vec![]);
        let b = KmerSample::from_kmers("b", vec![]);
        assert!(a.is_empty());
        assert_eq!(a.jaccard(&b), 1.0);
        let c = KmerSample::from_kmers("c", vec![1]);
        assert_eq!(a.jaccard(&c), 0.0);
    }

    #[test]
    fn identical_samples_have_similarity_one() {
        let a = KmerSample::from_sequence("a", b"ACGTACGTAA", &ex());
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(a.jaccard_distance(&a), 0.0);
    }

    #[test]
    fn from_sequences_merges_reads() {
        let reads: Vec<&[u8]> = vec![b"ACGTT", b"TTTAC"];
        let merged = KmerSample::from_sequences("m", reads.iter().copied(), &ex());
        let separate_a = KmerSample::from_sequence("a", b"ACGTT", &ex());
        let separate_b = KmerSample::from_sequence("b", b"TTTAC", &ex());
        assert_eq!(merged.len(), separate_a.union_size(&separate_b));
    }

    #[test]
    fn threshold_removes_rare_kmers() {
        // "ACG" appears in both reads, everything else once.
        let reads: Vec<&[u8]> = vec![b"ACGT", b"AACG"];
        let no_threshold =
            KmerSample::from_reads_with_threshold("s", reads.iter().copied(), &ex(), 1);
        let thresholded =
            KmerSample::from_reads_with_threshold("s", reads.iter().copied(), &ex(), 2);
        assert!(thresholded.len() < no_threshold.len());
        assert_eq!(thresholded.len(), 1);
    }

    #[test]
    fn sorted_representation_roundtrip() {
        let edges = vec![99_999_999_999, 10, u64::MAX, 0, 9, u64::MAX - 1, 10];
        let s = KmerSample::from_kmers("s", edges);
        let mut buf = Vec::new();
        s.write_sorted(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            "0\n9\n10\n99999999999\n18446744073709551614\n18446744073709551615\n"
        );
        let parsed = KmerSample::read_sorted("s", std::io::Cursor::new(buf)).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn write_sorted_writes_in_blocks() {
        /// Counts the calls it gets.
        struct Calls(Vec<u8>, usize);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.1 += 1;
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let s = KmerSample::from_kmers("s", (0..10_000u64).map(|i| i * 1_000_003).collect());
        let mut w = Calls(Vec::new(), 0);
        s.write_sorted(&mut w).unwrap();
        let expected: String = s.kmers().iter().map(|k| format!("{k}\n")).collect();
        assert_eq!(w.0, expected.as_bytes());
        // Each write but the last passes on a full 8 KiB buffer, less at
        // most one line of 21 bytes.
        assert!(w.1 <= w.0.len() / (8 * 1024 - 21) + 1, "{} writes for {} bytes", w.1, w.0.len());
    }

    #[test]
    fn read_sorted_rejects_garbage() {
        let err = KmerSample::read_sorted("s", std::io::Cursor::new("12\nnot-a-number\n"));
        assert!(err.is_err());
        let ok = KmerSample::read_sorted("s", std::io::Cursor::new("\n\n3\n")).unwrap();
        assert_eq!(ok.kmers(), &[3]);
    }

    /// The reader before the streaming parser: one `String` per line,
    /// trimmed and parsed. [`KmerSample::read_sorted`] must agree with it
    /// on every input.
    fn read_sorted_lines(name: &str, r: impl BufRead) -> GenomicsResult<KmerSample> {
        let mut kmers = Vec::new();
        for (idx, line) in r.lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            let v: u64 = t.parse().map_err(|_| GenomicsError::MalformedRecord {
                line: idx + 1,
                message: format!("'{t}' is not an unsigned integer"),
            })?;
            kmers.push(v);
        }
        Ok(KmerSample::from_kmers(name, kmers))
    }

    /// What a read returned, comparable: the sample, or the error's
    /// variant with its line and message or its I/O kind.
    fn outcome(read: GenomicsResult<KmerSample>) -> String {
        match read {
            Ok(s) => format!("Ok({:?}, {:?})", s.name(), s.kmers()),
            Err(GenomicsError::MalformedRecord { line, message }) => {
                format!("MalformedRecord({line}, {message})")
            }
            Err(GenomicsError::Io(e)) => format!("Io({:?})", e.kind()),
            Err(e) => format!("other: {e}"),
        }
    }

    /// `read_sorted` and the oracle agree on `input` through every buffer
    /// capacity from 1 to 16 bytes (so lines split across refills) and a
    /// default `BufReader`; returns the agreed outcome.
    fn assert_reads_like_lines(input: &[u8]) -> String {
        let expected = outcome(read_sorted_lines("s", input));
        for cap in 1..=16 {
            let got = KmerSample::read_sorted("s", io::BufReader::with_capacity(cap, input));
            assert_eq!(outcome(got), expected, "capacity {cap}, input {input:?}");
        }
        let got = KmerSample::read_sorted("s", io::BufReader::new(input));
        assert_eq!(outcome(got), expected, "default capacity, input {input:?}");
        expected
    }

    #[test]
    fn read_sorted_matches_the_line_parser_on_edge_cases() {
        let ok = |input: &str, kmers: &[u64]| {
            assert_eq!(
                assert_reads_like_lines(input.as_bytes()),
                format!("Ok(\"s\", {kmers:?})"),
                "input {input:?}"
            );
        };
        ok("1\r\n2\r\n3\r\n", &[1, 2, 3]);
        ok("\n1\n\n   \n\t\n2\n\r\n", &[1, 2]);
        ok("  4\n5 \t\n\t6\t\n", &[4, 5, 6]);
        ok("+7\n", &[7]);
        ok("\u{a0}8\u{a0}\n\u{2003}9\u{2003}\n", &[8, 9]);
        ok("18446744073709551615\n", &[u64::MAX]);
        ok("0000000000000000000000042\n", &[42]);
        ok("1\n2\n3", &[1, 2, 3]);
        ok("", &[]);
        ok("\n\n", &[]);
        ok("5\n3\n9\n1\n", &[1, 3, 5, 9]);
        ok("3\n3\n1\n3\n", &[1, 3]);
        ok("1\n2\n2\n3\n", &[1, 2, 3]);

        let malformed = |input: &str, line: usize, text: &str| {
            assert_eq!(
                assert_reads_like_lines(input.as_bytes()),
                format!("MalformedRecord({line}, '{text}' is not an unsigned integer)"),
                "input {input:?}"
            );
        };
        malformed("1\n18446744073709551616\n", 2, "18446744073709551616");
        malformed("1\n\n99999999999999999999999\n", 3, "99999999999999999999999");
        malformed("1\n+\n", 2, "+");
        malformed("-1\n", 1, "-1");
        malformed("1 2\n", 1, "1 2");
        malformed("1\r2\n", 1, "1\r2");
        malformed("4\n5x", 2, "5x");
        malformed("\u{a0}\u{a0}\n7\u{2028}8\n", 2, "7\u{2028}8");

        for input in [&b"1\n\xff\n2\n"[..], b"\xc3\n", b"1\n2\xe2\x80\n", b"\xa0\n"] {
            assert_eq!(assert_reads_like_lines(input), "Io(InvalidData)", "input {input:?}");
        }
        // A bad line before invalid UTF-8 is the error reported, and the
        // other way round.
        assert!(assert_reads_like_lines(b"x\n\xff\n").starts_with("MalformedRecord(1,"));
        assert_eq!(assert_reads_like_lines(b"\xff\nx\n"), "Io(InvalidData)");
    }

    #[test]
    fn read_sorted_matches_the_line_parser_on_random_files() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let pieces: [&[u8]; 14] = [
            b" ",
            b"\t",
            b"\r",
            b"+",
            b"-",
            b"x",
            "\u{a0}".as_bytes(),
            "\u{2003}".as_bytes(),
            b"\xff",
            b"\xe2\x80",
            b"18446744073709551615",
            b"18446744073709551616",
            b"0",
            b"\n",
        ];
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut input = Vec::new();
            // Mostly well-formed files (ascending, shuffled or with
            // repeats), some with a stray piece spliced into a line.
            let clean = seed % 3 != 0;
            let mut v = 0u64;
            for _ in 0..rng.random_range(0..40usize) {
                let step_bits = rng.random_range(1..40u32);
                v = match rng.random_range(0..4) {
                    0 => v,
                    1 => rng.random_range(0..1_000),
                    _ => v + rng.random_range(1..1u64 << step_bits),
                };
                if !clean && rng.random_range(0..8) == 0 {
                    input.extend_from_slice(pieces[rng.random_range(0..pieces.len())]);
                }
                input.extend_from_slice(v.to_string().as_bytes());
                if !clean && rng.random_range(0..8) == 0 {
                    input.extend_from_slice(pieces[rng.random_range(0..pieces.len())]);
                }
                input.extend_from_slice(if rng.random_range(0..6) == 0 { b"\r\n" } else { b"\n" });
            }
            if rng.random_range(0..4) == 0 {
                input.pop();
            }
            let got = assert_reads_like_lines(&input);
            if clean {
                assert!(got.starts_with("Ok("), "seed {seed}: {got}");
            }
        }
    }
}
