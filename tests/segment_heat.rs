//! Probe heat is typed per-segment data: every query path adds the
//! probes and candidate rows it drew from a segment to that segment, and
//! `segment_stats()` reports them. Heat is an observation, not content —
//! shared by every snapshot holding the segment, never persisted, never
//! carried into a compaction output, and ignored by segment equality.

use genomeatscale::prelude::*;

fn options() -> IndexOptions {
    IndexOptions::new().with_signature_len(32).with_threshold(0.4)
}

/// Sample `i`: a 200-value window sliding by 37, so neighbours overlap.
fn sample(i: u64) -> Vec<u64> {
    (i * 37..i * 37 + 200).collect()
}

fn queries(ids: std::ops::Range<u64>) -> Vec<Vec<u64>> {
    ids.map(sample).collect()
}

/// `(segment_id, probes, candidates)` of every segment of `reader`.
fn heat(reader: &IndexReader) -> Vec<(u64, u64, u64)> {
    reader.segment_stats().iter().map(|s| (s.segment_id, s.probes, s.candidates)).collect()
}

/// A writer holding one committed segment of samples `0..n`.
fn one_segment(mut writer: IndexWriter, n: u64) -> IndexWriter {
    for i in 0..n {
        writer.add(format!("s{i}"), sample(i)).unwrap();
    }
    writer.commit().unwrap();
    writer
}

#[test]
fn heat_accumulates_across_snapshots_sharing_a_segment() {
    let opts = QueryOptions::default();
    let mut writer = one_segment(options().open_writer().unwrap(), 6);
    let first = writer.reader();
    QueryEngine::snapshot(first.clone()).query_batch(&queries(0..3), &opts).unwrap();
    let [(a, probes, candidates)] = heat(&first)[..] else { panic!("one segment") };
    assert_eq!(probes, 3, "one probe per query");
    assert!(candidates >= 3, "every query finds at least itself");

    // A later commit adds a cold segment beside the heated one.
    for i in 6..10 {
        writer.add(format!("s{i}"), sample(i)).unwrap();
    }
    writer.commit().unwrap();
    let second = writer.reader();
    let [(a2, p2, c2), (b, 0, 0)] = heat(&second)[..] else {
        panic!("a heated and a cold segment")
    };
    assert_eq!((a2, p2, c2), (a, probes, candidates));
    assert_ne!(b, a);

    // Probing through the second snapshot heats the shared segment as
    // seen from the first one too.
    QueryEngine::snapshot(second.clone()).query_batch(&queries(4..6), &opts).unwrap();
    let [(_, pa, ca), (_, pb, _)] = heat(&second)[..] else { unreachable!() };
    assert_eq!((pa, pb), (probes + 2, 2));
    assert_eq!(heat(&first), vec![(a, pa, ca)]);
    // The writer's view is the same segments.
    assert_eq!(writer.segment_stats().iter().map(|s| s.probes).collect::<Vec<_>>(), vec![pa, pb]);

    // A compaction output starts cold; the snapshots keep their heat.
    writer.compact_all().unwrap();
    let compacted = writer.reader();
    assert_eq!(compacted.segments().len(), 1);
    let [(c, 0, 0)] = heat(&compacted)[..] else { panic!("compaction output reads cold") };
    assert!(c != a && c != b);
    assert_eq!(heat(&first), vec![(a, pa, ca)]);
}

#[test]
fn reopened_files_read_cold_and_heat_never_breaks_equality() {
    let path = std::env::temp_dir().join(format!("gas_heat_{}.gidx", std::process::id()));
    let writer = one_segment(options().create_writer_at(&path).unwrap(), 8);
    let heated = writer.reader();
    QueryEngine::snapshot(heated.clone())
        .query_batch(&queries(0..4), &QueryOptions::default())
        .unwrap();
    assert!(heat(&heated)[0].1 > 0);

    let reopened = IndexReader::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(heat(&reopened), vec![(heated.segments()[0].id(), 0, 0)]);
    // Same id, same rows: equal, whatever either was probed.
    assert_eq!(*reopened.segments()[0], *heated.segments()[0]);
    assert_ne!(heat(&reopened), heat(&heated));
}

#[test]
fn sharded_rounds_heat_every_probed_segment() {
    let mut writer = options().open_writer().unwrap();
    for i in 0..12u64 {
        writer.add(format!("s{i}"), sample(i)).unwrap();
        if i % 4 == 3 {
            writer.commit().unwrap();
        }
    }
    let reader = writer.reader();
    assert_eq!(reader.segments().len(), 3);
    let batch = queries(0..12);
    let ranks = 4;
    let out = Runtime::new(ranks)
        .run(|ctx| {
            let q = if ctx.rank() == 0 { Some(&batch[..]) } else { None };
            ctx.expect_ok(
                "dist_query_reader_batch_stats",
                dist_query_reader_batch_stats(
                    ctx.world(),
                    &reader,
                    None,
                    q,
                    &QueryOptions::default(),
                ),
            )
        })
        .unwrap();
    assert_eq!(out.results.len(), ranks);
    // Every rank probes its bands of every segment once per query.
    for (id, probes, candidates) in heat(&reader) {
        assert_eq!(probes, (ranks * batch.len()) as u64, "segment {id}");
        assert!(candidates > 0, "segment {id}: its own members are candidates");
    }
}
