//! The metrics registry stays bounded under segment churn: every commit
//! and compaction mints fresh segment ids, and no metric name may be
//! keyed by one, or a long-running service grows its registry (and every
//! scrape) without bound. Probe heat lives on the segments instead
//! (`segment_stats()`), and the registry keeps only bounded aggregates.
//!
//! Names are matched rather than the registry's size, so the test holds
//! while other tests in the process mint counters of their own.

use genomeatscale::obs;
use genomeatscale::prelude::*;

/// Counter names carrying a segment id: `_seg` followed by a digit.
fn segment_keyed_names() -> Vec<String> {
    obs::snapshot()
        .counters
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| {
            name.match_indices("_seg")
                .any(|(at, _)| name[at + 4..].chars().next().is_some_and(|c| c.is_ascii_digit()))
        })
        .collect()
}

/// The `gas_plan_*` counter names the registry holds now.
fn plan_counter_names() -> usize {
    obs::snapshot().counters.iter().filter(|(name, _)| name.starts_with("gas_plan_")).count()
}

/// Sample `i`: a 200-value window sliding by 37, so neighbours overlap.
fn sample(i: u64) -> Vec<u64> {
    (i * 37..i * 37 + 200).collect()
}

#[test]
fn segment_churn_does_not_grow_the_registry() {
    let options = IndexOptions::new()
        .with_signature_len(32)
        .with_threshold(0.4)
        .with_compaction(CompactionPolicy::default().with_min_merge(2).with_tier_factor(2));
    let compactor = options.compactor().unwrap();
    let mut writer = options.open_writer().unwrap();
    let mut next = 0u64;
    for _ in 0..8 {
        writer.add(format!("s{next}"), sample(next)).unwrap();
        next += 1;
    }
    writer.commit().unwrap();

    let mut after_first = None;
    let mut live: Vec<u32> = writer.reader().live_ids();
    let mut seen_segments = std::collections::BTreeSet::new();
    for cycle in 0..32u64 {
        // Queries over every live segment: paged, batched and single.
        let engine = QueryEngine::snapshot(writer.reader());
        let queries: Vec<Vec<u64>> = (0..4).map(|q| sample(next.saturating_sub(q + 1))).collect();
        engine.query_page_batch(&queries, &PageRequest::new(3)).unwrap();
        engine.query_batch(&queries, &QueryOptions::default()).unwrap();
        engine.query(&queries[0], &QueryOptions::default()).unwrap();

        // Churn: one delete, two adds, a commit, then compaction.
        let victim = live.remove((cycle as usize * 7) % live.len());
        writer.delete(victim).unwrap();
        for _ in 0..2 {
            live.push(writer.add(format!("s{next}"), sample(next)).unwrap());
            next += 1;
        }
        writer.commit().unwrap();
        seen_segments.extend(writer.segment_stats().iter().map(|s| s.segment_id));
        compactor.compact(&mut writer).unwrap();
        seen_segments.extend(writer.segment_stats().iter().map(|s| s.segment_id));

        assert!(
            segment_keyed_names().is_empty(),
            "cycle {cycle}: segment-keyed counters {:?}",
            segment_keyed_names()
        );
        let names = plan_counter_names();
        assert_eq!(
            *after_first.get_or_insert(names),
            names,
            "cycle {cycle}: gas_plan_* names grew"
        );
    }
    // The churn minted far more segment ids than are live at the end.
    assert!(seen_segments.len() >= 32, "only {} segment ids seen", seen_segments.len());
    assert!(writer.segment_stats().len() < 8);
}
