//! Serving-frontend smoke: drive a [`LocalIndexService`] end to end —
//! pipelined concurrent commits, background compaction under live
//! readers, paged queries with stable cursors, and sharded distributed
//! serving equality at p ∈ {1, 4} —
//! then write the observability artifacts: the unified metrics registry
//! as Prometheus text (`results/serve_metrics.prom`), the full span
//! trace as JSON rows (`results/serve_trace.json`), a folded-stacks dump
//! for flamegraphs, and the predicted-vs-measured collectives report of
//! the distributed section.
//!
//! Run with: `cargo run --release --example serve_index` (a few seconds).

use std::time::{Duration, Instant};

use gas_bench::report::results_dir;
use genomeatscale::prelude::*;

/// A family-structured "genome": a shared core plus a private stretch.
fn sample(family: u64, member: u64) -> Vec<u64> {
    let mut s: Vec<u64> = (family * 1_000_000..family * 1_000_000 + 600).collect();
    let private = family * 1_000_000 + 500_000 + member * 70;
    s.extend(private..private + 70);
    s
}

fn main() {
    let (families, waves, members) = (4u64, 6u64, 4u64);
    let path =
        std::env::temp_dir().join(format!("serve_index_example_{}.gidx", std::process::id()));
    std::fs::remove_file(&path).ok();

    let config = IndexConfig::default()
        .with_signature_len(128)
        .with_threshold(0.5)
        .with_signer(SignerKind::Oph);
    let options = IndexOptions::from_config(config);
    genomeatscale::obs::set_enabled(true);
    let service = options.serve_at(&path).expect("open the serving frontend");

    // 1. PIPELINED COMMITS — every wave is staged and committed without
    // waiting for the previous wave to seal: signing of wave N+1 overlaps
    // sealing of wave N across the signer pool, and the sealer applies
    // manifests in strict submission order.
    let started = Instant::now();
    let mut tickets = Vec::new();
    for wave in 0..waves {
        let batch: Vec<(String, Vec<u64>)> = (0..members)
            .map(|m| {
                let family = (wave * members + m) % families;
                (format!("w{wave}/f{family}/m{m}"), sample(family, wave * members + m))
            })
            .collect();
        service.add_batch(batch).expect("stage a wave");
        tickets.push(service.commit().expect("enqueue a pipelined commit"));
    }
    let mut committed = 0u64;
    for ticket in tickets {
        let summary = ticket.wait().expect("pipelined commit seals");
        committed += 1;
        assert_eq!(summary.rows_added, members as usize);
    }
    println!(
        "pipelined {committed} commit(s) of {members} samples each in {:.1} ms \
         (generation {})",
        started.elapsed().as_secs_f64() * 1e3,
        service.snapshot().generation()
    );

    // 2. DELETES + BACKGROUND COMPACTION — tombstone a few rows, then let
    // the compactor thread (10 ms interval) merge the small segments and
    // physically drop the tombstones while this thread keeps serving.
    let pinned = service.snapshot();
    let deleted = (pinned.n_live() / 3 + 1) as u32;
    for id in 0..deleted {
        service.delete(id).expect("tombstone a sealed row");
    }
    service.commit_wait().expect("commit the tombstones");
    // Tombstone-heavy segments are rewritten on their own (the
    // `rewrite_dead_pct` trigger); a straggler tombstone in a mostly
    // live segment is legitimately retained, so wait for the majority.
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.stats().compact.tombstones_purged < u64::from(deleted) / 2 {
        assert!(Instant::now() < deadline, "compactor never purged the tombstones");
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = service.stats();
    println!(
        "background compaction: {} pass(es), {} tombstone(s) purged, {} segment(s) live, \
         pinned pre-delete snapshot still at generation {}",
        stats.compact.passes,
        stats.compact.tombstones_purged,
        stats.segments,
        pinned.generation()
    );
    assert!(pinned.live_ids().contains(&0), "pinned snapshots never see later deletes");
    drop(pinned);

    // 3. PAGED QUERIES — cursors walk the full ranking in stable pages;
    // the concatenation must tile the one-shot answer exactly.
    let probes: Vec<Vec<u64>> = (0..families).map(|f| sample(f, 10_000 + f)).collect();
    let reader = service.snapshot();
    let engine = QueryEngine::snapshot(reader.clone());
    let mut pages_served = 0u64;
    for probe in &probes {
        let one_shot = service
            .query_paged(std::slice::from_ref(probe), &PageRequest::new(usize::MAX >> 1))
            .expect("one-shot page")
            .remove(0);
        let mut req = PageRequest::new(3);
        let mut tiled = Vec::new();
        loop {
            let page = service
                .query_paged(std::slice::from_ref(probe), &req)
                .expect("cursor page")
                .remove(0);
            pages_served += 1;
            tiled.extend(page.hits);
            match page.next_cursor {
                Some(next) => req = PageRequest::new(3).with_cursor(next),
                None => break,
            }
        }
        assert_eq!(tiled, one_shot.hits, "pages must tile the one-shot ranking");
    }
    println!("paged queries: {} probe(s) tiled across {pages_served} page(s)", probes.len());

    // 4. SHARDED SERVING — the sealed, compacted index answers
    // bit-identically through the distributed path at p ∈ {1, 4}, both
    // batch and paged forms.
    let opts = QueryOptions { top_k: 8, ..Default::default() };
    let reference = engine.query_batch(&probes, &opts).expect("single-rank reference");
    let page_req = PageRequest::new(5);
    let page_reference =
        engine.query_page_batch(&probes, &page_req).expect("single-rank page reference");
    let mut dist_identical = true;
    for ranks in [1usize, 4] {
        let out = Runtime::new(ranks)
            .run(|ctx| {
                let q = if ctx.rank() == 0 { Some(&probes[..]) } else { None };
                let batch = ctx.expect_ok(
                    "dist batch",
                    dist_query_reader_batch(ctx.world(), &reader, None, q, &opts),
                );
                let pages = ctx.expect_ok(
                    "dist pages",
                    dist_query_reader_page(ctx.world(), &reader, None, q, &page_req),
                );
                (batch, pages)
            })
            .expect("distributed run");
        for (batch, pages) in &out.results {
            dist_identical &= batch == &reference && pages == &page_reference;
        }
        println!("p = {ranks}: sharded answers bit-identical = {dist_identical}");
    }
    assert!(dist_identical, "sharded serving must match single-rank serving exactly");

    // 5. OBSERVABILITY — the whole workload above ran with tracing on:
    // export the unified telemetry (the metrics registry merged with
    // this service's stats) as Prometheus text, the span trace as JSON
    // rows and a folded-stacks flamegraph dump, and print the
    // predicted-vs-measured collectives report of the sharded section.
    let telemetry = service.telemetry();
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create the results directory");
    let prom_path = dir.join("serve_metrics.prom");
    std::fs::write(&prom_path, to_prometheus(&telemetry)).expect("write Prometheus export");
    let events = genomeatscale::obs::take_events();
    assert!(!events.is_empty(), "tracing was enabled: the workload must leave a trace");
    let trace_path = dir.join("serve_trace.json");
    std::fs::write(&trace_path, trace_to_json(&events)).expect("write trace export");
    std::fs::write(dir.join("serve_trace.folded"), folded_stacks(&events))
        .expect("write folded stacks");
    let costs = collective_cost_report(&events);
    assert!(!costs.is_empty(), "the sharded section must produce collective spans");
    print!("{}", render_collective_costs(&costs));
    println!(
        "wrote {} and {} ({} spans, {} collective phases)",
        prom_path.display(),
        trace_path.display(),
        events.len(),
        costs.len()
    );
    std::fs::remove_file(&path).ok();
}
