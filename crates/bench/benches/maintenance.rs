//! Maintenance throughput (Section VI): delta-overlay inserts, deletes
//! (which run the equivalent of a broad-match probe against the base), and
//! reads through a populated overlay.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use broadmatch::{AdInfo, DeltaOverlay, IndexBuilder, MatchType};
use broadmatch_bench::{Scale, Scenario};
use broadmatch_serve::UpdateConfig;

fn bench_maintenance(c: &mut Criterion) {
    let scenario = Scenario::build(Scale::Small, 23);
    let mut builder = IndexBuilder::new();
    for (phrase, info) in &scenario.ads {
        builder.add(phrase, *info).expect("valid");
    }
    let base = builder.build().expect("valid");
    let trace: Vec<String> = scenario
        .workload
        .sample_trace(4_096, 55)
        .into_iter()
        .map(str::to_string)
        .collect();

    let mut group = c.benchmark_group("maintenance");
    // Start a fresh overlay where the serving compactor folds by default,
    // so inserts see the overlay sizes serving sees.
    let fold_at = UpdateConfig::default().max_overlay_ads;
    let mut overlay = DeltaOverlay::for_base(&base);
    let mut n = 0u64;
    group.bench_function("insert", |b| {
        b.iter_batched(
            || {
                n += 1;
                (
                    format!("fresh brand{} item{}", n % 97, n),
                    AdInfo::with_bid(n, 25),
                )
            },
            |(phrase, info)| {
                if overlay.ads() >= fold_at {
                    overlay = DeltaOverlay::for_base(&base);
                }
                overlay.insert(&phrase, info).expect("valid")
            },
            BatchSize::SmallInput,
        )
    });
    // Delete requires a broad-match probe against the base to find the ad.
    let mut n = 0u64;
    group.bench_function("insert_then_remove", |b| {
        b.iter_batched(
            || {
                n += 1;
                let phrase = format!("volatile brand{} item{}", n % 97, n);
                let mut overlay = DeltaOverlay::for_base(&base);
                overlay
                    .insert(&phrase, AdInfo::with_bid(1_000_000 + n, 25))
                    .expect("valid");
                (overlay, phrase, 1_000_000 + n)
            },
            |(mut overlay, phrase, listing)| overlay.remove(&base, &phrase, listing),
            BatchSize::SmallInput,
        )
    });
    // Reads through an overlay holding recent inserts and tombstones.
    let mut overlay = DeltaOverlay::for_base(&base);
    for (i, (phrase, info)) in scenario.ads.iter().enumerate().take(1024) {
        if i % 4 == 0 {
            overlay.remove(&base, phrase, info.listing_id);
        } else {
            overlay
                .insert(&format!("{phrase} fresh"), *info)
                .expect("valid");
        }
    }
    let mut cursor = 0usize;
    group.bench_function("query_with_overlay", |b| {
        b.iter_batched(
            || {
                cursor = (cursor + 1) % trace.len();
                &trace[cursor]
            },
            |q| base.query_with_overlay(&overlay, q, MatchType::Broad),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_maintenance);
criterion_main!(benches);
