//! Online maintenance (Section VI): inserts into a delta overlay, deletes
//! located by a broad-match-shaped probe and held as tombstones, periodic
//! re-optimization by folding the overlay into a rebuilt base.
//!
//! ```text
//! cargo run --example index_maintenance
//! ```

use sponsored_search::broadmatch::{AdInfo, DeltaOverlay, IndexBuilder, MatchType};

fn main() {
    let mut builder = IndexBuilder::new();
    builder.add("used books", AdInfo::with_bid(1, 100)).unwrap();
    builder
        .add("cheap used books", AdInfo::with_bid(2, 80))
        .unwrap();
    let base = builder.build().unwrap();
    println!("initial: {} ads", base.stats().ads);

    // A day of campaign churn: advertisers add and retire bids online. The
    // base stays immutable; every change lands in the overlay.
    let mut overlay = DeltaOverlay::for_base(&base);
    for i in 0..500u64 {
        overlay
            .insert(
                &format!("brand{} product{}", i % 40, i % 97),
                AdInfo::with_bid(1000 + i, 30 + (i % 50) as u32),
            )
            .expect("valid phrase");
    }
    for i in 0..120u64 {
        overlay.remove(
            &base,
            &format!("brand{} product{}", i % 40, i % 97),
            1000 + i,
        );
    }
    // Deleting a base ad runs the equivalent of a broad-match query to find
    // it — the paper: "we cannot identify the correct data node to delete
    // from without processing the equivalent of a broad-match query" — and
    // tombstones it; its bytes stay dead in the base until the next fold.
    overlay.remove(&base, "used books", 1);
    println!(
        "after churn: {} base ads, {} overlay ads, {} tombstones, {} dead bytes awaiting compaction",
        base.stats().ads,
        overlay.ads(),
        overlay.tombstone_count(),
        overlay.dead_bytes()
    );

    let (hits, _) = base.query_with_overlay(&overlay, "brand3 product55 on sale", MatchType::Broad);
    println!("query 'brand3 product55 on sale' -> {} hits", hits.len());

    // Periodic re-optimization recomputes the mapping offline under the
    // workload and reclaims every dead byte.
    let folded = overlay
        .fold(
            &base,
            Some(vec![
                ("cheap used books".to_string(), 1000),
                ("brand3 product55".to_string(), 400),
            ]),
        )
        .expect("rebuild");
    let fresh = DeltaOverlay::for_base(&folded);
    println!(
        "after fold: {} ads, {} dead bytes",
        folded.stats().ads,
        fresh.dead_bytes()
    );
    let hits = folded.query("cheap used books", MatchType::Broad);
    println!(
        "query 'cheap used books' -> {} hits (same as before the fold)",
        hits.len()
    );
}
