//! Online maintenance under concurrent load: readers querying a serving
//! runtime never lose base ads while a writer inserts through the delta
//! overlay, and every insert is present once the writer finishes.
//!
//! Randomized insert/remove/fold streams against a rebuilt reference are
//! covered by `tests/differential.rs`.

use std::sync::Arc;

use sponsored_search::broadmatch::{AdInfo, IndexBuilder, MatchType};
use sponsored_search::serve::ServeRuntime;

#[test]
fn concurrent_readers_during_writes() {
    let mut builder = IndexBuilder::new();
    for i in 0..200u64 {
        builder
            .add(&format!("base{} item", i % 20), AdInfo::with_bid(i, 10))
            .expect("valid");
    }
    let runtime = ServeRuntime::with_defaults(Arc::new(builder.build().expect("valid")));

    std::thread::scope(|s| {
        // Four readers hammering queries while a writer churns.
        for r in 0..4 {
            let runtime = &runtime;
            s.spawn(move || {
                for i in 0..2_000u64 {
                    let q = format!("base{} item extra", (i + r) % 20);
                    let hits = runtime.query(&q, MatchType::Broad).expect("admitted").hits;
                    assert!(hits.len() >= 10, "query {q} lost ads mid-write");
                }
            });
        }
        let writer = &runtime;
        s.spawn(move || {
            for i in 0..500u64 {
                writer
                    .insert(
                        &format!("fresh{} thing", i),
                        AdInfo::with_bid(10_000 + i, 5),
                    )
                    .expect("valid");
            }
        });
    });

    let (base, _) = runtime.current();
    assert_eq!(base.stats().ads + runtime.metrics().overlay_ads, 700);
    for i in [0u64, 250, 499] {
        let q = format!("fresh{i} thing");
        let hits = runtime.query(&q, MatchType::Exact).expect("admitted").hits;
        assert_eq!(hits.len(), 1, "insert {q} missing");
    }
}
