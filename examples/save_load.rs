//! Persistence: build the index offline, ship it to serving machines
//! (Section VI: re-optimization happens "potentially on a separate
//! machine"), load, verify, and continue maintaining it online.
//!
//! ```text
//! cargo run --release --example save_load
//! ```

use sponsored_search::broadmatch::{
    AdInfo, BroadMatchIndex, DeltaOverlay, IndexBuilder, IndexConfig, MatchType, RemapMode,
};
use sponsored_search::corpus::{AdCorpus, CorpusConfig, QueryGenConfig, Workload};

fn main() {
    // "Offline" build: corpus + workload-driven optimization.
    let corpus = AdCorpus::generate(CorpusConfig::small(99));
    let workload = Workload::generate(QueryGenConfig::small(99), &corpus);
    let config = IndexConfig {
        remap: RemapMode::FullWithWithdrawals,
        ..IndexConfig::default()
    };
    let mut builder = IndexBuilder::with_config(config);
    for ad in corpus.ads() {
        builder.add(&ad.phrase, ad.info).expect("valid phrase");
    }
    // One brand-protected campaign with an exclusion phrase.
    builder
        .add_with_exclusions(
            "designer handbags",
            AdInfo::with_bid(777, 500),
            &["replica", "fake"],
        )
        .expect("valid phrase");
    builder.set_workload(workload.to_builder_workload());
    let index = builder.build().expect("valid config");

    let path = std::env::temp_dir().join("sponsored_search_demo.bmix");
    {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
        index.save(&mut file).expect("serialize");
    }
    let file_len = std::fs::metadata(&path).expect("metadata").len();
    println!(
        "saved {} ads / {} nodes to {} ({} KiB)",
        index.stats().ads,
        index.stats().nodes,
        path.display(),
        file_len / 1024
    );

    // "Serving machine": load and verify against the original.
    let loaded = {
        let mut file = std::io::BufReader::new(std::fs::File::open(&path).expect("open"));
        BroadMatchIndex::load(&mut file).expect("valid file")
    };
    let mut checked = 0usize;
    for q in workload.sample_trace(2_000, 5) {
        let a: Vec<u64> = index
            .query(q, MatchType::Broad)
            .iter()
            .map(|h| h.info.listing_id)
            .collect();
        let b: Vec<u64> = loaded
            .query(q, MatchType::Broad)
            .iter()
            .map(|h| h.info.listing_id)
            .collect();
        assert_eq!(a, b, "loaded index diverged on {q:?}");
        checked += 1;
    }
    println!("loaded index answers {checked} trace queries identically");

    // Exclusion phrases survive the round trip.
    assert_eq!(loaded.query("designer handbags", MatchType::Broad).len(), 1);
    assert!(loaded
        .query("replica designer handbags", MatchType::Broad)
        .is_empty());
    println!("exclusion phrases intact: 'replica designer handbags' matches nothing");

    // And the loaded index is immediately maintainable through an overlay.
    let mut overlay = DeltaOverlay::for_base(&loaded);
    overlay
        .insert("weekend flash sale", AdInfo::with_bid(1234, 80))
        .expect("valid phrase");
    let (hits, _) = loaded.query_with_overlay(&overlay, "weekend flash sale now", MatchType::Broad);
    println!(
        "online insert works after load: {} hits for 'weekend flash sale now'",
        hits.len()
    );

    std::fs::remove_file(&path).ok();
}
