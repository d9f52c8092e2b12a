//! Persistence across the full pipeline: generated corpora, every directory
//! kind and codec, and behavioral equivalence after reload.

use sponsored_search::broadmatch::{
    AdInfo, BroadMatchIndex, DirectoryKind, IndexBuilder, IndexConfig, MatchType, RemapMode,
};
use sponsored_search::corpus::{AdCorpus, CorpusConfig, QueryGenConfig, Workload};

fn build(corpus: &AdCorpus, directory: DirectoryKind, compress: bool) -> BroadMatchIndex {
    let config = IndexConfig {
        directory,
        compress_nodes: compress,
        remap: RemapMode::Full,
        ..IndexConfig::default()
    };
    let mut builder = IndexBuilder::with_config(config);
    for ad in corpus.ads() {
        builder.add(&ad.phrase, ad.info).expect("valid phrase");
    }
    builder.build().expect("valid config")
}

#[test]
fn generated_corpus_round_trips_through_every_configuration() {
    let corpus = AdCorpus::generate(CorpusConfig::small(31));
    let workload = Workload::generate(QueryGenConfig::small(31), &corpus);
    for directory in [
        DirectoryKind::HashTable,
        DirectoryKind::Succinct,
        DirectoryKind::SortedArray,
    ] {
        for compress in [false, true] {
            let index = build(&corpus, directory, compress);
            let mut buf = Vec::new();
            index.save(&mut buf).expect("serialize");
            let loaded = BroadMatchIndex::load(&mut buf.as_slice()).expect("load");
            assert_eq!(index.stats(), loaded.stats(), "{directory:?}/{compress}");

            for q in workload.sample_trace(500, 7) {
                for mt in [MatchType::Broad, MatchType::Exact, MatchType::Phrase] {
                    let mut a: Vec<u64> = index
                        .query(q, mt)
                        .iter()
                        .map(|h| h.info.listing_id)
                        .collect();
                    let mut b: Vec<u64> = loaded
                        .query(q, mt)
                        .iter()
                        .map(|h| h.info.listing_id)
                        .collect();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "{directory:?}/{compress} query {q:?} ({mt:?})");
                }
            }
        }
    }
}

#[test]
fn save_load_save_is_byte_stable() {
    let corpus = AdCorpus::generate(CorpusConfig::small(37));
    let index = build(&corpus, DirectoryKind::HashTable, true);
    let mut first = Vec::new();
    index.save(&mut first).expect("serialize");
    let loaded = BroadMatchIndex::load(&mut first.as_slice()).expect("load");
    let mut second = Vec::new();
    loaded.save(&mut second).expect("serialize again");
    assert_eq!(first, second, "serialization must be deterministic");
}

#[test]
fn every_flipped_byte_is_detected_or_harmless() {
    // Flip one byte at a sample of positions; the loader must either error
    // out or (for the length-prefix bytes that still parse) fail the final
    // checksum — silent corruption is the only unacceptable outcome.
    let mut b = IndexBuilder::new();
    for i in 0..50u32 {
        b.add(
            &format!("word{} extra{}", i % 7, i),
            AdInfo::with_bid(i as u64, 5),
        )
        .unwrap();
    }
    let index = b.build().unwrap();
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();

    let mut detected = 0;
    let positions: Vec<usize> = (8..buf.len()).step_by(13).collect();
    for &pos in &positions {
        let mut corrupt = buf.clone();
        corrupt[pos] ^= 0x5A;
        match BroadMatchIndex::load(&mut corrupt.as_slice()) {
            Err(_) => detected += 1,
            Ok(_) => panic!("byte flip at {pos} loaded silently"),
        }
    }
    assert_eq!(detected, positions.len());
}

/// Section VI maintenance meets persistence: a reloaded index — via the
/// format's ad-id high-water mark — is maintainable through a fresh delta
/// overlay. Deletes of base ads take effect, and a new insert gets an id no
/// live ad holds and is returned by overlay queries.
#[test]
fn maintained_index_round_trips_after_deletes() {
    use sponsored_search::broadmatch::DeltaOverlay;

    let corpus = AdCorpus::generate(CorpusConfig::small(41));
    for (directory, compress) in [
        (DirectoryKind::HashTable, false),
        (DirectoryKind::Succinct, true),
    ] {
        let index = build(&corpus, directory, compress);
        let mut buf = Vec::new();
        index.save(&mut buf).expect("serialize");
        let loaded = BroadMatchIndex::load(&mut buf.as_slice()).expect("load");
        let live_ids: std::collections::HashSet<u32> =
            loaded.export_ads().iter().map(|(_, id, _)| id.0).collect();

        let mut overlay = DeltaOverlay::for_base(&loaded);
        let victims: Vec<_> = corpus.ads().iter().step_by(7).take(30).collect();
        let mut removed = 0;
        for ad in &victims {
            removed += overlay.remove(&loaded, &ad.phrase, ad.info.listing_id);
        }
        assert!(removed > 0, "victims must exist ({directory:?})");
        for ad in &victims {
            let (hits, _) = loaded.query_with_overlay(&overlay, &ad.phrase, MatchType::Exact);
            assert!(
                hits.iter().all(|h| h.info.listing_id != ad.info.listing_id),
                "deleted {:?} still served ({directory:?})",
                ad.phrase
            );
        }

        let id = overlay
            .insert("post reload insert", AdInfo::with_bid(950_000, 9))
            .unwrap();
        assert!(
            !live_ids.contains(&id.0),
            "fresh id {id:?} collides with a live ad after reload ({directory:?})"
        );
        let (hits, _) = loaded.query_with_overlay(&overlay, "post reload insert", MatchType::Exact);
        assert_eq!(hits.len(), 1, "{directory:?}");
        assert_eq!(hits[0].ad, id);
    }
}

/// The delta-overlay path: deletes held as overlay tombstones, folded into
/// a rebuilt base, persisted, reloaded — every stage answers identically.
#[test]
fn folded_overlay_round_trips() {
    use sponsored_search::broadmatch::DeltaOverlay;

    let corpus = AdCorpus::generate(CorpusConfig::small(43));
    let workload = Workload::generate(QueryGenConfig::small(43), &corpus);
    let base = build(&corpus, DirectoryKind::Succinct, true);
    let mut overlay = DeltaOverlay::for_base(&base);
    for i in 0..15u64 {
        overlay
            .insert(
                &format!("foldnew{} item", i % 5),
                AdInfo::with_bid(800_000 + i, 3),
            )
            .unwrap();
    }
    let mut tombstoned = 0;
    for ad in corpus.ads().iter().step_by(9).take(20) {
        tombstoned += overlay.remove(&base, &ad.phrase, ad.info.listing_id);
    }
    assert!(tombstoned > 0 && overlay.tombstone_count() > 0);

    let folded = overlay.fold(&base, None).expect("fold");
    let mut buf = Vec::new();
    folded.save(&mut buf).expect("serialize folded index");
    let loaded = BroadMatchIndex::load(&mut buf.as_slice()).expect("load");
    assert_eq!(loaded.stats(), folded.stats());

    let empty = DeltaOverlay::for_base(&loaded);
    for q in workload.sample_trace(300, 13) {
        // base+overlay (pre-fold) vs reloaded fold: same multiset of ads.
        let (want, _) = base.query_with_overlay(&overlay, q, MatchType::Broad);
        let mut want: Vec<u64> = want.iter().map(|h| h.info.listing_id).collect();
        want.sort_unstable();
        let (got, _) = loaded.query_with_overlay(&empty, q, MatchType::Broad);
        let mut got: Vec<u64> = got.iter().map(|h| h.info.listing_id).collect();
        got.sort_unstable();
        assert_eq!(got, want, "query {q:?} diverged across fold+reload");
    }
}

/// The Section VI compression report stays internally consistent on an
/// index that has been maintained (overlay inserts and tombstones, folded
/// into a rebuilt base) and round-tripped.
#[test]
fn compression_report_survives_maintenance_and_reload() {
    use sponsored_search::broadmatch::DeltaOverlay;

    let corpus = AdCorpus::generate(CorpusConfig::small(47));
    let base = build(&corpus, DirectoryKind::HashTable, true);
    let mut overlay = DeltaOverlay::for_base(&base);
    for i in 0..10u64 {
        overlay
            .insert(
                &format!("comp{} pressed", i),
                AdInfo::with_bid(700_000 + i, 2),
            )
            .unwrap();
    }
    let mut removed = 0;
    for ad in corpus.ads().iter().step_by(11).take(10) {
        removed += overlay.remove(&base, &ad.phrase, ad.info.listing_id);
    }
    assert!(removed > 0, "victims must exist");
    let maintained = overlay.fold(&base, None).expect("fold");
    let mut buf = Vec::new();
    maintained.save(&mut buf).expect("serialize");
    let report = maintained.compression_report();
    assert!(report.entries > 0);
    assert!(report.node_compressed_bytes > 0);
    assert!(report.node_plain_bytes >= report.node_compressed_bytes / 2);

    let loaded = BroadMatchIndex::load(&mut buf.as_slice()).expect("load");
    let reloaded_report = loaded.compression_report();
    assert_eq!(report.entries, reloaded_report.entries);
    assert_eq!(report.node_plain_bytes, reloaded_report.node_plain_bytes);
    assert_eq!(
        report.node_compressed_bytes,
        reloaded_report.node_compressed_bytes
    );
    assert_eq!(report.directory_bytes, reloaded_report.directory_bytes);
}
