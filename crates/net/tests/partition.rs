//! Fault injection: kill a backend mid-query-stream, assert graceful
//! degradation with correct per-shard status, then restart it as a fresh
//! replica and assert op-log shipping catches it up to **bit-identical**
//! answers.
//!
//! Topology: a 3-way partitioned corpus. Shards 0 and 1 are plain
//! backends. Shard 2 is a primary/replica pair — the router reads from
//! the *replica*, mutations go to the *primary*, and a `ReplicaSyncer`
//! ships the primary's op log across. The test kills the read replica
//! under a live query stream, keeps mutating the primary while the
//! replica is dark, then restarts the replica from the original base and
//! lets the syncer replay history. A second test has eight writers insert
//! into one primary at once and checks the shipped log is in commit order.

mod common;

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use broadmatch::{AdId, AdInfo, MatchType};
use broadmatch_net::wire::{Request, Response};
use broadmatch_net::{
    call, Backend, BackendConfig, ReplicaConfig, ReplicaSyncer, Router, RouterConfig, ShardState,
};
use broadmatch_serve::UpdateOp;
use broadmatch_telemetry::Registry;

use common::{
    backend_over, listing_multiset, partitioned_corpus, probe_queries, runtime_over, truth_hits,
};

const N_SHARDS: usize = 3;

/// Mutations applied to the shard-2 primary while its replica is down:
/// fresh inserts plus removes of existing shard-2 ads.
fn offline_mutations(shard2: &[broadmatch_corpus::GeneratedAd]) -> Vec<Request> {
    let mut ops = Vec::new();
    for i in 0..8u64 {
        ops.push(Request::Insert {
            phrase: format!("zz partition phrase {i}"),
            info: AdInfo::with_bid(800_000 + i, 50 + i as u32),
        });
    }
    for ad in shard2.iter().take(4) {
        ops.push(Request::Remove {
            phrase: ad.phrase.clone(),
            listing_id: ad.info.listing_id,
        });
    }
    ops
}

#[test]
fn kill_degrade_restart_converge() {
    let parts = partitioned_corpus(N_SHARDS, 23);
    let b0 = backend_over(&parts[0]);
    let b1 = backend_over(&parts[1]);
    // Shard 2: primary (write side) + replica (read side, same base).
    let primary = backend_over(&parts[2]);
    let mut replica = Backend::bind(
        "127.0.0.1:0",
        runtime_over(&parts[2]),
        BackendConfig::default(),
    )
    .expect("bind replica");
    let mut syncer = ReplicaSyncer::start(
        primary.local_addr(),
        Arc::clone(replica.runtime()),
        0,
        ReplicaConfig::default(),
    )
    .expect("spawn syncer");

    // Tight deadlines keep the degraded path fast once the replica dies
    // (connect to a closed loopback port fails immediately).
    let router = Arc::new(Router::new(
        vec![b0.local_addr(), b1.local_addr(), replica.local_addr()],
        RouterConfig {
            deadline: Duration::from_millis(400),
            hedge_after: Duration::from_millis(80),
            connect_timeout: Duration::from_millis(100),
        },
        Arc::new(Registry::new()),
    ));

    let queries = probe_queries(&parts, 24);
    let all: Vec<_> = parts.iter().flatten().cloned().collect();

    // Phase 1 — healthy cluster answers exactly like one big index.
    for q in &queries {
        let routed = router.query(q, MatchType::Broad);
        assert!(!routed.degraded, "healthy cluster degraded on {q:?}");
        assert_eq!(
            listing_multiset(&routed.hits),
            listing_multiset(&truth_hits(&all, q, MatchType::Broad))
        );
    }

    // Phase 2 — a client thread streams queries while the replica dies.
    let stop = Arc::new(AtomicBool::new(false));
    let degraded_seen = Arc::new(AtomicU64::new(0));
    let streamer = {
        let router = Arc::clone(&router);
        let stop = Arc::clone(&stop);
        let degraded_seen = Arc::clone(&degraded_seen);
        let queries = queries.clone();
        std::thread::spawn(move || {
            let mut i = 0usize;
            // ORDER: Relaxed — test-only stop flag and counter.
            while !stop.load(Ordering::Relaxed) {
                let routed = router.query(&queries[i % queries.len()], MatchType::Broad);
                if routed.degraded {
                    degraded_seen.fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
            }
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    replica.shutdown(); // severs in-flight connections mid-stream
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    streamer.join().expect("streamer exits");
    assert!(
        degraded_seen.load(Ordering::Relaxed) > 0,
        "killing a backend under load must surface degraded responses"
    );

    // Deterministic check of the degraded shape: shard 2 dark, 0/1 fine,
    // results exactly the truth over the surviving partitions.
    let survivors: Vec<_> = parts[0].iter().chain(&parts[1]).cloned().collect();
    let routed = router.query(&queries[0], MatchType::Broad);
    assert!(routed.degraded);
    assert!(routed.shards[0].answered() && routed.shards[1].answered());
    assert!(
        matches!(
            routed.shards[2].state,
            ShardState::Failed | ShardState::TimedOut
        ),
        "dead shard reported as {:?}",
        routed.shards[2].state
    );
    assert_eq!(
        listing_multiset(&routed.hits),
        listing_multiset(&truth_hits(&survivors, &queries[0], MatchType::Broad)),
        "degraded response must still be exact over surviving shards"
    );

    // Phase 3 — mutate the primary while the replica is down.
    let mut primary_conn = TcpStream::connect(primary.local_addr()).expect("primary up");
    let mutations = offline_mutations(&parts[2]);
    for (i, m) in mutations.iter().enumerate() {
        match call(&mut primary_conn, m, i as u64 + 1).expect("primary applies mutation") {
            Response::Insert { .. } | Response::Remove { .. } => {}
            other => panic!("unexpected mutation response: {other:?}"),
        }
    }
    let head_seq = primary.runtime().log_head();
    assert!(head_seq >= mutations.len() as u64 - 4, "ops were logged");

    // Phase 4 — restart the replica from the ORIGINAL base and let the
    // syncer replay the op log from sequence 0.
    drop(syncer);
    let replica2 = Backend::bind(
        "127.0.0.1:0",
        runtime_over(&parts[2]),
        BackendConfig::default(),
    )
    .expect("rebind replica");
    syncer = ReplicaSyncer::start(
        primary.local_addr(),
        Arc::clone(replica2.runtime()),
        0,
        ReplicaConfig::default(),
    )
    .expect("spawn syncer");
    assert!(
        syncer.wait_for_seq(head_seq, Duration::from_secs(10)),
        "replica failed to catch up to seq {head_seq}"
    );
    router.set_backend(2, replica2.local_addr());

    // Replica answers must now be bit-identical to the primary's: same
    // base, same op prefix, same insert order ⇒ same AdIds, same hits,
    // same order.
    let mut replica_conn = TcpStream::connect(replica2.local_addr()).expect("replica up");
    let shard2_queries: Vec<String> = parts[2]
        .iter()
        .take(12)
        .map(|ad| format!("{} zzfiller", ad.phrase))
        .chain((0..8).map(|i| format!("zz partition phrase {i} zzfiller")))
        .collect();
    for q in &shard2_queries {
        let req = Request::Query {
            text: q.clone(),
            match_type: MatchType::Broad,
        };
        let Response::Query(on_primary) = call(&mut primary_conn, &req, 77).expect("primary")
        else {
            panic!("primary query failed for {q:?}");
        };
        let Response::Query(on_replica) = call(&mut replica_conn, &req, 78).expect("replica")
        else {
            panic!("replica query failed for {q:?}");
        };
        assert_eq!(
            on_primary.hits, on_replica.hits,
            "replica diverged from primary on {q:?}"
        );
    }

    // And the routed cluster as a whole matches a fresh single-threaded
    // rebuild over (shards 0+1) ∪ (shard 2 after mutations).
    let mut final_shard2: Vec<_> = parts[2].clone();
    for m in &mutations {
        match m {
            Request::Insert { phrase, info } => final_shard2.push(broadmatch_corpus::GeneratedAd {
                phrase: phrase.clone(),
                info: *info,
            }),
            Request::Remove { listing_id, .. } => {
                final_shard2.retain(|ad| ad.info.listing_id != *listing_id);
            }
            _ => {}
        }
    }
    let final_all: Vec<_> = parts[0]
        .iter()
        .chain(&parts[1])
        .chain(&final_shard2)
        .cloned()
        .collect();
    for q in queries.iter().chain(&shard2_queries) {
        let routed = router.query(q, MatchType::Broad);
        assert!(!routed.degraded, "healed cluster still degraded on {q:?}");
        assert_eq!(
            listing_multiset(&routed.hits),
            listing_multiset(&truth_hits(&final_all, q, MatchType::Broad)),
            "healed cluster diverged from fresh rebuild on {q:?}"
        );
    }

    // Replica telemetry recorded the catch-up.
    let applied = replica2
        .runtime()
        .registry()
        .snapshot()
        .counter_total("net_replica_ops_applied_total");
    assert!(applied >= head_seq, "ops applied: {applied} < {head_seq}");
}

/// Eight writers, each on its own connection, insert distinct phrases
/// into one primary. The shipped log must be in commit order — ad ids
/// ascend with log sequence — and every ack's `seq` must cover its own
/// insert; otherwise a replica replaying the log assigns different
/// `AdId`s than the primary did.
#[test]
fn concurrent_writers_ship_in_commit_order() {
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 300;
    let parts = partitioned_corpus(1, 29);
    let primary = backend_over(&parts[0]);

    // (acked ad, acked seq, phrase) for every insert. Writers connect,
    // then start together so their inserts contend for the update lock.
    let start = Barrier::new(WRITERS as usize);
    let acks: Vec<(u32, u64, String)> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (addr, start) = (primary.local_addr(), &start);
                s.spawn(move || {
                    let mut conn = TcpStream::connect(addr).expect("primary up");
                    start.wait();
                    (0..PER_WRITER)
                        .map(|i| {
                            let phrase = format!("zz writer{w} phrase{i}");
                            let req = Request::Insert {
                                phrase: phrase.clone(),
                                info: AdInfo::with_bid(900_000 + w * PER_WRITER + i, 10),
                            };
                            match call(&mut conn, &req, i).expect("primary applies insert") {
                                Response::Insert { ad, seq } => (ad, seq, phrase),
                                other => panic!("unexpected insert response: {other:?}"),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        writers
            .into_iter()
            .flat_map(|w| w.join().expect("writer thread"))
            .collect()
    });
    let total = WRITERS * PER_WRITER;
    assert_eq!(acks.len() as u64, total);

    // The log as a replica receives it, with each insert's sequence.
    let mut conn = TcpStream::connect(primary.local_addr()).expect("primary up");
    let req = Request::OplogSubscribe {
        from_seq: 0,
        max_ops: u32::MAX,
    };
    let Response::Oplog { ops, head_seq, .. } = call(&mut conn, &req, 1).expect("oplog") else {
        panic!("expected an op-log batch");
    };
    assert_eq!((ops.len() as u64, head_seq), (total, total));
    let seq_of: HashMap<&str, u64> = ops
        .iter()
        .zip(1..)
        .map(|(op, seq)| match op {
            UpdateOp::Insert { phrase, .. } => (phrase.as_str(), seq),
            other => panic!("unexpected op {other:?}"),
        })
        .collect();

    let mut by_seq: Vec<(u64, u32)> = acks
        .iter()
        .map(|(ad, acked, phrase)| {
            let seq = seq_of[phrase.as_str()];
            assert!(
                *acked >= seq,
                "ack seq {acked} precedes the insert's seq {seq}"
            );
            (seq, *ad)
        })
        .collect();
    by_seq.sort_unstable();
    let inversions = by_seq.windows(2).filter(|w| w[0].1 >= w[1].1).count();
    assert_eq!(
        inversions, 0,
        "{inversions} of {total} ops logged out of commit order"
    );

    // A replica replaying from seq 0 over the same base answers every
    // inserted phrase bit-identically, with the primary's acked ad.
    let replica = runtime_over(&parts[0]);
    let syncer = ReplicaSyncer::start(
        primary.local_addr(),
        Arc::clone(&replica),
        0,
        ReplicaConfig::default(),
    )
    .expect("spawn syncer");
    assert!(
        syncer.wait_for_seq(total, Duration::from_secs(30)),
        "replica failed to catch up to seq {total}"
    );
    let mut diverged = Vec::new();
    for (ad, _, phrase) in &acks {
        let on_primary = primary.runtime().query(phrase, MatchType::Exact);
        let on_primary = on_primary.expect("primary admits").hits;
        assert_eq!(on_primary.len(), 1, "primary lost {phrase:?}");
        assert_eq!(on_primary[0].ad, AdId(*ad), "acked ad for {phrase:?}");
        let on_replica = replica.query(phrase, MatchType::Exact);
        if on_replica.expect("replica admits").hits != on_primary {
            diverged.push(phrase);
        }
    }
    assert!(
        diverged.is_empty(),
        "replica diverged on {} of {total} phrases, first {:?}",
        diverged.len(),
        diverged.first()
    );
}
