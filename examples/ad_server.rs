//! A miniature ad server over stdin, served through the `broadmatch-serve`
//! runtime: each query runs behind its admission gate, and the index can
//! be rebuilt and atomically swapped while queries are in flight.
//!
//! ```text
//! cargo run --release --example ad_server            # interactive
//! echo "cheap used books" | cargo run --release --example ad_server
//! ```
//!
//! The same binary also runs as one node of a real TCP cluster
//! (`broadmatch-net`): `--listen <addr>` serves the index over the wire
//! protocol, `--shard i/n` makes it own only partition `i` of `n` (the
//! router's `partition_of` split), and `--connect <addr>[,<addr>...]`
//! starts a scatter-gather front end over running backends:
//!
//! ```text
//! cargo run --release --example ad_server -- --listen 127.0.0.1:7001 --shard 0/2
//! cargo run --release --example ad_server -- --listen 127.0.0.1:7002 --shard 1/2
//! cargo run --release --example ad_server -- --connect 127.0.0.1:7001,127.0.0.1:7002
//! ```
//!
//! Commands: plain text runs a broad-match auction; `:exact <q>` /
//! `:phrase <q>` switch semantics; `:stats <q>` shows query processing
//! statistics; `:reload <seed>` rebuilds the corpus at a new seed and
//! publishes it without pausing queries; `:insert <listing> <bid_cents>
//! <phrase>` adds an ad through the delta overlay (visible to the next
//! query); `:remove <listing> <phrase>` deletes by exact phrase + listing;
//! `:compact` folds the overlay into a rebuilt base immediately (a
//! background worker also folds when the overlay thresholds trip);
//! `:metrics` dumps the full telemetry registry in Prometheus text format;
//! `:trace` shows the most recent sampled query span traces; `:quit`
//! exits.

use std::io::BufRead;
use std::sync::Arc;

use sponsored_search::broadmatch::{
    AdInfo, BroadMatchIndex, IndexBuilder, IndexConfig, MatchType, RemapMode,
};
use sponsored_search::corpus::{AdCorpus, CorpusConfig, QueryGenConfig, Workload};
use sponsored_search::net::wire::{Request, Response};
use sponsored_search::net::{partition_of, Backend, BackendConfig, Router, RouterConfig};
use sponsored_search::serve::{ServeConfig, ServeError, ServeRuntime, UpdateConfig};
use sponsored_search::telemetry::Registry;

/// Build the synthetic corpus and index; with `shard = (i, n)` keep only
/// the phrases that [`partition_of`] assigns to backend `i` of `n`, so
/// separately launched processes form a consistent cluster.
fn build_sharded(seed: u64, shard: (usize, usize)) -> (AdCorpus, Arc<BroadMatchIndex>) {
    let corpus = AdCorpus::generate(CorpusConfig::benchmark(20_000, seed));
    let workload = Workload::generate(QueryGenConfig::small(seed), &corpus);
    let config = IndexConfig {
        remap: RemapMode::Full,
        ..IndexConfig::default()
    };
    let mut builder = IndexBuilder::with_config(config);
    for ad in corpus.ads() {
        if partition_of(&ad.phrase, shard.1) != shard.0 {
            continue;
        }
        builder.add(&ad.phrase, ad.info).expect("valid phrase");
    }
    builder.set_workload(workload.to_builder_workload());
    (corpus, Arc::new(builder.build().expect("valid config")))
}

fn build(seed: u64) -> (AdCorpus, Arc<BroadMatchIndex>) {
    build_sharded(seed, (0, 1))
}

/// `--listen` mode: serve this process's shard over the wire protocol
/// until killed.
fn run_listen(addr: &str, shard: (usize, usize), seed: u64) {
    eprintln!(
        "building shard {}/{} of a 20K-ad synthetic index (seed {seed})...",
        shard.0, shard.1
    );
    let (_, index) = build_sharded(seed, shard);
    let stats = index.stats();
    let runtime = ServeRuntime::start_maintained(
        index,
        ServeConfig {
            n_workers: 4,
            ..ServeConfig::default()
        },
        UpdateConfig::default(),
    );
    let backend = match Backend::bind(addr, Arc::new(runtime), BackendConfig::default()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "listening on {} with {} ads, {} nodes (ctrl-c to stop)",
        backend.local_addr(),
        stats.ads,
        stats.nodes
    );
    loop {
        std::thread::park();
    }
}

/// `--connect` mode: a scatter-gather front end over running backends,
/// driving the same stdin command loop through the router.
fn run_connect(addrs: &str) {
    let backends: Vec<std::net::SocketAddr> = addrs
        .split(',')
        .filter_map(|a| a.trim().parse().ok())
        .collect();
    if backends.is_empty() {
        eprintln!("usage: --connect <addr>[,<addr>...]");
        std::process::exit(2);
    }
    let n = backends.len();
    let router = Router::new(backends, RouterConfig::default(), Arc::new(Registry::new()));
    for i in 0..n {
        match router.call_backend(i, &Request::Health) {
            Ok(Response::Health {
                version, oplog_seq, ..
            }) => eprintln!("backend {i}: up (snapshot v{version}, op log at {oplog_seq})"),
            other => eprintln!("backend {i}: unreachable ({other:?})"),
        }
    }
    eprintln!(
        "routing across {n} backend(s); type a query (or :exact/:insert/:remove/:metrics/:quit):"
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" {
            break;
        }
        if line == ":metrics" {
            // Backend 0's exposition (serve + net families), then the
            // router's own registry.
            if let Ok(Response::Metrics { text }) = router.call_backend(0, &Request::Metrics) {
                print!("{text}");
            }
            print!("{}", router.registry().render_prometheus());
            continue;
        }
        if let Some(rest) = line.strip_prefix(":insert ") {
            let mut parts = rest.trim().splitn(3, char::is_whitespace);
            let parsed = parts
                .next()
                .and_then(|l| l.parse::<u64>().ok())
                .zip(parts.next().and_then(|b| b.parse::<u32>().ok()))
                .zip(parts.next());
            let Some(((listing_id, bid_cents), phrase)) = parsed else {
                println!("usage: :insert <listing_id> <bid_cents> <phrase>");
                continue;
            };
            let req = Request::Insert {
                phrase: phrase.to_string(),
                info: AdInfo::with_bid(listing_id, bid_cents),
            };
            match router.route_mutation(phrase, &req) {
                Ok(Response::Insert { ad, seq }) => println!(
                    "inserted {ad:?} on backend {} (op log seq {seq})",
                    partition_of(phrase, n)
                ),
                other => println!("insert failed: {other:?}"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":remove ") {
            let mut parts = rest.trim().splitn(2, char::is_whitespace);
            let parsed = parts
                .next()
                .and_then(|l| l.parse::<u64>().ok())
                .zip(parts.next());
            let Some((listing_id, phrase)) = parsed else {
                println!("usage: :remove <listing_id> <phrase>");
                continue;
            };
            let req = Request::Remove {
                phrase: phrase.to_string(),
                listing_id,
            };
            match router.route_mutation(phrase, &req) {
                Ok(Response::Remove { removed, .. }) => println!("removed {removed} ad(s)"),
                other => println!("remove failed: {other:?}"),
            }
            continue;
        }
        let (mt, query) = if let Some(rest) = line.strip_prefix(":exact ") {
            (MatchType::Exact, rest)
        } else {
            (MatchType::Broad, line)
        };
        let routed = router.query(query, mt);
        let mut hits = routed.hits;
        hits.sort_by_key(|h| std::cmp::Reverse(h.info.bid_micros));
        hits.truncate(5);
        println!(
            "{} match(es){}",
            routed.stats.hits,
            if routed.degraded {
                " [DEGRADED — some shards did not answer]"
            } else {
                ""
            }
        );
        for (slot, h) in hits.iter().enumerate() {
            println!(
                "  {}. listing {:>6}  campaign {:>5}  bid {:>7.2}c",
                slot + 1,
                h.info.listing_id,
                h.info.campaign_id,
                h.info.bid_micros as f64 / 10_000.0
            );
        }
        for s in &routed.shards {
            println!(
                "     shard {}: {:?} in {:.2} ms",
                s.backend, s.state, s.latency_ms
            );
        }
    }
}

/// Parse `i/n` for `--shard`.
fn parse_shard(s: &str) -> Option<(usize, usize)> {
    let (i, n) = s.split_once('/')?;
    let (i, n) = (i.parse().ok()?, n.parse().ok()?);
    (i < n && n > 0).then_some((i, n))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut shard = (0usize, 1usize);
    let mut seed = 7u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                listen = args.get(i).cloned();
            }
            "--connect" => {
                i += 1;
                connect = args.get(i).cloned();
            }
            "--shard" => {
                i += 1;
                match args.get(i).and_then(|s| parse_shard(s)) {
                    Some(s) => shard = s,
                    None => {
                        eprintln!("usage: --shard <i>/<n> (0 <= i < n)");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(7);
            }
            other => {
                eprintln!("unknown argument {other:?}; see the module docs");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Some(addr) = listen {
        run_listen(&addr, shard, seed);
        return;
    }
    if let Some(addrs) = connect {
        run_connect(&addrs);
        return;
    }
    run_local()
}

fn run_local() {
    eprintln!("building a 20K-ad synthetic index...");
    let (corpus, index) = build(7);
    let stats = index.stats();
    let runtime = ServeRuntime::start_maintained(
        index,
        ServeConfig {
            n_workers: 4,
            ..ServeConfig::default()
        },
        UpdateConfig::default(),
    );
    eprintln!(
        "ready: {} ads, {} word sets, {} nodes, {} KiB arena + {} KiB directory",
        stats.ads,
        stats.groups,
        stats.nodes,
        stats.arena_bytes / 1024,
        stats.directory_bytes / 1024
    );
    eprintln!(
        "serving up to {} queries at once (snapshot v1)",
        runtime.config().n_workers
    );
    eprintln!(
        "example corpus words look like: {:?}",
        &corpus.wordset_phrases()[..3]
    );
    eprintln!(
        "type a query (or :exact/:phrase/:stats/:reload/:insert/:remove/:compact\
         /:metrics/:trace/:quit):"
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" {
            break;
        }
        if line == ":metrics" {
            // The full registry, Prometheus text exposition format — the
            // same bytes a /metrics HTTP endpoint would serve.
            print!("{}", runtime.prometheus());
            continue;
        }
        if line == ":trace" {
            let traces = runtime.tracer().recent(5);
            if traces.is_empty() {
                println!(
                    "no sampled traces yet (1 in {} queries)",
                    runtime.config().trace_sample_every
                );
                continue;
            }
            for t in traces {
                println!(
                    "query #{}: {} us total; {} probes ({} hit), {} nodes, {} bytes scanned{}",
                    t.seq,
                    t.total_us,
                    t.probe.probes,
                    t.probe.probe_hits,
                    t.probe.nodes_scanned,
                    t.probe.scanned_bytes,
                    if t.probe.early_terminations > 0 {
                        format!(", {} early-term", t.probe.early_terminations)
                    } else {
                        String::new()
                    }
                );
                for s in &t.spans {
                    println!(
                        "    {:<8} +{:>6} us  {:>6} us",
                        s.name, s.start_us, s.dur_us
                    );
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":insert ") {
            let mut parts = rest.trim().splitn(3, char::is_whitespace);
            let (listing, bid, phrase) = (parts.next(), parts.next(), parts.next());
            let parsed = listing
                .and_then(|l| l.parse::<u64>().ok())
                .zip(bid.and_then(|b| b.parse::<u32>().ok()))
                .zip(phrase);
            let Some(((listing_id, bid_cents), phrase)) = parsed else {
                println!("usage: :insert <listing_id> <bid_cents> <phrase>");
                continue;
            };
            match runtime.insert(phrase, AdInfo::with_bid(listing_id, bid_cents)) {
                Ok(id) => {
                    let m = runtime.metrics();
                    println!(
                        "inserted ad {id:?} for listing {listing_id} (overlay: {} ads, \
                         {} tombstones; snapshot v{})",
                        m.overlay_ads, m.overlay_tombstones, m.version
                    );
                }
                Err(e) => println!("insert failed: {e}"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":remove ") {
            let mut parts = rest.trim().splitn(2, char::is_whitespace);
            let parsed = parts
                .next()
                .and_then(|l| l.parse::<u64>().ok())
                .zip(parts.next());
            let Some((listing_id, phrase)) = parsed else {
                println!("usage: :remove <listing_id> <phrase>");
                continue;
            };
            let removed = runtime.remove(phrase, listing_id);
            let m = runtime.metrics();
            println!(
                "removed {removed} ad(s) (overlay: {} ads, {} tombstones, {} dead bytes)",
                m.overlay_ads, m.overlay_tombstones, m.overlay_dead_bytes
            );
            continue;
        }
        if line == ":compact" {
            let start = std::time::Instant::now();
            match runtime.compact_now() {
                Ok(Some(version)) => println!(
                    "folded the overlay into snapshot v{version} in {:.1} ms \
                     (readers never blocked)",
                    start.elapsed().as_secs_f64() * 1e3
                ),
                Ok(None) => println!("overlay empty; nothing to fold"),
                Err(e) => println!("compaction failed: {e}"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":reload ") {
            let Ok(seed) = rest.trim().parse::<u64>() else {
                println!("usage: :reload <seed>");
                continue;
            };
            let start = std::time::Instant::now();
            let (_, index) = build(seed);
            let version = runtime.publish(index);
            println!(
                "rebuilt and published snapshot v{version} in {:.1} ms (readers never blocked)",
                start.elapsed().as_secs_f64() * 1e3
            );
            continue;
        }
        let (mt, query, show_stats) = if let Some(rest) = line.strip_prefix(":exact ") {
            (MatchType::Exact, rest, false)
        } else if let Some(rest) = line.strip_prefix(":phrase ") {
            (MatchType::Phrase, rest, false)
        } else if let Some(rest) = line.strip_prefix(":stats ") {
            (MatchType::Broad, rest, true)
        } else {
            (MatchType::Broad, line, false)
        };

        let start = std::time::Instant::now();
        let resp = match runtime.query(query, mt) {
            Ok(resp) => resp,
            Err(ServeError::Overloaded { retry_after }) => {
                println!("overloaded; retry after {retry_after:?}");
                continue;
            }
        };
        let elapsed = start.elapsed();
        let mut hits = resp.hits;
        hits.sort_by_key(|h| std::cmp::Reverse(h.info.bid_micros));
        hits.truncate(5);

        println!(
            "{} match(es) in {:.1} us on snapshot v{}{}",
            resp.stats.hits,
            elapsed.as_secs_f64() * 1e6,
            resp.version,
            if resp.stats.truncated {
                " (probe cap hit)"
            } else {
                ""
            },
        );
        for (slot, h) in hits.iter().enumerate() {
            println!(
                "  {}. listing {:>6}  campaign {:>5}  bid {:>7.2}c",
                slot + 1,
                h.info.listing_id,
                h.info.campaign_id,
                h.info.bid_micros as f64 / 10_000.0
            );
        }
        if show_stats {
            println!(
                "  probes {}  hits {}  nodes visited {}",
                resp.stats.probes, resp.stats.probe_hits, resp.stats.nodes_visited
            );
        }
    }
}
