//! The three workloads. Each sets up its stack `SETUP_REPEATS` times,
//! checks the reference answers against the oracle, warms up, measures a
//! closed-loop window without tracing and, with `--trace 1`, replays the
//! traced sample through every layer's entry point, innermost first.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use broadmatch::{BroadMatchIndex, DeltaOverlay, MatchType, QueryStats};
use broadmatch_corpus::GeneratedAd;
use broadmatch_net::wire::{decode_frame, encode_frame};
use broadmatch_net::{
    partition_of, Backend, BackendConfig, Opcode, Request, Response, Router, RouterConfig,
    ShardState,
};
use broadmatch_serve::{ServeConfig, ServeError, ServeRuntime, UpdateConfig};
use broadmatch_telemetry::Registry;

use crate::check::{listings, oracle_check, sample_ids, Checker, Fingerprint, Oracle};
use crate::inputs::build_index;
use crate::spans::Spans;
use crate::{host, median, quantile, timed, us, Inputs, Report, RunConfig, Scale, SETUP_REPEATS};

const BROAD: MatchType = MatchType::Broad;

/// Distinct queries checked against the oracle (and, on serve-churn,
/// against the final rebuild).
const ORACLE_SAMPLE: usize = 300;

/// serve-churn's writer: inserts per second from the pool; one base ad is
/// removed after every `INSERTS_PER_REMOVE` inserts.
const INSERTS_PER_SEC: f64 = 200.0;
const INSERTS_PER_REMOVE: usize = 3;

/// Request ids of traced writes start here, above every traced read.
const WRITE_REQUEST_BASE: u64 = 1 << 32;

/// The runtime every workload serves from: 1 shard, 1 worker.
fn serve_config() -> ServeConfig {
    ServeConfig {
        n_shards: 1,
        n_workers: 1,
        ..ServeConfig::default()
    }
}

/// serve-churn's maintenance: fold after this many overlay inserts,
/// re-optimising under the workload as §VI does.
fn update_config(inputs: &Inputs) -> UpdateConfig {
    UpdateConfig {
        max_overlay_ads: match inputs.scale {
            Scale::Full => 1024,
            Scale::Tiny => 64,
        },
        workload: Some(inputs.workload.clone()),
        ..UpdateConfig::default()
    }
}

fn warmup(inputs: &Inputs) -> Duration {
    match inputs.scale {
        Scale::Full => Duration::from_millis(500),
        Scale::Tiny => Duration::from_millis(50),
    }
}

fn spans_path(cfg: &RunConfig) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ))
}

/// Set up `SETUP_REPEATS` times, keeping the last stack. Each set-up
/// returns its stack and the part of its time spent in index builds.
/// Reports `setup_s` and `core.build_s` as medians.
fn setup<T>(report: &mut Report, mut once: impl FnMut() -> (T, Duration)) -> T {
    let (mut setups, mut builds, mut kept) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUP_REPEATS {
        drop(kept.take()); // tear the previous stack down before timing anew
        let ((stack, build), total) = timed(&mut once);
        setups.push(total.as_secs_f64());
        builds.push(build.as_secs_f64());
        kept = Some(stack);
    }
    report.set("setup_s", median(&mut setups));
    report.set("core.build_s", median(&mut builds));
    kept.expect("at least one set-up")
}

/// Index size per live ad over `indexes`.
fn report_index_size(report: &mut Report, indexes: &[&BroadMatchIndex]) {
    let (bytes, ads) = indexes.iter().fold((0, 0), |(b, a), index| {
        let s = index.stats();
        (b + s.arena_bytes + s.directory_bytes, a + s.ads)
    });
    report.set("index_bytes_per_ad", bytes as f64 / ads.max(1) as f64);
    report.set("core.index_bytes", bytes as f64);
}

/// Reference answers must agree with the naive oracle.
fn oracle_gate(
    report: &mut Report,
    ads: &[GeneratedAd],
    inputs: &Inputs,
    indexes: &[&BroadMatchIndex],
) {
    let oracle = Oracle::new(ads);
    let (compared, mismatched) = oracle_check(&oracle, &inputs.queries, indexes, ORACLE_SAMPLE);
    report.attempted += compared;
    report.failed += mismatched;
    report.wrong += mismatched;
}

/// Work totals from `QueryStats`, for the per-query core counts.
#[derive(Debug, Default)]
struct CoreCounts {
    queries: u64,
    probes: u64,
    probe_hits: u64,
    scanned_bytes: u64,
    entries: u64,
    hits: u64,
}

impl CoreCounts {
    fn add(&mut self, s: &QueryStats) {
        self.queries += 1;
        self.probes += s.probes as u64;
        self.probe_hits += s.probe_hits as u64;
        self.scanned_bytes += s.scanned_bytes as u64;
        self.entries += s.entries_examined as u64;
        self.hits += s.hits as u64;
    }

    fn report(&self, report: &mut Report) {
        let per = |x: u64, of: u64| x as f64 / of.max(1) as f64;
        report.set("core.probes_per_query", per(self.probes, self.queries));
        report.set("core.probe_hit_ratio", per(self.probe_hits, self.probes));
        report.set(
            "core.scanned_bytes_per_query",
            per(self.scanned_bytes, self.queries),
        );
        report.set("core.entries_per_hit", per(self.entries, self.hits));
    }
}

/// The measured window is cut into this many equal segments. Read
/// metrics are medians over segments, so a burst of noise from the host
/// that covers less than half the window does not move them.
const SEGMENTS: usize = 10;

/// Client-side latencies of one closed-loop window, by segment.
#[derive(Debug)]
struct Window {
    segments: Vec<Vec<f64>>,
    segment_s: f64,
    wall_s: f64,
    cpu_s: f64,
}

impl Window {
    /// Read metrics plus the host and tail diagnostics. Returns the median
    /// latency.
    fn report(mut self, report: &mut Report) -> f64 {
        let mut qps: Vec<f64> = self
            .segments
            .iter()
            .map(|s| s.len() as f64 / self.segment_s)
            .collect();
        let mut p50s: Vec<f64> = self
            .segments
            .iter_mut()
            .map(|s| quantile(s, 0.50))
            .collect();
        let p50 = median(&mut p50s);
        report.set("query_p50_us", p50);
        report.set("qps", median(&mut qps));
        let mut all: Vec<f64> = self.segments.concat();
        report.set("tail.query_p99_us", quantile(&mut all, 0.99));
        report.set(
            "host.cpu_util",
            self.cpu_s / (self.wall_s * host::nproc() as f64),
        );
        p50
    }
}

/// One closed-loop client: replay the trace from its start for `seconds`,
/// timing `call` and handing each result to `after` (untimed).
fn closed_loop<R>(
    inputs: &Inputs,
    seconds: f64,
    mut call: impl FnMut(&str) -> R,
    mut after: impl FnMut(u32, R),
) -> Window {
    let segment = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let mut segments = vec![Vec::new()];
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut segment_end = start + segment;
    for i in 0.. {
        let (qid, q) = inputs.trace_query(i);
        let t0 = Instant::now();
        if t0 >= segment_end {
            if segments.len() == SEGMENTS {
                break;
            }
            segments.push(Vec::new());
            segment_end += segment;
        }
        let out = call(q);
        let latency = us(t0.elapsed());
        segments.last_mut().expect("a segment").push(latency);
        after(qid, out);
    }
    Window {
        segments,
        segment_s: segment.as_secs_f64(),
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
    }
}

/// Tally of the reads a workload checked, warm-up included.
#[derive(Debug, Default)]
struct Reads {
    counts: CoreCounts,
    /// Calls whose answer is not checked against a reference.
    calls: u64,
    refused: u64,
    degraded: u64,
    hedges: u64,
    timeouts: u64,
}

fn tally_reads(report: &mut Report, reads: &Reads, checker: &Checker) {
    report.attempted += checker.checked + reads.calls + reads.refused;
    report.failed += checker.wrong + reads.refused + reads.degraded;
    report.wrong += checker.wrong;
}

fn finish_report(report: &mut Report) {
    report.set("host.rss_peak_mb", host::rss_peak_mb());
    report.set(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
}

/// Replay the core phases and the direct query on `index` under `parent`,
/// checking both answers: the phases must reproduce the query exactly.
/// Whichever runs second finds the query's data in cache, so the order
/// alternates between requests.
fn trace_core(
    spans: &mut Spans,
    req: u64,
    parent: u32,
    index: &BroadMatchIndex,
    q: &str,
) -> (Fingerprint, Fingerprint) {
    let direct = |spans: &mut Spans| {
        Fingerprint::of(&spans.record(req, parent, "core.query", || index.query(q, BROAD)))
    };
    let phased = |spans: &mut Spans| {
        let plan = spans.record(req, parent, "core.plan", || index.plan_query(q, BROAD));
        let Some(plan) = plan else {
            return Fingerprint::default();
        };
        let batch = spans.record(req, parent, "core.execute", || {
            index.execute_probes(&plan, 0..plan.probe_count())
        });
        let (hits, _) = spans.record(req, parent, "core.finish", || {
            index.finish_query(&plan, [batch])
        });
        Fingerprint::of(&hits)
    };
    if req & 1 == 0 {
        let d = direct(spans);
        (phased(spans), d)
    } else {
        let p = phased(spans);
        (p, direct(spans))
    }
}

fn report_core_spans(report: &mut Report, spans: &Spans) {
    for (metric, span) in [
        ("core.plan_us", "core.plan"),
        ("core.execute_us", "core.execute"),
        ("core.finish_us", "core.finish"),
        ("core.query_us", "core.query"),
        ("serve.query_us", "serve.query"),
    ] {
        report.set(metric, spans.p50_us(span));
    }
    report.set(
        "serve.overhead_us",
        spans.p50_us("serve.query") - spans.p50_us("core.query"),
    );
}

fn write_spans(cfg: &RunConfig, report: &mut Report, spans: &Spans) {
    let path = spans_path(cfg);
    match spans.write_jsonl(&path) {
        Ok(()) => report.spans_file = Some(path.display().to_string()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

const WRITE_METRICS: &[&str] = &[
    "core.overlay_query_us",
    "core.fold_s",
    "core.fold_ads_per_update",
    "serve.insert_us",
    "serve.remove_us",
    "serve.compactions",
    "serve.compact_s",
    "write_p50_us",
    "loadgen.write_late_p99_us",
    "tail.write_p99_us",
];

const WIRE_NET_METRICS: &[&str] = &[
    "wire.request_encode_ns",
    "wire.request_decode_ns",
    "wire.response_encode_ns",
    "wire.response_decode_ns",
    "wire.response_bytes",
    "net.health_rtt_us",
    "net.leg_us",
    "net.leg_overhead_us",
    "net.router_query_us",
    "net.scatter_overhead_us",
    "net.hedges",
    "net.timeouts",
    "net.degraded",
];

// ---------------------------------------------------------------------------
// serve-read

/// `ServeRuntime` 1×1, one closed-loop client.
pub fn serve_read(cfg: &RunConfig, inputs: &Inputs, report: &mut Report) {
    let (index, runtime) = setup(report, || {
        let (index, build) = timed(|| Arc::new(build_index(&inputs.base, &inputs.workload)));
        let runtime = ServeRuntime::start(Arc::clone(&index), serve_config());
        ((index, runtime), build)
    });
    report.meta_debug("serve_config", &runtime.config());
    report_index_size(report, &[&index]);
    oracle_gate(report, &inputs.base, inputs, &[&index]);

    let mut checker = Checker::new(&inputs.queries, &[&index]);
    let mut reads = Reads::default();
    let query = |q: &str| runtime.query(q, BROAD);
    let mut check = |qid: u32, out: Result<broadmatch_serve::QueryResponse, ServeError>| match out {
        Ok(resp) => {
            reads.counts.add(&resp.stats);
            checker.check(qid, Fingerprint::of(&resp.hits));
        }
        Err(_) => reads.refused += 1,
    };
    closed_loop(inputs, warmup(inputs).as_secs_f64(), query, &mut check);
    let measured_p50 = closed_loop(inputs, cfg.seconds, query, &mut check).report(report);
    reads.counts.report(report);
    report.set("serve.rejects", runtime.metrics().rejected as f64);

    if cfg.trace {
        let mut spans = Spans::new(Instant::now());
        for i in 0..inputs.traced_sample {
            let (qid, q) = inputs.trace_query(i);
            let req = i as u64 + 1;
            let root = spans.open(req, 0, "request");
            let (phased, direct) = trace_core(&mut spans, req, root, &index, q);
            let served = spans.record(req, root, "serve.query", || runtime.query(q, BROAD));
            spans.close(root);
            checker.check(qid, phased);
            checker.check(qid, direct);
            match served {
                Ok(resp) => {
                    checker.check(qid, Fingerprint::of(&resp.hits));
                }
                Err(_) => reads.refused += 1,
            }
        }
        report_core_spans(report, &spans);
        report.set(
            "trace.overhead_pct",
            100.0 * (spans.p50_us("serve.query") - measured_p50) / measured_p50,
        );
        write_spans(cfg, report, &spans);
    }
    report.not_on_path(WRITE_METRICS);
    report.not_on_path(WIRE_NET_METRICS);
    tally_reads(report, &reads, &checker);
    finish_report(report);
}

// ---------------------------------------------------------------------------
// cluster-read

const N_BACKENDS: usize = 2;

struct Cluster {
    indexes: Vec<Arc<BroadMatchIndex>>,
    backends: Vec<Backend>,
    router: Router,
}

fn start_cluster(inputs: &Inputs) -> (Cluster, Duration) {
    let mut parts: Vec<Vec<&GeneratedAd>> = vec![Vec::new(); N_BACKENDS];
    for ad in &inputs.base {
        parts[partition_of(&ad.phrase, N_BACKENDS)].push(ad);
    }
    let mut build = Duration::ZERO;
    let mut indexes = Vec::new();
    let mut backends = Vec::new();
    for part in parts {
        let (index, t) = timed(|| Arc::new(build_index(part, &inputs.workload)));
        build += t;
        let runtime = Arc::new(ServeRuntime::start(Arc::clone(&index), serve_config()));
        backends.push(
            Backend::bind("127.0.0.1:0", runtime, BackendConfig::default())
                .expect("bind a loopback port"),
        );
        indexes.push(index);
    }
    let router = Router::new(
        backends.iter().map(Backend::local_addr).collect(),
        RouterConfig::default(),
        Arc::new(Registry::new()),
    );
    for i in 0..N_BACKENDS {
        let health = router.call_backend(i, &Request::Health);
        assert!(
            matches!(health, Ok(Response::Health { .. })),
            "backend {i} answers Health: {health:?}"
        );
    }
    (
        Cluster {
            indexes,
            backends,
            router,
        },
        build,
    )
}

/// Two loopback backends behind a `Router`, one closed-loop client.
pub fn cluster_read(cfg: &RunConfig, inputs: &Inputs, report: &mut Report) {
    let cluster = setup(report, || start_cluster(inputs));
    report.meta_debug("serve_config", &serve_config());
    report.meta_debug("router_config", &RouterConfig::default());
    report.meta("backends", N_BACKENDS.to_string());
    let indexes: Vec<&BroadMatchIndex> = cluster.indexes.iter().map(|i| &**i).collect();
    report_index_size(report, &indexes);
    oracle_gate(report, &inputs.base, inputs, &indexes);

    let mut checker = Checker::new(&inputs.queries, &indexes);
    let mut reads = Reads::default();
    let query = |q: &str| cluster.router.query(q, BROAD);
    let mut check = |qid: u32, resp: broadmatch_net::RoutedResponse| {
        reads.counts.add(&resp.stats);
        for shard in &resp.shards {
            match shard.state {
                ShardState::Hedged => reads.hedges += 1,
                ShardState::TimedOut => reads.timeouts += 1,
                _ => {}
            }
        }
        // A degraded answer is partial by design: it fails, but is not wrong.
        if resp.degraded {
            reads.calls += 1;
            reads.degraded += 1;
        } else {
            checker.check(qid, Fingerprint::of(&resp.hits));
        }
    };
    closed_loop(inputs, warmup(inputs).as_secs_f64(), query, &mut check);
    let measured_p50 = closed_loop(inputs, cfg.seconds, query, &mut check).report(report);
    reads.counts.report(report);
    let rejects: u64 = cluster
        .backends
        .iter()
        .map(|b| b.runtime().metrics().rejected)
        .sum();
    report.set("serve.rejects", rejects as f64);

    if cfg.trace {
        let mut per_backend: Vec<Checker> = indexes
            .iter()
            .map(|index| Checker::new(&inputs.queries, &[index]))
            .collect();
        let mut spans = Spans::new(Instant::now());
        let mut response_bytes = Vec::new();
        let mut buf = Vec::new();
        for i in 0..inputs.traced_sample {
            let (qid, q) = inputs.trace_query(i);
            let req_id = i as u64 + 1;
            let root = spans.open(req_id, 0, "request");
            for (b, index) in indexes.iter().enumerate() {
                let (phased, direct) = trace_core(&mut spans, req_id, root, index, q);
                let runtime = cluster.backends[b].runtime();
                let served = spans.record(req_id, root, "serve.query", || runtime.query(q, BROAD));
                per_backend[b].check(qid, phased);
                per_backend[b].check(qid, direct);
                match served {
                    Ok(resp) => {
                        per_backend[b].check(qid, Fingerprint::of(&resp.hits));
                    }
                    Err(_) => reads.refused += 1,
                }
            }
            let req = Request::Query {
                text: q.to_string(),
                match_type: BROAD,
            };
            spans.record(req_id, root, "wire.request_encode", || {
                buf.clear();
                encode_frame(&req.to_frame(req_id), &mut buf);
            });
            let decoded = spans.record(req_id, root, "wire.request_decode", || {
                decode_frame(&buf).and_then(|(frame, _)| Request::from_frame(&frame))
            });
            checker.checked += 1;
            if !matches!(&decoded, Ok(r) if *r == req) {
                checker.wrong += 1;
            }
            for b in 0..N_BACKENDS {
                let health = spans.record(req_id, root, "net.health", || {
                    cluster.router.call_backend(b, &Request::Health)
                });
                reads.calls += 1;
                if health.is_err() {
                    reads.degraded += 1;
                }
            }
            for (b, checker_b) in per_backend.iter_mut().enumerate() {
                let leg = spans.record(req_id, root, "net.leg", || {
                    cluster.router.call_backend(b, &req)
                });
                let Ok(resp @ Response::Query(_)) = leg else {
                    reads.calls += 1;
                    reads.degraded += 1;
                    continue;
                };
                if let Response::Query(reply) = &resp {
                    checker_b.check(qid, Fingerprint::of(&reply.hits));
                }
                spans.record(req_id, root, "wire.response_encode", || {
                    buf.clear();
                    encode_frame(&resp.to_frame(Opcode::Query, req_id), &mut buf);
                });
                response_bytes.push(buf.len() as f64);
                let decoded = spans.record(req_id, root, "wire.response_decode", || {
                    decode_frame(&buf).and_then(|(frame, _)| Response::from_frame(&frame))
                });
                checker_b.checked += 1;
                if !matches!(&decoded, Ok(r) if *r == resp) {
                    checker_b.wrong += 1;
                }
            }
            let routed = spans.record(req_id, root, "net.router", || {
                cluster.router.query(q, BROAD)
            });
            spans.close(root);
            if routed.degraded {
                reads.calls += 1;
                reads.degraded += 1;
            } else {
                checker.check(qid, Fingerprint::of(&routed.hits));
            }
        }
        for c in &per_backend {
            checker.checked += c.checked;
            checker.wrong += c.wrong;
        }
        report_core_spans(report, &spans);
        for (metric, span) in [
            ("wire.request_encode_ns", "wire.request_encode"),
            ("wire.request_decode_ns", "wire.request_decode"),
            ("wire.response_encode_ns", "wire.response_encode"),
            ("wire.response_decode_ns", "wire.response_decode"),
        ] {
            report.set(metric, spans.p50_us(span) * 1e3);
        }
        report.set("wire.response_bytes", median(&mut response_bytes));
        let leg = spans.p50_us("net.leg");
        let routed = spans.p50_us("net.router");
        report.set("net.health_rtt_us", spans.p50_us("net.health"));
        report.set("net.leg_us", leg);
        report.set("net.leg_overhead_us", leg - spans.p50_us("serve.query"));
        report.set("net.router_query_us", routed);
        report.set(
            "net.scatter_overhead_us",
            routed - median(&mut spans.per_request_max_us("net.leg")),
        );
        report.set(
            "trace.overhead_pct",
            100.0 * (routed - measured_p50) / measured_p50,
        );
        write_spans(cfg, report, &spans);
    }
    report.set("net.hedges", reads.hedges as f64);
    report.set("net.timeouts", reads.timeouts as f64);
    report.set("net.degraded", reads.degraded as f64);
    report.not_on_path(WRITE_METRICS);
    tally_reads(report, &reads, &checker);
    finish_report(report);
}

// ---------------------------------------------------------------------------
// serve-churn

/// One scheduled write.
#[derive(Debug, Clone, Copy)]
enum WriteOp<'a> {
    Insert(&'a GeneratedAd),
    Remove(&'a GeneratedAd),
}

/// The writer's fixed schedule: `INSERTS_PER_SEC` inserts from the pool,
/// each third followed by the removal of a base ad the trace hits.
struct Schedule<'a> {
    pool: &'a [GeneratedAd],
    victims: Vec<&'a GeneratedAd>,
    inserted: usize,
    removed: usize,
}

impl<'a> Schedule<'a> {
    /// Ops per second, inserts and removes together.
    fn rate() -> f64 {
        INSERTS_PER_SEC * (INSERTS_PER_REMOVE + 1) as f64 / INSERTS_PER_REMOVE as f64
    }

    fn next(&mut self, k: usize) -> Option<WriteOp<'a>> {
        if k % (INSERTS_PER_REMOVE + 1) == INSERTS_PER_REMOVE {
            let victim = self.victims.get(self.removed)?;
            self.removed += 1;
            Some(WriteOp::Remove(victim))
        } else {
            let ad = self.pool.get(self.inserted)?;
            self.inserted += 1;
            Some(WriteOp::Insert(ad))
        }
    }
}

/// Base ads the trace hits, in trace order, for the writer to remove.
fn pick_victims<'a>(inputs: &'a Inputs, index: &BroadMatchIndex) -> Vec<&'a GeneratedAd> {
    let wanted = inputs.pool.len() / INSERTS_PER_REMOVE + 1;
    let by_listing: HashMap<u64, &GeneratedAd> = inputs
        .base
        .iter()
        .map(|ad| (ad.info.listing_id, ad))
        .collect();
    let mut seen_queries = HashSet::new();
    let mut seen_ads = HashSet::new();
    let mut victims = Vec::with_capacity(wanted);
    for &qid in &inputs.trace {
        if victims.len() >= wanted {
            break;
        }
        if !seen_queries.insert(qid) {
            continue;
        }
        for hit in index.query(&inputs.queries[qid as usize], BROAD) {
            if victims.len() < wanted && seen_ads.insert(hit.info.listing_id) {
                victims.push(by_listing[&hit.info.listing_id]);
            }
        }
    }
    victims
}

/// What one writer did: each write's latency from its due time, and how
/// late it started.
#[derive(Debug, Default)]
struct WriteLog {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Send scheduled writes until `stop` is set, timing each from its due
/// time. Spans, when given, record each call.
fn run_writer(
    runtime: &ServeRuntime,
    schedule: &mut Schedule<'_>,
    stop: &AtomicBool,
    mut spans: Option<&mut Spans>,
) -> WriteLog {
    let mut log = WriteLog::default();
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / Schedule::rate());
    for k in 0.. {
        let due = start + period * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        // ORDER: Relaxed — a stop request; no data is published through it.
        if stop.load(Relaxed) {
            break;
        }
        let Some(op) = schedule.next(k) else { break };
        let began = Instant::now();
        let req = WRITE_REQUEST_BASE + k as u64;
        let ok = match op {
            WriteOp::Insert(ad) => {
                let call = || runtime.insert(&ad.phrase, ad.info).is_ok();
                match spans.as_deref_mut() {
                    Some(s) => s.record(req, 0, "serve.insert", call),
                    None => call(),
                }
            }
            WriteOp::Remove(ad) => {
                let call = || runtime.remove(&ad.phrase, ad.info.listing_id) == 1;
                match spans.as_deref_mut() {
                    Some(s) => s.record(req, 0, "serve.remove", call),
                    None => call(),
                }
            }
        };
        log.latency_us.push(us(due.elapsed()));
        log.late_us.push(us(began.saturating_duration_since(due)));
        log.attempted += 1;
        if !ok {
            log.failed += 1;
        }
    }
    log
}

/// A churn read is checked for wrong hits: every listing must be in the
/// static reference answer or come from the insert pool. Missing hits are
/// caught by the final comparison with a fresh rebuild.
struct ChurnCheck {
    base_refs: Vec<Vec<u64>>,
    pool: HashSet<u64>,
}

impl ChurnCheck {
    fn ok(&self, qid: u32, hits: &[broadmatch::MatchHit]) -> bool {
        let base = &self.base_refs[qid as usize];
        hits.iter().all(|h| {
            base.binary_search(&h.info.listing_id).is_ok() || self.pool.contains(&h.info.listing_id)
        })
    }
}

/// A maintained 1×1 runtime with one closed-loop reader and one writer on
/// a fixed schedule.
pub fn serve_churn(cfg: &RunConfig, inputs: &Inputs, report: &mut Report) {
    let update = update_config(inputs);
    let (index, runtime) = setup(report, || {
        let (index, build) = timed(|| Arc::new(build_index(&inputs.base, &inputs.workload)));
        let runtime =
            ServeRuntime::start_maintained(Arc::clone(&index), serve_config(), update.clone());
        ((index, runtime), build)
    });
    report.meta_debug("serve_config", &runtime.config());
    report.meta(
        "update_config",
        crate::report::json_str(&format!(
            "max_overlay_ads={} max_dead_bytes={} check_interval={:?} workload={}",
            update.max_overlay_ads,
            update.max_dead_bytes,
            update.check_interval,
            update.workload.as_ref().map_or(0, Vec::len)
        )),
    );
    report.meta("inserts_per_sec", INSERTS_PER_SEC.to_string());
    report.meta("inserts_per_remove", INSERTS_PER_REMOVE.to_string());
    oracle_gate(report, &inputs.base, inputs, &[&index]);

    let churn = ChurnCheck {
        base_refs: inputs
            .queries
            .iter()
            .map(|q| listings(&index.query(q, BROAD)))
            .collect(),
        pool: inputs.pool.iter().map(|ad| ad.info.listing_id).collect(),
    };
    let mut schedule = Schedule {
        pool: &inputs.pool,
        victims: pick_victims(inputs, &index),
        inserted: 0,
        removed: 0,
    };
    let mut reads = Reads::default();
    let (mut checked, mut wrong) = (0u64, 0u64);
    let query = |q: &str| runtime.query(q, BROAD);
    let mut check = |qid: u32, out: Result<broadmatch_serve::QueryResponse, ServeError>| match out {
        Ok(resp) => {
            reads.counts.add(&resp.stats);
            checked += 1;
            if !churn.ok(qid, &resp.hits) {
                wrong += 1;
            }
        }
        Err(_) => reads.refused += 1,
    };
    closed_loop(inputs, warmup(inputs).as_secs_f64(), query, &mut check);

    let stop = AtomicBool::new(false);
    let (window, mut writes) = std::thread::scope(|s| {
        let writer = s.spawn(|| run_writer(&runtime, &mut schedule, &stop, None));
        let window = closed_loop(inputs, cfg.seconds, query, &mut check);
        // ORDER: Relaxed — a stop request; no data is published through it.
        stop.store(true, Relaxed);
        (window, writer.join().expect("writer thread"))
    });
    let measured_p50 = window.report(report);
    reads.counts.report(report);
    let metrics = runtime.metrics();
    report.set("serve.rejects", metrics.rejected as f64);
    report.set("serve.compactions", metrics.compactions as f64);
    report.set(
        "core.fold_ads_per_update",
        metrics.compactions as f64 * index.stats().ads as f64 / writes.attempted.max(1) as f64,
    );
    report.set("write_p50_us", quantile(&mut writes.latency_us, 0.50));
    report.set("tail.write_p99_us", quantile(&mut writes.latency_us, 0.99));
    report.set(
        "loadgen.write_late_p99_us",
        quantile(&mut writes.late_us, 0.99),
    );
    report.attempted += writes.attempted;
    report.failed += writes.failed;

    if cfg.trace {
        let (overlay_ads, overlay_removes) = {
            let n = update.max_overlay_ads.min(inputs.pool.len());
            (&inputs.pool[..n], n / INSERTS_PER_REMOVE)
        };
        let mut overlay = DeltaOverlay::for_base(&index);
        for ad in overlay_ads {
            overlay
                .insert(&ad.phrase, ad.info)
                .expect("generated phrases are valid");
        }
        for ad in schedule.victims.iter().take(overlay_removes) {
            overlay.remove(&index, &ad.phrase, ad.info.listing_id);
        }
        let epoch = Instant::now();
        let mut spans = Spans::new(epoch);
        let mut write_spans_rec = Spans::new(epoch);
        stop.store(false, Relaxed);
        let traced_writes = std::thread::scope(|s| {
            let writer =
                s.spawn(|| run_writer(&runtime, &mut schedule, &stop, Some(&mut write_spans_rec)));
            for i in 0..inputs.traced_sample {
                let (qid, q) = inputs.trace_query(i);
                let req = i as u64 + 1;
                let root = spans.open(req, 0, "request");
                let (base, _) = runtime.current();
                let (phased, direct) = trace_core(&mut spans, req, root, &base, q);
                let overlaid = spans.record(req, root, "core.overlay_query", || {
                    index.query_with_overlay(&overlay, q, BROAD)
                });
                let served = spans.record(req, root, "serve.query", || runtime.query(q, BROAD));
                spans.close(root);
                checked += 3;
                if phased != direct || !churn.ok(qid, &overlaid.0) {
                    wrong += 1;
                }
                match served {
                    Ok(resp) if churn.ok(qid, &resp.hits) => {}
                    Ok(_) => wrong += 1,
                    Err(_) => reads.refused += 1,
                }
            }
            // ORDER: Relaxed — a stop request; no data is published through it.
            stop.store(true, Relaxed);
            writer.join().expect("writer thread")
        });
        report.attempted += traced_writes.attempted;
        report.failed += traced_writes.failed;
        spans.merge(write_spans_rec);

        // The benchmark's own overlay, folded: answers must match the
        // overlay's merged answers.
        let (folded, fold_time) = timed(|| {
            overlay
                .fold(&index, Some(inputs.workload.clone()))
                .expect("fold rebuilds")
        });
        report.set("core.fold_s", fold_time.as_secs_f64());
        for qid in sample_ids(inputs.queries.len(), ORACLE_SAMPLE) {
            let q = &inputs.queries[qid as usize];
            checked += 1;
            if listings(&folded.query(q, BROAD))
                != listings(&index.query_with_overlay(&overlay, q, BROAD).0)
            {
                wrong += 1;
            }
        }

        report_core_spans(report, &spans);
        report.set("core.overlay_query_us", spans.p50_us("core.overlay_query"));
        report.set("serve.insert_us", spans.p50_us("serve.insert"));
        report.set("serve.remove_us", spans.p50_us("serve.remove"));
        report.set(
            "trace.overhead_pct",
            100.0 * (spans.p50_us("serve.query") - measured_p50) / measured_p50,
        );
        write_spans(cfg, report, &spans);
    }

    // Fold what is left, then the served answers must equal a fresh
    // rebuild of the surviving ads.
    let (compacted, compact_time) = timed(|| runtime.compact_now());
    report.set("serve.compact_s", compact_time.as_secs_f64());
    report.attempted += 1;
    if compacted.is_err() {
        report.failed += 1;
    }
    let (served_index, _) = runtime.current();
    report_index_size(report, &[&served_index]);
    let removed: HashSet<u64> = schedule.victims[..schedule.removed]
        .iter()
        .map(|ad| ad.info.listing_id)
        .collect();
    let surviving = inputs
        .base
        .iter()
        .filter(|ad| !removed.contains(&ad.info.listing_id))
        .chain(&inputs.pool[..schedule.inserted]);
    let fresh = build_index(surviving, &inputs.workload);
    for qid in sample_ids(inputs.queries.len(), ORACLE_SAMPLE) {
        let q = &inputs.queries[qid as usize];
        checked += 1;
        let served = runtime.query(q, BROAD).map(|r| listings(&r.hits));
        if served.as_ref() != Ok(&listings(&fresh.query(q, BROAD))) {
            wrong += 1;
        }
    }
    report.meta("writes_inserted", schedule.inserted.to_string());
    report.meta("writes_removed", schedule.removed.to_string());

    report.not_on_path(WIRE_NET_METRICS);
    report.attempted += checked + reads.refused;
    report.failed += wrong + reads.refused;
    report.wrong += wrong;
    finish_report(report);
}
