//! The serving benchmark: three workloads over one generated corpus, each
//! run against the public APIs of `broadmatch` (core), `broadmatch-serve`
//! and `broadmatch-net`.
//!
//! A run has a measured phase (no tracing; end-to-end metrics) and, with
//! `--trace 1`, a traced phase that replays a fixed sample of the trace
//! through each layer's entry point in turn, innermost first, recording
//! one span per call. Per-layer metrics are span p50s and each layer's
//! overhead over the layer beneath. See `README.md` for the workloads and
//! the interaction map.

pub mod check;
pub mod host;
pub mod inputs;
pub mod report;
pub mod spans;
pub mod workloads;

use std::time::{Duration, Instant};

pub use inputs::{Inputs, Scale};
pub use report::Report;

/// The seed a later performance claim is confirmed on. Runs used while
/// writing a change should use other seeds, so the claim is checked on
/// inputs its author never tuned against.
pub const CONFIRM_SEED: u64 = 20_091_004;

/// Index builds per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1×1 `ServeRuntime`, one closed-loop client.
    ServeRead,
    /// Two loopback backends behind a `Router`, one closed-loop client.
    ClusterRead,
    /// Maintained 1×1 runtime: one closed-loop reader plus a scheduled
    /// writer.
    ServeChurn,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-read" => Some(Workload::ServeRead),
            "cluster-read" => Some(Workload::ClusterRead),
            "serve-churn" => Some(Workload::ServeChurn),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve-read",
            Workload::ClusterRead => "cluster-read",
            Workload::ServeChurn => "serve-churn",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Also run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Corpus size.
    pub scale: Scale,
}

/// Run one workload: generate inputs, set up, measure, check, and (when
/// tracing) replay the traced sample.
pub fn run(cfg: &RunConfig) -> Report {
    let inputs = Inputs::generate(cfg.scale, cfg.seed);
    let mut report = Report::new(cfg);
    report.meta_input_sizes(&inputs);
    match cfg.workload {
        Workload::ServeRead => workloads::serve_read(cfg, &inputs, &mut report),
        Workload::ClusterRead => workloads::cluster_read(cfg, &inputs, &mut report),
        Workload::ServeChurn => workloads::serve_churn(cfg, &inputs, &mut report),
    }
    report
}

/// Median of `xs` (sorted in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of `xs` (sorted in place); 0 for an empty slice.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}
