//! Metric names, units and the result line.

use std::fmt::Write as _;

use crate::{host, Inputs, RunConfig, CONFIRM_SEED};

/// End-to-end metrics, reported by every run on every workload. Each is
/// gated by a bound, so each must hold steady across runs on a shared
/// host; read latency does not (see README.md) and is reported per layer.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("index_bytes_per_ad", "B")];

/// Per-layer metrics, reported by `--trace 1` runs. A layer that is not on
/// a workload's path (the wire on serve-read, say) reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query_p50_us", "us"),
    ("qps", "1/s"),
    ("core.plan_us", "us"),
    ("core.execute_us", "us"),
    ("core.finish_us", "us"),
    ("core.query_us", "us"),
    ("core.probes_per_query", "count"),
    ("core.probe_hit_ratio", "ratio"),
    ("core.scanned_bytes_per_query", "B"),
    ("core.entries_per_hit", "count"),
    ("core.build_s", "s"),
    ("core.index_bytes", "B"),
    ("core.overlay_query_us", "us"),
    ("core.fold_s", "s"),
    ("core.fold_ads_per_update", "count"),
    ("serve.query_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.rejects", "count"),
    ("serve.insert_us", "us"),
    ("serve.remove_us", "us"),
    ("serve.compactions", "count"),
    ("serve.compact_s", "s"),
    ("wire.request_encode_ns", "ns"),
    ("wire.request_decode_ns", "ns"),
    ("wire.response_encode_ns", "ns"),
    ("wire.response_decode_ns", "ns"),
    ("wire.response_bytes", "B"),
    ("net.health_rtt_us", "us"),
    ("net.leg_us", "us"),
    ("net.leg_overhead_us", "us"),
    ("net.router_query_us", "us"),
    ("net.scatter_overhead_us", "us"),
    ("net.hedges", "count"),
    ("net.timeouts", "count"),
    ("net.degraded", "count"),
    ("write_p50_us", "us"),
    ("error_rate", "ratio"),
    ("host.cpu_util", "ratio"),
    ("host.rss_peak_mb", "MiB"),
    ("loadgen.write_late_p99_us", "us"),
    ("tail.query_p99_us", "us"),
    ("tail.write_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// One run's metrics, metadata and operation tally.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    meta: Vec<(String, String)>,
    end_to_end: Vec<Option<f64>>,
    per_layer: Vec<Option<f64>>,
    /// Operations attempted (reads, writes, and answer checks).
    pub attempted: u64,
    /// Operations that failed, were refused or degraded, or answered
    /// wrongly.
    pub failed: u64,
    /// Answers that differed from the reference or the oracle.
    pub wrong: u64,
    /// Where the traced phase's spans were written.
    pub spans_file: Option<String>,
}

impl Report {
    /// An empty report tagged with the run's settings.
    pub fn new(cfg: &RunConfig) -> Report {
        let mut r = Report {
            trace: cfg.trace,
            meta: Vec::new(),
            end_to_end: vec![None; END_TO_END.len()],
            per_layer: vec![None; PER_LAYER.len()],
            attempted: 0,
            failed: 0,
            wrong: 0,
            spans_file: None,
        };
        r.meta("workload", json_str(cfg.workload.name()));
        r.meta("seed", cfg.seed.to_string());
        r.meta("confirm_seed", CONFIRM_SEED.to_string());
        r.meta("seconds", cfg.seconds.to_string());
        r.meta_debug("scale", &cfg.scale);
        r.meta("nproc", host::nproc().to_string());
        r.meta("git_revision", json_str(&host::git_revision()));
        r.meta_debug("index_config", &crate::inputs::index_config());
        r
    }

    /// Record the generated input sizes.
    pub fn meta_input_sizes(&mut self, inputs: &Inputs) {
        self.meta("base_ads", inputs.base.len().to_string());
        self.meta("pool_ads", inputs.pool.len().to_string());
        self.meta("distinct_queries", inputs.queries.len().to_string());
        self.meta("trace_len", inputs.trace.len().to_string());
        self.meta("traced_sample", inputs.traced_sample.to_string());
    }

    /// Add a metadata field; `json` is already a JSON value.
    pub fn meta(&mut self, key: &str, json: String) {
        self.meta.push((key.to_string(), json));
    }

    /// Add a metadata field holding a value's `Debug` form.
    pub fn meta_debug(&mut self, key: &str, value: &impl std::fmt::Debug) {
        self.meta(key, json_str(&format!("{value:?}")));
    }

    /// Set a metric by name.
    ///
    /// # Panics
    /// On a name that is in neither table: a typo must not pass silently.
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(i) = END_TO_END.iter().position(|(n, _)| *n == name) {
            self.end_to_end[i] = Some(value);
        } else if let Some(i) = PER_LAYER.iter().position(|(n, _)| *n == name) {
            self.per_layer[i] = Some(value);
        } else {
            panic!("unknown metric {name}");
        }
    }

    /// Set to 0 the per-layer metrics of layers this workload never calls.
    pub fn not_on_path(&mut self, names: &[&str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    /// Whether every answer matched.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The metrics this run reports: end-to-end without tracing,
    /// per-layer with it, as `(name, value, unit)`. Unset metrics are
    /// missing from the list.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let (table, values) = if self.trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        table
            .iter()
            .zip(values)
            .filter_map(|(&(n, u), v)| v.map(|v| (n, v, u)))
            .collect()
    }

    /// Every metric set so far, both tables, for the human-readable dump.
    fn all_metrics(&self) -> Vec<(&'static str, Option<f64>, &'static str)> {
        END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .chain(PER_LAYER.iter().zip(&self.per_layer))
            .map(|(&(n, u), v)| (n, *v, u))
            .collect()
    }

    /// Human-readable lines: metadata, then every metric with its unit.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), v))
            .collect();
        let _ = writeln!(out, "# meta {{{}}}", meta.join(","));
        if let Some(path) = &self.spans_file {
            let _ = writeln!(out, "# spans {path}");
        }
        for (name, value, unit) in self.all_metrics() {
            if let Some(v) = value {
                let _ = writeln!(out, "{name:<32} {v:>14.4} {unit}");
            }
        }
        let _ = writeln!(
            out,
            "# attempted {} failed {} wrong {}",
            self.attempted, self.failed, self.wrong
        );
        out
    }

    /// The result line: one JSON object.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(n),
                    v,
                    json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
