//! cost-model-fit — validates the paper's Section IV-A cost model against
//! wall-clock reality.
//!
//! The index's layout optimization trusts `Cost_Random`/`Cost_Scan` to
//! rank mappings the same way real hardware would. This experiment checks
//! that trust: every workload query runs through the tracked probe path
//! with a [`CountingTracker`], its accesses are priced under the DRAM
//! model, and the predicted cost is paired with measured wall-clock time.
//! Per query class (folded query length) and overall, the report prints
//! the Pearson correlation between the two series — a high `r` means the
//! model's cost ordering is the machine's cost ordering, which is all the
//! set-cover optimizer needs.
//!
//! Both series also accumulate into the global telemetry registry via
//! [`CostModelBridge`], so the run ends with a Prometheus exposition dump
//! — the same families a production deployment would scrape.

use std::sync::Arc;
use std::time::Instant;

use broadmatch::{
    fold_duplicates, probe_trace_stats, tokenize, BroadMatchIndex, IndexConfig, MatchType,
    QueryCounters, RemapMode,
};
use broadmatch_corpus::{AdCorpus, CorpusConfig, QueryGenConfig, Workload};
use broadmatch_memcost::{CostModel, CostModelBridge, CountingTracker};
use broadmatch_telemetry::Registry;

use crate::table::Table;
use crate::Scale;

/// Fit summary for one query class.
#[derive(Debug, Clone)]
pub struct ClassFit {
    /// Class label (`len1` … `len6+` by folded query word count).
    pub class: String,
    /// Queries in this class.
    pub n: usize,
    /// Mean predicted cost, model units.
    pub mean_predicted: f64,
    /// Mean measured wall-clock, microseconds.
    pub mean_measured_us: f64,
    /// Pearson correlation of predicted vs measured within the class
    /// (NaN when the class has no variance, e.g. a single query).
    pub pearson_r: f64,
}

/// The full cost-model validation report.
#[derive(Debug, Clone)]
pub struct CostFitReport {
    /// Per-class fits, ascending by class label.
    pub classes: Vec<ClassFit>,
    /// Pearson correlation pooled over every query.
    pub overall_r: f64,
    /// Prometheus exposition of the global registry after the run.
    pub exposition: String,
}

/// Pearson correlation coefficient of paired samples.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Class label: folded query length, capped at `6+` (longer queries are
/// rare and their subset spaces behave alike).
fn class_of(query: &str) -> String {
    let len = fold_duplicates(&tokenize(query)).len();
    if len >= 6 {
        "len6+".to_string()
    } else {
        format!("len{len}")
    }
}

fn build_scenario(scale: Scale, seed: u64, tiny: bool) -> (Arc<BroadMatchIndex>, Vec<String>) {
    let (n_ads, trace_len) = if tiny {
        (2_000, 600)
    } else {
        match scale {
            Scale::Small => (20_000, 4_000),
            _ => (100_000, 20_000),
        }
    };
    let corpus = AdCorpus::generate(CorpusConfig::benchmark(n_ads, seed));
    let workload = Workload::generate(
        QueryGenConfig::benchmark(n_ads / 10, seed.wrapping_add(1)),
        &corpus,
    );
    let config = IndexConfig {
        remap: RemapMode::Full,
        ..IndexConfig::default()
    };
    let mut builder = broadmatch::IndexBuilder::with_config(config);
    for ad in corpus.ads() {
        builder
            .add(&ad.phrase, ad.info)
            .expect("generated phrases are valid");
    }
    builder.set_workload(workload.to_builder_workload());
    let index = Arc::new(builder.build().expect("valid config"));
    let trace = workload
        .sample_trace(trace_len, seed ^ 0xC057)
        .into_iter()
        .map(str::to_string)
        .collect();
    (index, trace)
}

/// Run the validation; prints the per-class table, the overall fit, and
/// the Prometheus dump, and returns the data.
pub fn run(scale: Scale, seed: u64, tiny: bool) -> CostFitReport {
    println!("== cost-model-fit: predicted Cost_Random/Cost_Scan vs measured wall-clock ==");
    let (index, trace) = build_scenario(scale, seed, tiny);
    let stats = index.stats();
    println!(
        "corpus: {} ads, {} nodes, {} queries (fully re-mapped index, DRAM model)",
        stats.ads,
        stats.nodes,
        trace.len()
    );

    let registry = Registry::global();
    let counters = QueryCounters::register(registry);
    let model = CostModel::dram();

    // One warm-up pass so the first measured queries don't pay cold-cache
    // noise the model knows nothing about.
    for q in trace.iter().take(trace.len().min(500)) {
        std::hint::black_box(index.query(q, MatchType::Broad));
    }

    // (predicted, measured_ns) per class, plus the registry bridges.
    let mut samples: std::collections::BTreeMap<String, (Vec<f64>, Vec<f64>)> =
        std::collections::BTreeMap::new();
    let mut bridges: std::collections::BTreeMap<String, CostModelBridge> =
        std::collections::BTreeMap::new();

    for query in &trace {
        let t0 = Instant::now();
        let mut tracker = CountingTracker::new();
        let Some(plan) = index.plan_query(query, MatchType::Broad) else {
            continue;
        };
        let n_probes = plan.probe_hashes().len();
        let batch = index.execute_probes_tracked(&plan, 0..n_probes, &mut tracker);
        let (hits, qstats) = index.finish_query(&plan, [batch]);
        std::hint::black_box(hits.len());
        let wall = t0.elapsed();

        counters.record(&qstats);
        std::hint::black_box(probe_trace_stats(&qstats));
        let class = class_of(query);
        let bridge = bridges
            .entry(class.clone())
            .or_insert_with(|| CostModelBridge::new(registry, model, &class));
        let predicted = bridge.observe(&tracker, wall);
        let (xs, ys) = samples.entry(class).or_default();
        xs.push(predicted);
        ys.push(wall.as_nanos() as f64);
    }

    let mut classes = Vec::with_capacity(samples.len());
    let mut all_x = Vec::new();
    let mut all_y = Vec::new();
    let mut t = Table::new(&["class", "queries", "mean cost", "mean us", "pearson r"]);
    for (class, (xs, ys)) in &samples {
        let n = xs.len();
        let r = pearson(xs, ys);
        let fit = ClassFit {
            class: class.clone(),
            n,
            mean_predicted: xs.iter().sum::<f64>() / n as f64,
            mean_measured_us: ys.iter().sum::<f64>() / n as f64 / 1e3,
            pearson_r: r,
        };
        t.row_owned(vec![
            fit.class.clone(),
            n.to_string(),
            format!("{:.1}", fit.mean_predicted),
            format!("{:.3}", fit.mean_measured_us),
            if r.is_nan() {
                "n/a".to_string()
            } else {
                format!("{r:.3}")
            },
        ]);
        all_x.extend_from_slice(xs);
        all_y.extend_from_slice(ys);
        classes.push(fit);
    }
    t.print();
    let overall_r = pearson(&all_x, &all_y);
    println!(
        "overall predicted-vs-measured correlation: r = {overall_r:.3} over {} queries\n",
        all_x.len()
    );

    let exposition = registry.render_prometheus();
    println!("-- telemetry exposition (global registry) --");
    println!("{exposition}");

    CostFitReport {
        classes,
        overall_r,
        exposition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_of_linear_series_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_run_produces_fits_and_exposition() {
        let r = run(Scale::Small, 99, true);
        assert!(!r.classes.is_empty());
        assert!(r.classes.iter().all(|c| c.n > 0));
        assert!(r.classes.iter().all(|c| c.mean_predicted.is_finite()));
        // Wall-clock noise under test builds makes the magnitude of r
        // unassertable; finite (or NaN for degenerate classes) is the
        // contract here. Release runs report r for human inspection.
        assert!(r.overall_r.is_finite() || r.overall_r.is_nan());
        for family in [
            "broadmatch_cost_predicted_milliunits_total",
            "broadmatch_cost_measured_ns_total",
            "broadmatch_cost_queries_total",
            "broadmatch_probes_total",
            "broadmatch_nodes_scanned_total",
            "broadmatch_scan_bytes_total",
            "broadmatch_remap_hits_total",
        ] {
            assert!(r.exposition.contains(family), "missing {family}");
        }
    }
}
