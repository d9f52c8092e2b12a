//! The benchmark's own tests: every metric is printed, finite and with its
//! unit on a tiny run of each workload; the names agree with
//! `BENCHMARK.json`; and a corrupted answer trips the answer check.

use std::process::Command;

use broadmatch::MatchType;
use servebench::check::{Checker, Fingerprint, Oracle};
use servebench::inputs::build_index;
use servebench::report::{END_TO_END, PER_LAYER};
use servebench::{run, Inputs, Report, RunConfig, Scale, Workload};

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 11,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn tiny_runs_report_every_metric_finite_with_its_unit() {
    for workload in [
        Workload::ServeRead,
        Workload::ClusterRead,
        Workload::ServeChurn,
    ] {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = run(&tiny(workload, trace));
            assert!(report.correct(), "{workload:?}: {}", report.render_text());
            assert_eq!(report.failed, 0, "{workload:?}: {}", report.render_text());
            assert!(report.attempted > 0);
            let metrics = report.metrics();
            let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = table.iter().map(|m| m.0).collect();
            assert_eq!(names, expected, "{workload:?} trace={trace}");
            for (name, value, unit) in &metrics {
                assert!(value.is_finite(), "{workload:?} {name} = {value}");
                assert!(!unit.is_empty(), "{name} has a unit");
            }
            if !trace {
                for (name, value, _) in &metrics {
                    assert!(*value > 0.0, "{workload:?}: end-to-end {name} is never 0");
                }
            }
            let json = report.render_json();
            assert!(
                json.starts_with("{\"correct\":true,\"attempted\":"),
                "{json}"
            );
            for name in &expected {
                assert!(
                    json.contains(&format!("\"{name}\":{{\"value\":")),
                    "{name} in {json}"
                );
            }
        }
    }
}

#[test]
fn traced_core_phases_add_up_to_the_direct_query() {
    let report = run(&tiny(Workload::ServeRead, true));
    let get = |name: &str| {
        report
            .metrics()
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("metric present")
    };
    let phases = get("core.plan_us") + get("core.execute_us") + get("core.finish_us");
    let direct = get("core.query_us");
    assert!(direct > 0.0 && phases > 0.0);
    // Loose: a tiny run on a shared test host is noisy; the benchmark
    // itself reports both sides at full scale.
    assert!(
        phases < direct * 3.0 && direct < phases * 3.0,
        "phases {phases} vs direct {direct}"
    );
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside servebench");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in ["serve-read", "cluster-read", "serve-churn"] {
        assert!(json.contains(&format!("\"name\": \"{workload}\"")));
        assert!(Workload::parse(workload).is_some());
    }
    let declared = json.matches("\"unit\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn a_dropped_hit_trips_the_answer_check() {
    let inputs = Inputs::generate(Scale::Tiny, 5);
    let index = build_index(&inputs.base, &inputs.workload);
    let mut checker = Checker::new(&inputs.queries, &[&index]);
    let (qid, query) = inputs
        .queries
        .iter()
        .enumerate()
        .find(|(_, q)| !index.query(q, MatchType::Broad).is_empty())
        .expect("some query matches");
    let mut hits = index.query(query, MatchType::Broad);
    assert!(checker.check(qid as u32, Fingerprint::of(&hits)));
    hits.pop();
    assert!(!checker.check(qid as u32, Fingerprint::of(&hits)));
    assert_eq!((checker.checked, checker.wrong), (2, 1));

    // The oracle catches the same corruption.
    let oracle = Oracle::new(&inputs.base);
    let full = servebench::check::listings(&index.query(query, MatchType::Broad));
    assert_eq!(oracle.matches(query), full);
    assert_ne!(oracle.matches(query), servebench::check::listings(&hits));

    // A wrong answer fails the run.
    let mut report = Report::new(&tiny(Workload::ServeRead, false));
    report.wrong += checker.wrong;
    assert!(!report.correct());
    assert!(report.render_json().starts_with("{\"correct\":false"));
}

#[test]
fn the_command_prints_one_json_line_last_and_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_servebench");
    let out = Command::new(bin)
        .args([
            "--workload",
            "serve-read",
            "--seed",
            "3",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", "0", "--scale", "tiny"])
        .output()
        .expect("run servebench");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\":true,") && last.ends_with("}}}"),
        "{last}"
    );

    for bad in [
        vec!["--seed", "3"],
        vec!["--workload", "nope", "--seed", "3"],
        vec!["--workload", "serve-read", "--seed", "x"],
        vec!["--workload", "serve-read", "--seed", "3", "--trace", "2"],
    ] {
        let out = Command::new(bin)
            .args(&bad)
            .output()
            .expect("run servebench");
        assert!(!out.status.success(), "{bad:?} must fail");
        assert!(out.stdout.is_empty(), "{bad:?} prints no result");
    }
}
