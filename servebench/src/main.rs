//! `servebench --workload <serve-read|cluster-read|serve-churn> --seed <n>
//! --seconds <s> --trace <0|1> [--scale full|tiny]`
//!
//! Prints the run's metadata and every metric with its unit, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Exits non-zero on any wrong answer.

use std::process::ExitCode;

use servebench::{RunConfig, Scale, Workload};

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunConfig {
        workload: Workload::ServeRead,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut seed = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            "--scale" => {
                cfg.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("bad scale {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    cfg.seed = seed.ok_or("--seed is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = servebench::run(&cfg);
    print!("{}", report.render_text());
    println!("{}", report.render_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("servebench: {} wrong answers", report.wrong);
        ExitCode::FAILURE
    }
}
