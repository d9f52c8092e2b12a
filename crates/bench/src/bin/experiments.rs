//! The experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p broadmatch-bench --release --bin experiments -- all
//! cargo run -p broadmatch-bench --release --bin experiments -- fig10 --scale medium
//! ```

use broadmatch_bench::experiments::*;
use broadmatch_bench::Scale;

const USAGE: &str = "usage: experiments <id>... [--scale small|medium|large] [--seed N] [--tiny]

experiment ids:
  fig1             bid phrase length histogram           (Fig. 1)
  fig2             ads-per-word-set long tail            (Fig. 2)
  fig3             MT vs bid phrase lengths              (Fig. 3)
  fig7             keyword vs combination skew           (Fig. 7)
  throughput       hash vs inverted-index throughput     (Sec. VII-A)
  fig8             bytes read vs corpus size             (Fig. 8)
  modified-bytes   modified-index data volume            (Sec. VII-A)
  multiserver      two-server deployment + latency dist  (Sec. VII-B, Fig. 9)
  net-throughput   loopback TCP cluster vs netsim fan-out model
  cost-model-fit   predicted vs measured query cost      (Sec. IV-A; --tiny for smoke runs)
  fig10            re-mapping variants                   (Fig. 10)
  counters         simulated hardware counters           (Sec. VII-C)
  compression      node + directory compression          (Sec. VI)
  ablations        max_words / set-cover / cost-model sweeps
  extensions       directory kinds, probe-cap recall, suffix sweep, threads
  export           write the scenario corpus/workload as TSV files in cwd
  all              everything above (except export)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Medium;
    let mut seed = 42u64;
    let mut tiny = false;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tiny" => tiny = true,
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!("{USAGE}");
                        std::process::exit(2);
                    });
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if ids.iter().any(|i| i == "all") {
        ids = [
            "fig1",
            "fig2",
            "fig3",
            "fig7",
            "throughput",
            "fig8",
            "modified-bytes",
            "multiserver",
            "net-throughput",
            "cost-model-fit",
            "fig10",
            "counters",
            "compression",
            "ablations",
            "extensions",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    println!(
        "# Sponsored-search reproduction experiments (scale: {:?}, seed: {seed})\n",
        scale
    );
    for id in &ids {
        match id.as_str() {
            "fig1" => {
                distributions::fig1(scale, seed);
            }
            "fig2" => {
                distributions::fig2(scale, seed);
            }
            "fig3" => {
                distributions::fig3(scale, seed);
            }
            "fig7" => {
                distributions::fig7(scale, seed);
            }
            "throughput" => {
                throughput::run(scale, seed);
            }
            "fig8" => {
                bytes::fig8(scale, seed);
            }
            "modified-bytes" => {
                bytes::modified_bytes(scale, seed);
            }
            "multiserver" => {
                multiserver::run(scale, seed);
            }
            "net-throughput" => {
                net_throughput::run(scale, seed);
            }
            "cost-model-fit" => {
                cost_model_fit::run(scale, seed, tiny);
            }
            "fig10" => {
                remap::fig10(scale, seed);
            }
            "counters" => {
                counters::run(scale, seed);
            }
            "compression" => {
                compression::run(scale, seed);
            }
            "ablations" => {
                ablations::max_words_sweep(scale, seed);
                ablations::setcover_quality(300, seed);
                ablations::cost_model_sweep(scale, seed);
            }
            "extensions" => {
                extensions::directory_kinds(scale, seed);
                extensions::probe_cap_sweep(scale, seed);
                extensions::suffix_sweep(scale, seed);
                extensions::parallel_scaling(scale, seed);
            }
            "export" => {
                let scenario = broadmatch_bench::Scenario::build(scale, seed);
                let corpus_path = format!("corpus_{scale:?}_{seed}.tsv").to_lowercase();
                let workload_path = format!("workload_{scale:?}_{seed}.tsv").to_lowercase();
                let mut f = std::io::BufWriter::new(
                    std::fs::File::create(&corpus_path).expect("create corpus file"),
                );
                scenario.corpus.save_tsv(&mut f).expect("write corpus");
                let mut f = std::io::BufWriter::new(
                    std::fs::File::create(&workload_path).expect("create workload file"),
                );
                scenario.workload.save_tsv(&mut f).expect("write workload");
                println!(
                    "wrote {} ads to {corpus_path} and {} queries to {workload_path}",
                    scenario.ads.len(),
                    scenario.workload.len()
                );
            }
            other => {
                eprintln!("unknown experiment {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}
