//! `ptbench`: the PT-Map benchmark.
//!
//! ```text
//! ptbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         --root <checkout> --ptmap <path to the release ptmap binary>
//! ```
//!
//! Workloads: `compile-gnn`, `compile-oracle`, `serve-direct`,
//! `serve-gateway` (see `README.md` beside this crate). With
//! `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it records span trees, writes them as a Chrome trace
//! under `.bench_out/`, and prints every per-layer metric. The last
//! line of standard output is the JSON result.

mod compile;
mod ledger;
mod provenance;
mod report;
mod serve;
mod stats;
mod stream;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "compile-gnn",
    "compile-oracle",
    "serve-direct",
    "serve-gateway",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub root: PathBuf,
    pub ptmap: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut values = std::collections::BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace", "root", "ptmap"].contains(n))
            .ok_or_else(|| format!("unknown argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if values.insert(name, value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let take = |name: &str| {
        values
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        take(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a non-negative integer"))
    };
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds,
        trace,
        root: PathBuf::from(take("root")?),
        ptmap: PathBuf::from(take("ptmap")?),
    })
}

/// Declares the per-layer metrics a workload has no way to measure.
fn declare_unmeasured(workload: &str, out: &mut Outcome) {
    let mut none = |prefix: &str, reason: &str| {
        for d in PER_LAYER.iter().filter(|d| d.name.starts_with(prefix)) {
            if out.get(d.name).is_none() {
                out.unmeasured(d.name, reason);
            }
        }
    };
    if workload.starts_with("compile-") {
        none("serve.", "no service in a compile workload");
        none("gateway.", "no gateway in a compile workload");
        if workload == "compile-oracle" {
            none("gnn.", "the oracle predictor makes no GNN calls");
        }
    } else {
        none("eval.predict", "predictor calls run inside the daemon");
        none(
            "eval.rest_s",
            "predictor time is not visible outside the daemon",
        );
        none(
            "gnn.",
            "the daemon's default analytical predictor makes no GNN calls",
        );
        none("mapper.ii_attempts", "not exported by /metrics");
        none("mapper.bfs_expansions", "not exported by /metrics");
        none("core.context_attempts", "not exported by /metrics");
        none("trace.overhead_pct", "the serve spans are client-side only");
        if workload == "serve-direct" {
            none("gateway.", "no gateway in serve-direct");
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ptbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let result = if args.workload.starts_with("compile-") {
        compile::run(&args, &mut out)
    } else {
        serve::run(&args, &mut out)
    };
    if let Err(e) = result {
        eprintln!("ptbench: {e}");
        return ExitCode::FAILURE;
    }
    let attempted = out.attempted.max(1);
    out.set(
        "success_ratio",
        (attempted - out.failed.min(attempted)) as f64 / attempted as f64,
    );
    if args.trace {
        declare_unmeasured(&args.workload, &mut out);
        out.print(PER_LAYER);
    } else {
        out.print(END_TO_END);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--root . --ptmap p --workload serve-direct --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-direct", 3, 10, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        let base = "--root . --ptmap p --seed 1 --seconds 5 --trace 0";
        assert!(parse_args(&argv(&format!("{base} --workload nope"))).is_err());
        assert!(parse_args(&argv(&format!("{base} --workload compile-gnn --extra 1"))).is_err());
        assert!(parse_args(&argv(
            "--root . --ptmap p --workload compile-gnn --seed 1 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv(&format!("{base} --workload compile-gnn --seed 2"))).is_err());
    }

    #[test]
    fn every_workload_accounts_for_every_per_layer_metric() {
        // Metrics a workload measures in its traced run, by prefix.
        let measured: [(&str, &[&str]); 4] = [
            (
                "compile-gnn",
                &[
                    "transform.",
                    "eval.",
                    "gnn.",
                    "mapper.",
                    "core.",
                    "sim.",
                    "pipeline.",
                    "trace.",
                ],
            ),
            (
                "compile-oracle",
                &[
                    "transform.",
                    "eval.",
                    "mapper.",
                    "core.",
                    "sim.",
                    "pipeline.",
                    "trace.",
                ],
            ),
            (
                "serve-direct",
                &[
                    "transform.",
                    "eval.evaluate",
                    "eval.pruned",
                    "mapper.map_s",
                    "mapper.accepts",
                    "mapper.rejects",
                    "sim.",
                    "pipeline.",
                    "serve.",
                ],
            ),
            (
                "serve-gateway",
                &[
                    "transform.",
                    "eval.evaluate",
                    "eval.pruned",
                    "mapper.map_s",
                    "mapper.accepts",
                    "mapper.rejects",
                    "sim.",
                    "pipeline.",
                    "serve.",
                    "gateway.",
                ],
            ),
        ];
        for (workload, prefixes) in measured {
            let mut out = Outcome::default();
            for d in PER_LAYER
                .iter()
                .filter(|d| prefixes.iter().any(|p| d.name.starts_with(p)))
            {
                out.set(d.name, 1.0);
            }
            declare_unmeasured(workload, &mut out);
            // Panics on a metric that is neither measured nor declared.
            out.print(PER_LAYER);
        }
    }
}
