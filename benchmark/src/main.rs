//! The benchmark of the systolizer pipeline. `BENCHMARK.json` at the
//! repository root names this program's command, workloads and metrics;
//! `benchmark/README.md` explains them. Run it through `benchmark/run.sh`
//! from the repository root, which builds what it needs first.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run; the driver's interface
//! run.sh --all [--seed N] [--seconds S]                     every workload, then the traced pass
//! run.sh --smoke                                            every correctness check, tiny counts
//! run.sh --check-determinism                                counts must repeat for one seed
//! run.sh --aa N                                             two sets of N runs of this commit
//! ```

mod aa;
mod designs;
mod layers;
mod measure;
mod metrics;
mod report;
mod stages;
mod trace;
mod workloads;

use std::process::ExitCode;

use measure::{Budget, Outcome};
use metrics::{RUN_SECONDS, WORKLOADS};
use report::RunResult;
use workloads::warm;

const USAGE: &str = "usage (from the repository root):
  benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--ops N]
  benchmark/run.sh --all [--seed N] [--seconds S]
  benchmark/run.sh --smoke
  benchmark/run.sh --check-determinism [--seed N]
  benchmark/run.sh --aa N [--seconds S]
  benchmark/run.sh --print-benchmark-json
workloads: warm_kernel warm_scalar fresh_data cli_cold service_open";

/// `--key value` pairs and bare switches, in any order.
struct Args(Vec<String>);

impl Args {
    fn has(&self, switch: &str) -> bool {
        self.0.iter().any(|a| a == switch)
    }

    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    /// A numeric flag: absent is `default`, unparseable is a usage error.
    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None if self.has(key) => Err(format!("{key} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v}")),
        }
    }
}

/// Run one workload untraced.
pub fn run_workload(name: &str, seed: u64, budget: Budget) -> Option<Outcome> {
    Some(match name {
        "warm_kernel" => warm::run(designs::e1_n24, warm::KERNEL_LIMIT_MS, seed, budget),
        "warm_scalar" => warm::run(designs::mmsys_n24, warm::SCALAR_LIMIT_MS, seed, budget),
        "fresh_data" => workloads::fresh::run(seed, budget),
        "cli_cold" => workloads::cli::run(seed, budget),
        "service_open" => workloads::service::run(seed, budget),
        _ => return None,
    })
}

/// The driver's interface: one run of one workload, its result as the
/// last line of standard output.
fn one_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    if !WORKLOADS.iter().any(|w| w.name == name) {
        return Err(format!("unknown workload {name}"));
    }
    let seed: u64 = args.number("--seed", 1)?;
    let seconds: f64 = args.number("--seconds", RUN_SECONDS as f64)?;
    let trace: u8 = args.number("--trace", 0)?;
    let result = if trace == 1 {
        let rounds: usize = args.number("--rounds", layers::ROUNDS)?;
        let traced = layers::run(seed, rounds.max(1));
        std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write("benchmark/out/trace.json", &traced.trace_json))
            .map_err(|e| format!("cannot write benchmark/out/trace.json: {e}"))?;
        report::print_traced(&traced);
        RunResult::from_traced(&traced)
    } else {
        let budget = match args.value("--ops") {
            Some(_) => Budget::Ops(args.number("--ops", 0)?),
            None => Budget::Seconds(seconds),
        };
        let outcome = run_workload(name, seed, budget).expect("name checked above");
        let reduced = measure::reduce(&outcome.ops, outcome.block_ops, outcome.limit_ms);
        let result = RunResult::from_outcome(&outcome, &reduced);
        report::print_outcome(name, &outcome, &reduced, &result);
        result
    };
    // Failed operations are the result line's to report (`correct`,
    // `failed`); the exit status says only that a result was produced.
    println!("{}", result.to_json_line());
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if args.has("--print-benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    if args.has("--workload") {
        return one_run(args);
    }
    let seed: u64 = args.number("--seed", 1)?;
    let seconds: f64 = args.number("--seconds", RUN_SECONDS as f64)?;
    if args.has("--all") {
        return aa::run_all(seed, seconds);
    }
    if args.has("--smoke") {
        return aa::smoke(seed);
    }
    if args.has("--check-determinism") {
        return aa::check_determinism(seed);
    }
    if args.has("--aa") {
        return aa::aa(args.number("--aa", 5)?, seconds);
    }
    Err("no mode given".into())
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
