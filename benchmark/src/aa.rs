//! The modes that run workloads as child processes of this binary — one
//! process per run, as the driver runs them, so that `peak_rss_mb` and
//! `setup_s` mean the same here as there.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use crate::layers::ROUNDS;
use crate::measure::{median, quartiles, spread};
use crate::metrics::{benchmark_json, per_layer, Better, END_TO_END, WORKLOADS};
use crate::report::RunResult;

/// Run this binary with `args`; echo its table, return its result line.
fn child(args: &[&str], echo: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{table}");
    }
    RunResult::parse(last).ok_or_else(|| {
        format!(
            "child run {args:?} printed no result (exit {:?}): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

fn untraced(
    workload: &str,
    seed: u64,
    budget: (&str, String),
    echo: bool,
) -> Result<RunResult, String> {
    let seed = seed.to_string();
    child(
        &[
            "--workload",
            workload,
            "--seed",
            &seed,
            budget.0,
            &budget.1,
            "--trace",
            "0",
        ],
        echo,
    )
}

fn traced(seed: u64, rounds: usize, echo: bool) -> Result<RunResult, String> {
    let (seed, rounds) = (seed.to_string(), rounds.to_string());
    child(
        &[
            "--workload",
            WORKLOADS[0].name,
            "--seed",
            &seed,
            "--trace",
            "1",
            "--rounds",
            &rounds,
        ],
        echo,
    )
}

/// `--all`: every workload with tracing off, then the traced pass; one
/// table of every metric; the same figures in `benchmark/out/results.json`.
pub fn run_all(seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let mut results = Vec::new();
    for w in &WORKLOADS {
        results.push(untraced(
            w.name,
            seed,
            ("--seconds", seconds.to_string()),
            true,
        )?);
    }
    let layers = traced(seed, ROUNDS, true)?;

    println!("\nend to end (seed {seed}, {seconds} s per workload, tracing off)");
    print!("  {:<14} {:<5}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!();
    for m in &END_TO_END {
        print!("  {:<14} {:<5}", m.name, m.unit);
        for r in &results {
            print!(" {:>14.4}", r.get(m.name).unwrap_or(f64::NAN));
        }
        println!();
    }
    let count_row = |label: &str, counts: Vec<u64>| {
        print!("  {label:<14} {:<5}", "count");
        for c in counts {
            print!(" {c:>14}");
        }
        println!();
    };
    count_row("attempted", results.iter().map(|r| r.attempted).collect());
    count_row("failed", results.iter().map(|r| r.failed).collect());

    let mut json =
        format!("{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"end_to_end\": {{\n");
    for (i, (w, r)) in WORKLOADS.iter().zip(&results).enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{}\": {}{comma}", w.name, r.to_json_line());
    }
    let _ = writeln!(
        json,
        "  }},\n  \"per_layer\": {}\n}}",
        layers.to_json_line()
    );
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write("benchmark/out/results.json", json))
        .map_err(|e| format!("cannot write benchmark/out/results.json: {e}"))?;
    println!("\nwrote benchmark/out/results.json and benchmark/out/trace.json");

    let failed: u64 = results.iter().map(|r| r.failed).sum::<u64>() + layers.failed;
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Operation counts of `--smoke` and `--check-determinism`: enough for
/// every kind of operation and every check to occur, no more.
const SMOKE_OPS: [(&str, u64); 5] = [
    ("warm_kernel", 40),
    ("warm_scalar", 40),
    ("fresh_data", 68),
    ("cli_cold", 8),
    ("service_open", 80),
];

/// `--smoke`: every workload and one round of the traced pass at tiny
/// counts, and `BENCHMARK.json` against the tables it is generated from.
/// Judges results only, never times.
pub fn smoke(seed: u64) -> Result<ExitCode, String> {
    let mut failed = 0;
    // `run.sh` runs from the repository root, where the file is.
    let contract = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    if contract == benchmark_json() {
        println!("smoke BENCHMARK.json: equal to src/metrics.rs");
    } else {
        println!(
            "smoke BENCHMARK.json: differs from src/metrics.rs; regenerate with \
             benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
        );
        failed += 1;
    }
    for (name, ops) in SMOKE_OPS {
        let r = untraced(name, seed, ("--ops", ops.to_string()), false)?;
        println!(
            "smoke {name}: {} attempted, {} failed",
            r.attempted, r.failed
        );
        failed += r.failed + u64::from(r.attempted != ops);
    }
    let r = traced(seed, 1, false)?;
    println!(
        "smoke traced pass: {} checks, {} failed",
        r.attempted, r.failed
    );
    failed += r.failed;
    println!("smoke {}", if failed == 0 { "OK" } else { "FAILED" });
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--check-determinism`: for one seed, operation counts and every
/// count-type per-layer metric must be the same twice over. One round of
/// the traced pass is a tenth of its operations.
pub fn check_determinism(seed: u64) -> Result<ExitCode, String> {
    let mut differing = Vec::new();
    for (name, ops) in SMOKE_OPS {
        let budget = || ("--ops", ops.to_string());
        let (a, b) = (
            untraced(name, seed, budget(), false)?,
            untraced(name, seed, budget(), false)?,
        );
        if (a.attempted, a.failed) != (b.attempted, b.failed) {
            differing.push(format!("{name}: attempted/failed {a:?} vs {b:?}"));
        }
    }
    let (a, b) = (traced(seed, 1, false)?, traced(seed, 1, false)?);
    if a.attempted != b.attempted {
        differing.push(format!(
            "traced pass: {} vs {} checks",
            a.attempted, b.attempted
        ));
    }
    let mut counts = 0;
    for m in per_layer().iter().filter(|m| m.unit == "count") {
        counts += 1;
        if a.get(&m.name) != b.get(&m.name) {
            differing.push(format!(
                "{}: {:?} vs {:?}",
                m.name,
                a.get(&m.name),
                b.get(&m.name)
            ));
        }
    }
    for d in &differing {
        println!("differs: {d}");
    }
    println!(
        "determinism: {} workloads and {counts} count metrics compared, {} differ",
        SMOKE_OPS.len(),
        differing.len()
    );
    Ok(if differing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// By what share of `first` the value `second` is worse.
fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `--aa N`: two sets of N runs of every workload on this commit, the
/// sets alternating in order, run `i` of both sets on seed `i + 1`. For
/// each workload and end-to-end metric: both medians, both quartile
/// pairs, both spreads (interquartile distance over median, the driver's
/// measure), and how much worse the second median is. Fails when a
/// spread or that difference exceeds the metric's bound; `setup_s` is
/// held to the difference only, as the driver holds it.
pub fn aa(n: usize, seconds: f64) -> Result<ExitCode, String> {
    if n < 2 {
        return Err("--aa needs at least 2 runs per set".into());
    }
    // values[workload][metric][set] -> one value per run
    let mut values = vec![vec![[Vec::new(), Vec::new()]; END_TO_END.len()]; WORKLOADS.len()];
    let mut failed_ops = 0;
    for i in 0..n {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for (w, def) in WORKLOADS.iter().enumerate() {
                let r = untraced(
                    def.name,
                    i as u64 + 1,
                    ("--seconds", seconds.to_string()),
                    false,
                )?;
                failed_ops += r.failed;
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let v = r.get(metric.name).ok_or("a run left a metric out")?;
                    values[w][m][set].push(v);
                }
                eprintln!(
                    "aa: run {} of {n}, set {}, {} done",
                    i + 1,
                    ["A", "B"][set],
                    def.name
                );
            }
        }
    }
    let mut over = 0;
    println!(
        "{:<13} {:<12} {:>11} {:>23} {:>7} | {:>11} {:>23} {:>7} | {:>7} {:>6}",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "spread",
        "median B",
        "quartiles B",
        "spread",
        "B worse",
        "bound"
    );
    for (w, def) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let [a, b] = &values[w][m];
            let (qa, qb) = (quartiles(a), quartiles(b));
            let (sa, sb) = (spread(a), spread(b));
            let diff = worse_by(metric.better, median(a), median(b));
            let spreads_held = metric.name == "setup_s" || sa.max(sb) <= metric.bound;
            let held = spreads_held && diff <= metric.bound;
            let margin = sa.max(sb) <= metric.bound / 3.0;
            over += usize::from(!held);
            println!(
                "{:<13} {:<12} {:>11.4} {:>11.4}-{:<11.4} {:>6.1}% | {:>11.4} {:>11.4}-{:<11.4} \
                 {:>6.1}% | {:>6.1}% {:>5.0}% {}",
                def.name,
                metric.name,
                median(a),
                qa[0],
                qa[2],
                sa * 100.0,
                median(b),
                qb[0],
                qb[2],
                sb * 100.0,
                diff * 100.0,
                metric.bound * 100.0,
                match (held, margin) {
                    (false, _) => "OVER",
                    (true, false) => "ok (spread above a third of the bound)",
                    (true, true) => "ok",
                }
            );
        }
    }
    println!(
        "A/A: {over} of {} pairings over their bound; {failed_ops} operations failed",
        WORKLOADS.len() * END_TO_END.len()
    );
    Ok(if over == 0 && failed_ops == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_follows_the_metrics_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }
}
