//! The command-line driver's argument handling and command execution,
//! factored out of `main` for testability. One static table ([`FLAGS`])
//! says which flag belongs to which subcommand and what it accepts;
//! argument validation, [`build_sim_spec`] and [`usage`] all read it.

use crate::{systolize_source, PlaceChoice, SystolizeOptions};
use systolic_interp::{
    simulate, simulate_verified, BatchMode, ElabOptions, ModuleStore, OptReport, Problem, SimSpec,
};
use systolic_runtime::Json;

/// Parsed command-line invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invocation {
    pub command: String,
    pub file: String,
    pub flags: Vec<(String, String)>,
}

/// The subcommands: name, positional argument, one-line help.
const COMMANDS: &[(&str, &str, &str)] = &[
    ("compile", "<file>", "print the derived distributed program"),
    (
        "run",
        "<file>",
        "simulate at --sizes and compare with the sequential result",
    ),
    ("verify", "<file>", "same as run"),
    (
        "describe",
        "<file>",
        "process layout and network map at --sizes",
    ),
    (
        "explore",
        "<file>",
        "design-space table; with --schedules, adversarial schedule exploration; \
         with --sweep-sizes, a size sweep",
    ),
    (
        "replay",
        "",
        "replay the systolic-schedule-v1 counterexample named by --schedule",
    ),
    (
        "serve",
        "",
        "run the HTTP simulation service (docs/service.md)",
    ),
];

/// What a flag's value may be.
enum Accepts {
    /// One of a closed, `|`-separated set; where the flag has a default
    /// it is the first.
    OneOf(&'static str),
    /// Free-form, checked by the command; the string is the placeholder.
    Any(&'static str),
}
use Accepts::{Any, OneOf};

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// The subcommands that take it.
    commands: &'static [&'static str],
    accepts: Accepts,
    help: &'static str,
}

const FRONT_END: &[&str] = &["compile", "run", "verify", "describe", "explore"];
const SEEDED: &[&str] = &["compile", "run", "verify", "explore"];
/// The commands that simulate, and so take the engine and protocol
/// flags. (`explore` runs too, but always on the plain engine: schedule
/// policies and the round recorder close the fast-path gate.)
const RUNS: &[&str] = &["run", "verify"];
const EXPLORE: &[&str] = &["explore"];
const SERVE: &[&str] = &["serve"];

const FLAGS: &[Flag] = &[
    Flag {
        name: "place",
        commands: FRONT_END,
        accepts: Any("auto|proj:C,C,.."),
        help: "search, or project along a direction",
    },
    Flag {
        name: "bound",
        commands: FRONT_END,
        accepts: Any("B"),
        help: "coefficient bound of the schedule search (default 2)",
    },
    Flag {
        name: "sample",
        commands: FRONT_END,
        accepts: Any("N"),
        help: "sample size for validation and schedule ranking",
    },
    Flag {
        name: "emit",
        commands: &["compile"],
        accepts: OneOf("paper|occam|c|report|rust"),
        help: "notation; rust needs --sizes",
    },
    Flag {
        name: "sizes",
        commands: FRONT_END,
        accepts: Any("N[,M..]"),
        help: "problem sizes >= 0, one per size parameter, in declaration order",
    },
    Flag {
        name: "seed",
        commands: SEEDED,
        accepts: Any("S"),
        help: "seed of the input data, a non-negative integer (default 42)",
    },
    Flag {
        name: "protocol",
        commands: RUNS,
        accepts: OneOf("paper|split"),
        help: "the paper's phases, or split propagation",
    },
    Flag {
        name: "merge-io",
        commands: RUNS,
        accepts: OneOf("no|yes"),
        help: "merge each stream's host i/o processes into one",
    },
    Flag {
        name: "batch",
        commands: RUNS,
        accepts: OneOf("auto|off"),
        help: "the fast path: the wavefront executor (docs/wavefront.md)",
    },
    Flag {
        name: "opt-report",
        commands: RUNS,
        accepts: Any("PATH"),
        help: "write the systolic-opt-v1 optimizer report",
    },
    Flag {
        name: "metrics",
        commands: RUNS,
        accepts: Any("PATH"),
        help: "write a systolic-metrics-v1 report",
    },
    Flag {
        name: "trace-out",
        commands: RUNS,
        accepts: Any("PATH"),
        help: "write a Chrome trace_event file (ui.perfetto.dev)",
    },
    Flag {
        name: "schedules",
        commands: EXPLORE,
        accepts: Any("N"),
        help: "N seeds x 3 adversarial schedules (docs/testing.md)",
    },
    Flag {
        name: "out",
        commands: EXPLORE,
        accepts: Any("PATH"),
        help: "counterexample file (default counterexample.json)",
    },
    Flag {
        name: "sweep-sizes",
        commands: EXPLORE,
        accepts: Any("LO:HI"),
        help: "run every size in the range off one skeleton",
    },
    Flag {
        name: "schedule",
        commands: &["replay"],
        accepts: Any("FILE"),
        help: "the systolic-schedule-v1 file to replay",
    },
    Flag {
        name: "addr",
        commands: SERVE,
        accepts: Any("HOST:PORT"),
        help: "listen address (default 127.0.0.1:8077)",
    },
    Flag {
        name: "workers",
        commands: SERVE,
        accepts: Any("N"),
        help: "simulation worker threads",
    },
    Flag {
        name: "queue-cap",
        commands: SERVE,
        accepts: Any("N"),
        help: "backpressure queue depth",
    },
    Flag {
        name: "max-size",
        commands: SERVE,
        accepts: Any("N"),
        help: "largest accepted problem size",
    },
    Flag {
        name: "deadline-ms",
        commands: SERVE,
        accepts: Any("MS"),
        help: "default request deadline",
    },
];

impl Flag {
    /// `--name VALUES`, as usage and error messages print it.
    fn synopsis(&self) -> String {
        let (OneOf(values) | Any(values)) = self.accepts;
        format!("--{} {values}", self.name)
    }

    /// A closed set must hold `value`; free-form values are checked by
    /// the command.
    fn check(&self, value: &str) -> Result<(), String> {
        match self.accepts {
            OneOf(values) if !values.split('|').any(|v| v == value) => Err(format!(
                "bad --{} value {value} (accepted: {values})",
                self.name
            )),
            _ => Ok(()),
        }
    }
}

/// The usage text: every subcommand and every row of the flag table.
pub fn usage() -> String {
    use std::fmt::Write as _;
    let mut out =
        String::from("usage: systolizer <command> [<file>] [--flag VALUE]...\n\ncommands:\n");
    for (name, positional, help) in COMMANDS {
        let _ = writeln!(out, "  {:<16} {help}", format!("{name} {positional}"));
    }
    out.push_str("\nflags (and the commands that take them):\n");
    for f in FLAGS {
        let on = f.commands.join(" ");
        let _ = writeln!(out, "  {:<34} {} [{on}]", f.synopsis(), f.help);
    }
    out
}

/// The flags `command` takes, for error messages.
fn flags_of(command: &str) -> String {
    FLAGS
        .iter()
        .filter(|f| f.commands.contains(&command))
        .map(|f| format!("--{}", f.name))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parse and validate raw arguments (after the binary name) against
/// [`COMMANDS`] and [`FLAGS`]. The error names the offending command,
/// flag or value and lists what is accepted. `replay` takes no
/// positional: its `--schedule` value *is* the file to read. `serve`
/// takes no file at all — the service compiles programs sent over the
/// wire.
pub fn parse_args(raw: &[String]) -> Result<Invocation, String> {
    let mut it = raw.iter();
    let command = it.next().ok_or("no command given")?.clone();
    let positional = COMMANDS
        .iter()
        .find(|c| c.0 == command)
        .map(|c| c.1)
        .ok_or_else(|| {
            let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
            format!("unknown command {command} (commands: {})", names.join(" "))
        })?;
    let mut file = None;
    let mut flags = Vec::new();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            if positional.is_empty() || file.is_some() {
                return Err(format!("unexpected argument {a}"));
            }
            file = Some(a.clone());
            continue;
        };
        let flag = FLAGS.iter().find(|f| f.name == name).ok_or_else(|| {
            format!(
                "unknown flag --{name} ({command} takes: {})",
                flags_of(&command)
            )
        })?;
        if !flag.commands.contains(&command.as_str()) {
            return Err(format!(
                "--{name} belongs to {}, not to {command} ({command} takes: {})",
                flag.commands.join("/"),
                flags_of(&command)
            ));
        }
        if flags.iter().any(|(given, _)| given == name) {
            return Err(format!("--{name} given twice"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{} needs its value", flag.synopsis()))?;
        flag.check(value)?;
        flags.push((name.to_string(), value.clone()));
    }
    let mut inv = Invocation {
        command,
        file: String::new(),
        flags,
    };
    inv.file = match (inv.command.as_str(), file) {
        (_, Some(f)) => f,
        ("replay", None) => inv
            .flag("schedule")
            .ok_or("replay needs --schedule FILE")?
            .to_string(),
        ("serve", None) => String::new(),
        (c, None) => return Err(format!("{c} needs a <file>")),
    };
    Ok(inv)
}

impl Invocation {
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// A gate flag's value, looked up in the name table that lives
    /// beside the gate (default first).
    fn gate<T: Copy>(&self, name: &str, names: &[(&str, T)]) -> Result<T, String> {
        let value = self.flag(name).unwrap_or(names[0].0);
        let found = names.iter().find(|n| n.0 == value);
        found.map(|n| n.1).ok_or_else(|| {
            let names: Vec<&str> = names.iter().map(|n| n.0).collect();
            self.bad(name, &format!("accepted: {}", names.join("|")))
        })
    }

    /// The error for a flag value the command cannot take: never a
    /// silent default.
    fn bad(&self, name: &str, what: &str) -> String {
        let value = self.flag(name).unwrap_or_default();
        format!("bad --{name} value {value} ({what})")
    }

    /// A numeric flag, at least `min` (0 or 1); `None` when absent.
    fn number<T: TryFrom<u64>>(&self, name: &str, min: u64) -> Result<Option<T>, String> {
        let what = if min == 0 { "non-negative" } else { "positive" };
        let read = |value: &str| {
            let parsed = value.parse::<u64>().ok().filter(|&n| n >= min);
            let fits = parsed.and_then(|n| T::try_from(n).ok());
            fits.ok_or_else(|| self.bad(name, &format!("a {what} integer")))
        };
        self.flag(name).map(read).transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.number("seed", 0)?.unwrap_or(DEFAULT_SEED))
    }

    /// `--sizes`, parsed; `None` when absent. Whether the list makes a
    /// problem for the program is [`Problem`]'s to say.
    fn sizes(&self) -> Result<Option<Vec<i64>>, String> {
        let read = |spec| parse_sizes(spec).ok_or_else(|| self.bad("sizes", "N[,M..]"));
        self.flag("sizes").map(read).transpose()
    }
}

/// The `--seed` of an invocation that names none.
const DEFAULT_SEED: u64 = 42;

/// Parse `N[,M..]` size lists.
pub fn parse_sizes(spec: &str) -> Option<Vec<i64>> {
    spec.split(',').map(|p| p.trim().parse().ok()).collect()
}

/// Build pipeline options from flags.
pub fn build_options(inv: &Invocation) -> Result<SystolizeOptions, String> {
    let mut opts = SystolizeOptions::default();
    let projection = |spec| parse_sizes(spec).map(PlaceChoice::Projection);
    opts.place = match inv.flag("place") {
        None | Some("auto") => PlaceChoice::Auto,
        Some(p) => (p.strip_prefix("proj:").and_then(projection))
            .ok_or_else(|| inv.bad("place", "auto|proj:C,C,.."))?,
    };
    opts.step_bound = inv.number("bound", 0)?.unwrap_or(opts.step_bound);
    opts.sample_size = inv.number("sample", 0)?.unwrap_or(opts.sample_size);
    Ok(opts)
}

/// The simulation spec of a `run`/`verify` invocation: the engine gate
/// (`--batch`, default `auto`), named by its enum's own table, and the
/// protocol variant (`--protocol`, `--merge-io`).
pub fn build_sim_spec(inv: &Invocation) -> Result<SimSpec, String> {
    Ok(SimSpec {
        batch: inv.gate("batch", BatchMode::NAMES)?,
        elab: ElabOptions {
            split_propagation: inv.flag("protocol") == Some("split"),
            merge_io: inv.flag("merge-io") == Some("yes"),
            ..ElabOptions::default()
        },
        ..SimSpec::default()
    })
}

/// Execute an invocation; returns the text to print, or an error message.
pub fn execute(inv: &Invocation, src: &str) -> Result<String, String> {
    match inv.command.as_str() {
        "compile" => {
            let sys = systolize_source(src, &build_options(inv)?).map_err(|e| e.to_string())?;
            let emit = inv.flag("emit").unwrap_or("paper");
            match emit {
                "paper" => Ok(sys.paper_code()),
                "occam" => Ok(sys.occam_code()),
                "c" => Ok(sys.c_code()),
                "report" => Ok(sys.report()),
                "rust" => {
                    // The runnable back end is concrete: it needs a size.
                    let sizes = inv.sizes()?.ok_or("--emit rust requires --sizes N[,M..]")?;
                    let env = sys.size_env(&sizes).map_err(|e| e.to_string())?;
                    let seed = inv.seed()?;
                    Ok(systolic_interp::rustgen::generate_rust(
                        &sys.plan, &env, seed,
                    ))
                }
                other => Err(format!("unknown --emit {other}")),
            }
        }
        "run" | "verify" => {
            let opts = build_options(inv)?;
            let spec = build_sim_spec(inv)?;
            let elab = spec.elab.clone();
            let sizes = inv.sizes()?.ok_or("--sizes N[,M..] is required")?;
            let seed = inv.seed()?;
            let sys = systolize_source(src, &opts).map_err(|e| e.to_string())?;
            let Problem { env, store } =
                Problem::seeded(&sys.plan, &sizes, &sys.source.variable_names(), seed)
                    .map_err(|e| e.to_string())?;
            let ms = ModuleStore::global();
            let run = simulate_verified(ms, &sys.plan, &env, &store, spec)
                .map_err(|e| format!("FAILED: {e}"))?;
            // Kernels only show in the marker when they actually fused
            // waves — compiled-but-idle (E.2's cycle) stays silent.
            let kerneled = run.kernel.as_ref().is_some_and(|k| k.waves_fused > 0);
            let mut out = format!(
                "OK: {} processes, {} scheduler rounds, {} logical messages, {} steps{}; \
                 systolic result == sequential result",
                run.stats.processes,
                run.stats.rounds,
                run.stats.messages,
                run.stats.steps,
                match (run.wavefront, kerneled, &run.opt) {
                    (true, true, Some(_)) => " [wavefront+kernels+optimized]",
                    (true, true, None) => " [wavefront+kernels]",
                    (true, false, Some(_)) => " [wavefront+optimized]",
                    (true, false, None) => " [wavefront]",
                    (false, ..) => "",
                }
            );
            if let Some(report) = &run.opt {
                out.push_str(&format!("\noptimizer: {}", report.summary()));
            }
            if let Some(path) = inv.flag("opt-report") {
                // The optimizer's document (its schema id alone when it
                // left the module untouched), plus the wavefront staging
                // facts of the module it returned: the fast plan, as in
                // the metrics document.
                let cm = ms
                    .module(&sys.plan, &env, &store, &elab)
                    .map_err(|e| e.to_string())?;
                let mut doc = match cm.fast_plan().opt_report() {
                    Some(r) => r.json(),
                    None => Json::obj([("schema", OptReport::SCHEMA.into())]),
                };
                doc.push("wavefront", cm.wavefront_json());
                std::fs::write(path, doc.pretty())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                out.push_str(&format!("\noptimizer report: {path}"));
            }
            // Observability artifacts: re-run the same seeded problem
            // with recorders attached and write the requested files.
            if inv.flag("metrics").is_some() || inv.flag("trace-out").is_some() {
                let spec = SimSpec {
                    elab,
                    ..SimSpec::default()
                };
                let obs = systolic_interp::observe_plan_in(ms, &sys.plan, &env, &store, spec)
                    .map_err(|e| format!("FAILED: {e}"))?;
                if let Some(path) = inv.flag("metrics") {
                    std::fs::write(path, obs.metrics_json())
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    out.push_str(&format!("\nmetrics report: {path}"));
                }
                if let Some(path) = inv.flag("trace-out") {
                    std::fs::write(path, &obs.perfetto_json)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    out.push_str(&format!(
                        "\nperfetto trace: {path} (open in ui.perfetto.dev)"
                    ));
                }
            }
            Ok(out)
        }
        "describe" => {
            let opts = build_options(inv)?;
            let sizes = inv.sizes()?.ok_or("--sizes N[,M..] is required")?;
            let sys = systolize_source(src, &opts).map_err(|e| e.to_string())?;
            let env = sys.size_env(&sizes).map_err(|e| e.to_string())?;
            let mut out = systolic_core::report::render_layout(&sys.plan, &env);
            out.push('\n');
            out.push_str(&systolic_interp::describe(&sys.plan, &env));
            Ok(out)
        }
        "explore" => {
            // With --schedules N this is deterministic schedule
            // exploration (DST) of the compiled program; without it, the
            // historical design-space exploration.
            if let Some(n) = inv.number("schedules", 0)? {
                return explore_schedules(inv, src, n);
            }
            if let Some(spec) = inv.flag("sweep-sizes") {
                return explore_sweep(inv, src, spec);
            }
            let bound = inv.number("bound", 0)?.unwrap_or(2);
            let sample = inv.number("sample", 0)?.unwrap_or(6);
            let program = systolic_lang::parse(src).map_err(|e| e.to_string())?;
            let designs = systolic_synthesis::explore(&program, bound, sample);
            Ok(systolic_synthesis::explore::render_table(
                &program, &designs, 20,
            ))
        }
        "replay" => {
            // `src` is the schedule file itself (parse_args routed the
            // --schedule value into `inv.file`).
            let file = systolic_sim::ScheduleFile::from_json(src)?;
            let subject = systolic_sim::subject_of(&file, ModuleStore::global())
                .map_err(|e| e.to_string())?;
            let report = systolic_sim::replay(subject.as_ref(), &file)?;
            if report.reproduced {
                Ok(format!(
                    "REPRODUCED: design {} diverges from the FIFO baseline after replaying \
                     {} recorded round(s)\n{}",
                    file.design,
                    report.rounds_replayed,
                    report.reason.unwrap_or_default()
                ))
            } else {
                Ok(format!(
                    "did not reproduce: design {} matched the FIFO baseline under the \
                     recorded schedule ({} round(s))",
                    file.design, report.rounds_replayed
                ))
            }
        }
        other => Err(format!("unknown command {other}")),
    }
}

/// DST mode of `explore`: sweep the adversary-policy seed matrix over
/// the compiled source program; on divergence, write the shrunk
/// counterexample schedule to `--out` (default `counterexample.json`).
fn explore_schedules(inv: &Invocation, src: &str, n_seeds: u64) -> Result<String, String> {
    let opts = build_options(inv)?;
    let sizes = inv
        .sizes()?
        .ok_or("--sizes N[,M..] is required with --schedules")?;
    let stub = systolic_sim::ScheduleFile::stub("source", Some(src.into()), &sizes, inv.seed()?);
    let sys = systolize_source(src, &opts).map_err(|e| e.to_string())?;
    let ms = ModuleStore::global();
    let subject =
        systolic_sim::PlanSubject::from_plan(stub, &sys.plan, &sys.source.variable_names(), ms)
            .map_err(|e| e.to_string())?;
    let cfg = systolic_sim::ExploreConfig::matrix(n_seeds);
    let report = systolic_sim::explore(&subject, &cfg)?;
    match report.counterexample {
        None => Ok(format!(
            "schedule-independent: {} adversarial schedules ({} policies x {} seeds) \
             all matched the FIFO baseline",
            report.runs,
            cfg.policies.len(),
            cfg.seeds.len()
        )),
        Some(ce) => {
            let path = inv.flag("out").unwrap_or("counterexample.json");
            std::fs::write(path, ce.schedule.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            Err(format!(
                "SCHEDULE DEPENDENCE under {}:{} — {}\nshrunk to {} of {} recorded round(s); \
                 replay with: systolic replay --schedule {path}",
                ce.policy,
                ce.seed,
                ce.reason,
                ce.schedule.log.rounds.len(),
                ce.full_rounds
            ))
        }
    }
}

/// Size-sweep mode of `explore`: run the compiled program at every size
/// in `LO:HI` through the module store — the skeleton compiles once,
/// each size pays only instantiation — and attribute wall time to
/// elaboration vs simulation per size. The sweep demonstrates the
/// two-phase elaborator's contract: across a whole size range the
/// elaboration column stays a small fraction of the simulation column.
/// Every size's store is compared with the sequential result, outside
/// both timed columns.
fn explore_sweep(inv: &Invocation, src: &str, spec: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    use std::time::Instant;
    let bad = "--sweep-sizes needs LO:HI with 1 <= LO <= HI";
    let (lo, hi) = spec.split_once(':').ok_or(bad)?;
    let lo: i64 = lo.trim().parse().map_err(|_| bad)?;
    let hi: i64 = hi.trim().parse().map_err(|_| bad)?;
    if lo < 1 || hi < lo {
        return Err(bad.into());
    }
    let (opts, seed) = (build_options(inv)?, inv.seed()?);
    let sys = systolize_source(src, &opts).map_err(|e| e.to_string())?;
    if sys.source.sizes.len() != 1 {
        return Err("--sweep-sizes sweeps a single size parameter".into());
    }
    // The largest size is refused before the smallest is run.
    sys.size_env(&[hi]).map_err(|e| e.to_string())?;
    let inputs = sys.source.variable_names();
    let ms = ModuleStore::global();
    let before = ms.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "size sweep {lo}..{hi}: one skeleton, per-size instantiation"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>10} {:>12}",
        "n", "elab_us", "sim_us", "rounds", "messages"
    );
    let (mut elab_total, mut sim_total) = (0u128, 0u128);
    for n in lo..=hi {
        let Problem { env, store } =
            Problem::seeded(&sys.plan, &[n], &inputs, seed).map_err(|e| e.to_string())?;
        let t = Instant::now();
        ms.module(&sys.plan, &env, &store, &ElabOptions::default())
            .map_err(|e| format!("n={n}: {e}"))?;
        let elab_us = t.elapsed().as_micros();
        let t = Instant::now();
        let run = simulate(ms, &sys.plan, &env, &store, SimSpec::plain())
            .map_err(|e| format!("n={n}: {e}"))?;
        let sim_us = t.elapsed().as_micros();
        let mut expected = store;
        systolic_ir::seq::run(&sys.source, &env, &mut expected);
        if run.store != expected {
            return Err(format!("n={n}: differs from the sequential result"));
        }
        elab_total += elab_us;
        sim_total += sim_us;
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>12} {:>10} {:>12}",
            n, elab_us, sim_us, run.stats.rounds, run.stats.messages
        );
    }
    let after = ms.stats();
    let skeleton_builds = after.skeleton_misses - before.skeleton_misses;
    let sizes = (hi - lo + 1) as u128;
    let pct = (sim_total * 100)
        .checked_div(elab_total + sim_total)
        .unwrap_or(100);
    let _ = writeln!(
        out,
        "totals: {sizes} sizes, {skeleton_builds} skeleton build(s), \
         elaboration {elab_total}us, simulation {sim_total}us ({pct}% simulation), \
         {sizes} of {sizes} sizes verified"
    );
    let _ = writeln!(out, "cache: {}", after.json());
    Ok(out)
}

/// Build the service configuration for `serve` from flags:
/// `--workers N`, `--queue-cap N`, `--max-size N`, `--deadline-ms MS`,
/// each a positive integer.
pub fn build_service_config(inv: &Invocation) -> Result<systolic_service::ServiceConfig, String> {
    let mut cfg = systolic_service::ServiceConfig::default();
    cfg.workers = inv.number("workers", 1)?.unwrap_or(cfg.workers);
    cfg.queue_cap = inv.number("queue-cap", 1)?.unwrap_or(cfg.queue_cap);
    cfg.max_size = inv.number("max-size", 1)?.unwrap_or(cfg.max_size);
    cfg.default_deadline_ms = inv
        .number("deadline-ms", 1)?
        .unwrap_or(cfg.default_deadline_ms);
    Ok(cfg)
}

/// Boot the simulation service (`serve` command): bind `--addr`
/// (default `127.0.0.1:8077`), print the bound address, return the
/// running server. `main` blocks on the handle; tests shut it down.
pub fn start_service(
    inv: &Invocation,
) -> Result<
    (
        std::sync::Arc<systolic_service::Service>,
        systolic_service::http::ServerHandle,
    ),
    String,
> {
    let cfg = build_service_config(inv)?;
    let addr = inv.flag("addr").unwrap_or("127.0.0.1:8077");
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let service = systolic_service::Service::new(cfg);
    let handle = systolic_service::http::serve(std::sync::Arc::clone(&service), listener)
        .map_err(|e| format!("cannot serve: {e}"))?;
    Ok((service, handle))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
        program p;
        size n;
        var a[0..n], b[0..n], c[0..2*n];
        for i = 0 <- 1 -> n
        for j = 0 <- 1 -> n {
          c[i+j] = c[i+j] + a[i] * b[j];
        }
    ";

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let inv = parse_args(&args(&["verify", "f.sys", "--sizes", "4", "--seed", "9"])).unwrap();
        assert_eq!(inv.command, "verify");
        assert_eq!(inv.file, "f.sys");
        assert_eq!(inv.flag("sizes"), Some("4"));
        assert_eq!(inv.flag("seed"), Some("9"));
        assert_eq!(inv.flag("nope"), None);
    }

    #[test]
    fn rejects_malformed_args() {
        let err = |raw: &[&str]| parse_args(&args(raw)).unwrap_err();
        assert!(err(&["compile"]).contains("<file>"), "missing file");
        assert!(err(&["compile", "f", "--emit"]).contains("--emit paper|"));
        assert!(err(&["compile", "f", "g"]).contains("unexpected argument g"));
        assert!(err(&["nonsense", "f"]).contains("unknown command nonsense"));
    }

    #[test]
    fn flags_are_checked_against_the_table() {
        let err = |raw: &[&str]| parse_args(&args(raw)).unwrap_err();
        // A typo is an error that lists what the command takes.
        let e = err(&["run", "f", "--sizes", "8", "--bacth", "off"]);
        assert!(
            e.contains("unknown flag --bacth") && e.contains("--batch"),
            "{e}"
        );
        // A flag on the wrong subcommand says where it belongs.
        let e = err(&["compile", "f", "--batch", "off"]);
        assert!(e.contains("--batch belongs to run/verify"), "{e}");
        // `explore` always runs the plain engine, so it takes no engine
        // flag.
        let e = err(&["explore", "f", "--batch", "off"]);
        assert!(e.contains("--batch belongs to "), "{e}");
        assert!(e.contains("not to explore"), "{e}");
        // A bad value names the flag and the accepted set.
        for (flag, accepted) in [("batch", "auto|off"), ("protocol", "paper|split")] {
            let e = err(&["verify", "f", &format!("--{flag}"), "bogus"]);
            assert!(e.contains(&format!("bad --{flag} value bogus")), "{e}");
            assert!(e.contains(accepted), "{e}");
        }
        // The wavefront executor is the fast path and the optimizer always
        // runs on it, not knobs (docs/wavefront.md, docs/process-ir.md):
        // their old flags are unknown flags, on every command.
        let e = err(&["run", "f", "--sizes", "6", "--wavefront", "off"]);
        assert!(
            e.starts_with("unknown flag --wavefront (run takes: "),
            "{e}"
        );
        let e = err(&["verify", "f", "--sizes", "6", "--opt", "off"]);
        assert!(e.starts_with("unknown flag --opt (verify takes: "), "{e}");
        let e = err(&["compile", "f", "--emit", "rust", "--opt", "auto"]);
        assert!(e.starts_with("unknown flag --opt (compile takes: "), "{e}");
        // A repeated flag is refused, not resolved to either occurrence,
        // and before its second value is looked at.
        assert_eq!(
            err(&["run", "f", "--sizes", "4", "--sizes", "8"]),
            "--sizes given twice"
        );
        assert_eq!(
            err(&["run", "f", "--seed", "1", "--seed", "banana"]),
            "--seed given twice"
        );
        // The usage text is the table: every flag appears in it.
        let text = usage();
        for f in FLAGS {
            assert!(
                text.contains(&f.synopsis()),
                "{} missing from usage",
                f.name
            );
        }
    }

    #[test]
    fn sizes_parsing() {
        assert_eq!(parse_sizes("4"), Some(vec![4]));
        assert_eq!(parse_sizes("4, 7"), Some(vec![4, 7]));
        assert_eq!(parse_sizes("x"), None);
    }

    #[test]
    fn protocol_flags() {
        let inv = parse_args(&args(&[
            "verify",
            "f",
            "--sizes",
            "3",
            "--protocol",
            "split",
            "--merge-io",
            "yes",
        ]))
        .unwrap();
        let elab = build_sim_spec(&inv).unwrap().elab;
        assert!(elab.split_propagation);
        assert!(elab.merge_io);
    }

    #[test]
    fn execute_verify_with_split_protocol() {
        let inv = parse_args(&args(&[
            "verify",
            "f",
            "--sizes",
            "4",
            "--protocol",
            "split",
        ]))
        .unwrap();
        let out = execute(&inv, SRC).unwrap();
        assert!(out.contains("OK:"), "{out}");
    }

    #[test]
    fn emit_rust_requires_sizes_and_generates_main() {
        let inv = parse_args(&args(&["compile", "f", "--emit", "rust"])).unwrap();
        assert!(execute(&inv, SRC).is_err(), "sizes required");
        let inv = parse_args(&args(&["compile", "f", "--emit", "rust", "--sizes", "3"])).unwrap();
        let out = execute(&inv, SRC).unwrap();
        assert!(out.contains("fn main()"));
        assert!(out.contains("sync_channel"));
    }

    #[test]
    fn execute_compile_and_explore() {
        let inv = parse_args(&args(&["compile", "f", "--emit", "occam"])).unwrap();
        assert!(execute(&inv, SRC).unwrap().contains("PAR"));
        let inv = parse_args(&args(&["explore", "f", "--bound", "2", "--sample", "4"])).unwrap();
        assert!(execute(&inv, SRC).unwrap().contains("makespan"));
    }

    /// The integer printed just before `what` in `out`.
    fn count(out: &str, what: &str) -> u64 {
        let head = &out[..out.find(what).unwrap_or_else(|| panic!("{what}: {out}"))];
        head.trim_end().rsplit(' ').next().unwrap().parse().unwrap()
    }

    #[test]
    fn batch_flag_gates_the_fast_path() {
        let inv = parse_args(&args(&["verify", "f", "--sizes", "4"])).unwrap();
        let auto = execute(&inv, SRC).unwrap();
        assert!(auto.contains(" [wavefront"), "{auto}");
        let inv = parse_args(&args(&["verify", "f", "--sizes", "4", "--batch", "off"])).unwrap();
        let off = execute(&inv, SRC).unwrap();
        assert!(!off.contains(" ["), "the plain engine has no marker: {off}");
        assert!(
            !off.contains("optimizer"),
            "the optimizer rides the gate: {off}"
        );
        // The fast run executes the optimizer's module: one process fewer
        // per fused relay (the count law of `systolic_runtime::opt`).
        let fused = count(&auto, " relays fused");
        assert!(fused > 0, "{auto}");
        assert_eq!(
            count(&off, " processes"),
            count(&auto, " processes") + fused
        );
    }

    #[test]
    fn the_optimizer_always_runs_and_writes_its_report() {
        // This design has pure relay chains at n=4, so every default run
        // engages the optimizer; results stay verified.
        let report =
            std::env::temp_dir().join(format!("systolizer-opt-{}.json", std::process::id()));
        let inv = parse_args(&args(&[
            "verify",
            "f",
            "--sizes",
            "4",
            "--opt-report",
            report.to_str().unwrap(),
        ]))
        .unwrap();
        let auto = execute(&inv, SRC).unwrap();
        assert!(auto.contains("OK:"), "{auto}");
        assert!(auto.contains("+optimized]"), "{auto}");
        assert!(auto.contains("optimizer: "), "{auto}");
        assert!(auto.contains("optimizer report: "), "{auto}");
        let j = std::fs::read_to_string(&report).unwrap();
        assert!(j.contains("\"schema\": \"systolic-opt-v1\""), "{j}");
        // The wavefront staging facts ride along in the same document
        // (with per-channel ineligibility reasons when any exist).
        assert!(j.contains("\"wavefront\""), "{j}");
        assert!(j.contains("\"eligible\""), "{j}");
        assert!(j.contains("\"channels\""), "{j}");
        let _ = std::fs::remove_file(&report);
    }

    #[test]
    fn the_fast_path_is_the_wavefront_executor_without_a_flag_of_its_own() {
        // The default gate takes the wavefront rung over the optimizer's
        // module (the marker is pinned below). There is no rung between it
        // and the plain engine to ask for, and no other module for it to
        // run.
        for flag in ["--wavefront", "--opt"] {
            let e = parse_args(&args(&["verify", "f", flag, "off"])).unwrap_err();
            assert!(e.starts_with(&format!("unknown flag {flag}")), "{e}");
        }
    }

    #[test]
    fn the_wave_kernels_run_without_a_flag_of_their_own() {
        // polyprod's unguarded `c := c + a*b` body compiles, the
        // wavefront chunks are eligible, and the marker names all three:
        // waves, kernels, the optimizer's module.
        let inv = parse_args(&args(&["verify", "f", "--sizes", "4"])).unwrap();
        let out = execute(&inv, SRC).unwrap();
        assert!(out.contains("[wavefront+kernels+optimized]"), "{out}");
        // Every eligible chunk takes the kernel path (docs/kernels.md, "Why
        // there is no `--kernel off`"): the old switch is an unknown flag.
        for command in ["run", "verify"] {
            let e = parse_args(&args(&[command, "f", "--sizes", "4", "--kernel", "off"]));
            let e = e.unwrap_err();
            let want = format!("unknown flag --kernel ({command} takes: ");
            assert!(e.starts_with(&want), "{e}");
        }
    }

    #[test]
    fn emit_rust_prints_the_module_a_run_executes() {
        let inv = parse_args(&args(&["compile", "f", "--emit", "rust", "--sizes", "4"])).unwrap();
        let out = execute(&inv, SRC).unwrap();
        assert!(out.contains("fn main()"));
        assert!(out.contains("//! Optimized:"), "relays should fuse at n=4");
    }

    #[test]
    fn execute_describe() {
        let inv = parse_args(&args(&["describe", "f", "--sizes", "3"])).unwrap();
        let out = execute(&inv, SRC).unwrap();
        assert!(out.contains("network map"), "{out}");
        assert!(out.contains("comp"), "{out}");
        assert!(out.contains("pipe @"), "{out}");
    }

    #[test]
    fn run_writes_metrics_and_trace_artifacts() {
        let dir = std::env::temp_dir();
        let metrics = dir.join(format!("systolizer-metrics-{}.json", std::process::id()));
        let trace = dir.join(format!("systolizer-trace-{}.json", std::process::id()));
        let inv = parse_args(&args(&[
            "run",
            "f",
            "--sizes",
            "4",
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&inv, SRC).unwrap();
        assert!(out.contains("OK:"), "{out}");
        assert!(out.contains("metrics report:"), "{out}");
        assert!(out.contains("perfetto trace:"), "{out}");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"schema\": \"systolic-metrics-v1\""));
        assert!(m.contains("\"makespan\""));
        assert!(m.contains("\"elab_cache\""), "{m}");
        assert!(m.contains("\"module_misses\""), "{m}");
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("\"traceEvents\""));
        assert!(t.contains("thread_name"));
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn unwritable_artifact_path_is_a_message_not_a_panic() {
        let inv = parse_args(&args(&[
            "run",
            "f",
            "--sizes",
            "3",
            "--metrics",
            "/nonexistent-dir/metrics.json",
        ]))
        .unwrap();
        let err = execute(&inv, SRC).unwrap_err();
        assert!(err.contains("cannot write"), "{err}");
    }

    #[test]
    fn replay_takes_its_file_from_the_schedule_flag() {
        let inv = parse_args(&args(&["replay", "--schedule", "ce.json"])).unwrap();
        assert_eq!(inv.command, "replay");
        assert_eq!(inv.file, "ce.json");
        assert_eq!(inv.flag("schedule"), Some("ce.json"));
    }

    #[test]
    fn explore_schedules_reports_schedule_independence() {
        let inv = parse_args(&args(&["explore", "f", "--schedules", "2", "--sizes", "3"])).unwrap();
        let out = execute(&inv, SRC).unwrap();
        assert!(out.contains("schedule-independent"), "{out}");
        assert!(out.contains("6 adversarial schedules"), "{out}");
    }

    #[test]
    fn explore_sweep_amortizes_the_skeleton_over_many_sizes() {
        let inv = parse_args(&args(&["explore", "f", "--sweep-sizes", "1:20"])).unwrap();
        let out = execute(&inv, SRC).unwrap();
        assert!(out.contains("size sweep 1..20"), "{out}");
        assert!(out.contains("20 sizes"), "{out}");
        assert!(out.contains("20 of 20 sizes verified"), "{out}");
        assert!(out.contains("skeleton build(s)"), "{out}");
        assert!(out.contains("\"module_hits\""), "{out}");
        // Every size appears as a row.
        for n in [1, 10, 20] {
            assert!(
                out.lines().any(|l| l.trim().starts_with(&format!("{n} "))),
                "missing row for n={n}: {out}"
            );
        }
    }

    #[test]
    fn explore_sweep_rejects_bad_ranges() {
        for bad in ["5", "0:4", "7:3", "a:b"] {
            let inv = parse_args(&args(&["explore", "f", "--sweep-sizes", bad])).unwrap();
            assert!(
                execute(&inv, SRC).unwrap_err().contains("--sweep-sizes"),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn explore_schedules_requires_sizes() {
        let inv = parse_args(&args(&["explore", "f", "--schedules", "2"])).unwrap();
        let err = execute(&inv, SRC).unwrap_err();
        assert!(err.contains("--sizes"), "{err}");
    }

    #[test]
    fn replay_reproduces_a_race_sink_counterexample_end_to_end() {
        // Full loop: explorer catches the seeded interleaving bug,
        // shrinks it, serializes it; the CLI replays the file and
        // reproduces the divergence.
        use crate::sim::{explore, ExploreConfig, RaceSubject};
        let subject = RaceSubject { k: 6 };
        let ce = explore(&subject, &ExploreConfig::matrix(4))
            .unwrap()
            .counterexample
            .expect("race-sink diverges");
        let text = ce.schedule.to_json();
        let inv = parse_args(&args(&["replay", "--schedule", "ce.json"])).unwrap();
        let out = execute(&inv, &text).unwrap();
        assert!(out.contains("REPRODUCED"), "{out}");
        assert!(out.contains("race-sink"), "{out}");
    }

    #[test]
    fn replay_of_an_empty_schedule_does_not_reproduce() {
        use crate::sim::{DstSubject, RaceSubject};
        let stub = RaceSubject { k: 4 }.schedule_stub();
        let inv = parse_args(&args(&["replay", "--schedule", "ce.json"])).unwrap();
        let out = execute(&inv, &stub.to_json()).unwrap();
        assert!(out.contains("did not reproduce"), "{out}");
    }

    #[test]
    fn replay_rejects_malformed_schedule_files() {
        let inv = parse_args(&args(&["replay", "--schedule", "ce.json"])).unwrap();
        assert!(execute(&inv, "{not json").is_err());
        assert!(execute(&inv, "{\"schema\":\"v0\"}").is_err());
    }

    #[test]
    fn execute_errors_are_messages_not_panics() {
        let err = |raw: &[&str]| execute(&parse_args(&args(raw)).unwrap(), SRC).unwrap_err();
        // Every command that binds sizes shares the one arity message.
        for command in [
            &["verify", "f"][..],
            &["describe", "f"],
            &["compile", "f", "--emit", "rust"],
            &["explore", "f", "--schedules", "1"],
        ] {
            let e = err(&[command, &["--sizes", "3,4"]].concat());
            assert!(e.contains("size parameter (n); 2 given"), "{e}");
        }
        assert!(parse_args(&args(&["compile", "f", "--emit", "brainfuck"])).is_err());
        // A value a flag cannot take is named with its flag, never
        // replaced by the default.
        for (flag, value, what) in [
            ("--seed", "abc", "a non-negative integer"),
            ("--seed", "-1", "a non-negative integer"),
            ("--bound", "x", "a non-negative integer"),
            ("--sample", "y", "a non-negative integer"),
            ("--place", "proj:a,b", "auto|proj:C,C,.."),
            ("--place", "nowhere", "auto|proj:C,C,.."),
        ] {
            let e = err(&["verify", "f", "--sizes", "4", flag, value]);
            assert_eq!(e, format!("bad {flag} value {value} ({what})"));
        }
        assert_eq!(
            err(&["verify", "f", "--sizes", "4,x"]),
            "bad --sizes value 4,x (N[,M..])"
        );
        let e = err(&["explore", "f", "--schedules", "many", "--sizes", "3"]);
        assert_eq!(e, "bad --schedules value many (a non-negative integer)");
        // Sizes that make no problem: negative, or past the budget —
        // refused before a store is allocated, on every command.
        let e = err(&["verify", "f", "--sizes", "-3"]);
        assert!(e.contains("non-negative (got -3)"), "{e}");
        for command in [
            &["run", "f", "--sizes", "3000000"][..],
            &["describe", "f", "--sizes", "3000000"],
            &["compile", "f", "--emit", "rust", "--sizes", "3000000"],
            &["explore", "f", "--schedules", "1", "--sizes", "3000000"],
            &["explore", "f", "--sweep-sizes", "1:3000000"],
        ] {
            let e = err(command);
            assert!(e.starts_with("problem too large: host-store words"), "{e}");
        }
    }

    #[test]
    fn gate_rows_of_the_flag_table_are_the_gates_own_names() {
        let names: Vec<&str> = BatchMode::NAMES.iter().map(|n| n.0).collect();
        let row = FLAGS.iter().find(|f| f.name == "batch").unwrap();
        let OneOf(values) = row.accepts else {
            panic!("--batch must be a closed set");
        };
        assert_eq!(values, names.join("|"), "--batch");
        // A hand-built invocation that skipped the table is still an
        // error, not an index out of range.
        let inv = Invocation {
            command: "run".into(),
            file: "f".into(),
            flags: vec![("batch".into(), "sideways".into())],
        };
        let err = build_sim_spec(&inv).err().unwrap();
        assert_eq!(err, "bad --batch value sideways (accepted: auto|off)");
    }

    #[test]
    fn serve_needs_no_file_and_builds_its_config_from_flags() {
        let inv = parse_args(&args(&["serve", "--workers", "3", "--queue-cap", "9"])).unwrap();
        assert_eq!(inv.command, "serve");
        assert_eq!(inv.file, "");
        let cfg = build_service_config(&inv).unwrap();
        assert_eq!((cfg.workers, cfg.queue_cap), (3, 9));
        // Junk values are a usage error, not a default.
        let inv = parse_args(&args(&["serve", "--workers", "zero"])).unwrap();
        let err = build_service_config(&inv).unwrap_err();
        assert_eq!(err, "bad --workers value zero (a positive integer)");
    }

    #[test]
    fn serve_boots_a_real_server_on_an_ephemeral_port() {
        use std::io::{Read as _, Write as _};
        let inv = parse_args(&args(&["serve", "--addr", "127.0.0.1:0", "--workers", "1"])).unwrap();
        let (_service, handle) = start_service(&inv).unwrap();
        let mut s = std::net::TcpStream::connect(handle.addr).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("200 OK"), "{resp}");
        assert!(resp.contains("{\"ok\":true}"), "{resp}");
        handle.shutdown();
    }
}
