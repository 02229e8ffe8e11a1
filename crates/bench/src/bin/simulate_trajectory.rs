//! The benchmark trajectory harness: runs the simulate suite (the four
//! appendix designs plus `programs/fir.sys`, at several problem sizes)
//! and appends a labeled snapshot to `BENCH_simulate.json` at the repo
//! root with wall-clock, rounds, messages, and steps per configuration.
//!
//! Each PR reruns this binary; the committed file accumulates one
//! snapshot per PR, so the simulator's performance trajectory is the
//! diff between adjacent snapshots (rounds/messages/steps must never
//! change — they are pinned by `tests/determinism.rs`):
//!
//! ```sh
//! cargo run --release -p systolic-bench --bin simulate_trajectory -- <label>
//! ```
//!
//! Wall-clock is the minimum over [`ITERS`] runs (the usual noise-robust
//! estimator); rounds/messages/steps are deterministic and identical
//! across runs.
//!
//! The timed runs go through `simulate` under an explicit FIFO
//! `SchedulePolicy`: since PR 5 the trajectory measures the steady-state
//! batching fast path (see `docs/scheduler.md`), and since PR 6 the
//! ProcIR optimizer rides along (`OptMode::Auto`, see
//! `docs/process-ir.md`) — relay chains fuse into delay rings, so the
//! timed module can be structurally smaller than the elaborated one.
//! The FIFO policy keeps guarding the schedule hook's
//! zero-cost-when-inert contract. Since PR 8 the timed pass additionally
//! takes the wavefront executor (see `docs/wavefront.md`): topologically
//! staged chunk sweeps over traffic-wide rings replace the pid-order
//! macro-sweep, and every timed run asserts the wavefront gate engaged.
//! Since PR 10 the timed pass runs with `KernelMode::Auto`: eligible
//! wavefront chunks execute through the compiled struct-of-arrays
//! kernel (see `docs/kernels.md`) instead of scalar macro-steps; stores
//! and logical counts stay invariant, only wall clock moves.
//! The *recorded* statistics stay those of the unbatched rendezvous
//! engine — an untimed baseline pass per configuration supplies them, so
//! snapshot rounds remain comparable across the whole trajectory — and
//! every timed pass is asserted to engage batching and recover a store
//! bit-identical to that baseline. When the optimizer left the module
//! untouched the logical `messages`/`steps` counts must also be
//! invariant; when it fused chains, the post-fusion counts are recorded
//! as `opt_*` fields beside the baseline ones, so the snapshot shows the
//! structural shrink as well as the speedup. A separate observed pass (outside the timing loop) contributes
//! the receiver-wait and messages-per-round histograms, and
//! double-checks that attaching recorders leaves rounds/messages/steps
//! untouched.
//!
//! Since PR 7 each entry also records `elab_cold_ms` (a full two-phase
//! elaboration — skeleton compile + instantiation — into a fresh module
//! store) and `elab_warm_ms` (the cached lookup every later run of the
//! same configuration pays); at the largest matmul size the warm path
//! must beat cold by 10x (see `docs/elaboration.md`). Both fields are
//! covered by the `--gate-pct` gate; prior snapshots without them are
//! skipped.
//!
//! Extra modes:
//!
//! - `--gate-pct P` (default 10): before appending, each configuration's
//!   new wall-clock is compared against the best prior snapshot; any
//!   configuration more than `P` percent slower fails the run (exit 1,
//!   nothing written). The gate is skipped when the file has no prior
//!   snapshots.
//! - `--quick`: CI smoke mode — one configuration (matmul E.1, n = 12),
//!   one baseline pass and one batched pass, assert the invariance
//!   contract, print, and exit without timing anything or touching
//!   `BENCH_simulate.json`.
//! - `--elab-smoke`: CI cache mode — cold/warm elaboration of matmul
//!   E.1/E.2 at n = 24, assert the 10x bar and that a warm module looked
//!   up with new data stays within 1.5x of the warm figure, and write
//!   the three measurements plus the module-store counters to
//!   `target/elab-cache-stats.json` (uploaded as a CI artifact). No
//!   touching `BENCH_simulate.json`.

use std::fmt::Write as _;
use std::time::Instant;
use systolic_core::{compile, Options};
use systolic_interp::{seeded_store, simulate, ElabOptions, ModuleStore, SimSpec, SystolicRun};
use systolic_ir::HostStore;
use systolic_math::Env;
use systolic_runtime::{
    shared, FifoPolicy, KernelMode, MetricsRecorder, OptMode, RunStats, WavefrontMode,
};
use systolic_synthesis::placement::paper;

const ITERS: usize = 25;

type DesignFn = fn() -> (
    systolic_ir::SourceProgram,
    systolic_synthesis::SystolicArray,
);

struct Entry {
    design: &'static str,
    n: i64,
    wall_ms: f64,
    /// Cold two-phase elaboration (skeleton compile + instantiation into
    /// an empty module store) and the warm lookup the executors pay on
    /// every later run of the same configuration (an Arc clone out of
    /// the store). Both are min-over-[`ITERS`] wall-clock.
    elab_cold_ms: f64,
    elab_warm_ms: f64,
    processes: usize,
    rounds: u64,
    messages: u64,
    steps: u64,
    /// Post-fusion stats and fused-relay count when the optimizer
    /// engaged (`None`: module left untouched, counts invariant).
    opt: Option<(RunStats, usize)>,
    /// (receiver wait in rounds, transfer count) — from the observed pass.
    wait_hist: Vec<(u64, u64)>,
    /// (messages in one round, round count) — the occupancy profile.
    msgs_per_round_hist: Vec<(u64, u64)>,
}

fn pairs_json(pairs: &[(u64, u64)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(a, b)| format!("[{a}, {b}]")).collect();
    format!("[{}]", body.join(", "))
}

/// One compiled configuration, ready to time.
struct Prepared {
    label: &'static str,
    n: i64,
    plan: systolic_core::SystolicProgram,
    env: Env,
    store: HostStore,
}

fn prepare(label: &'static str, mk: DesignFn, n: i64) -> Prepared {
    let (p, a) = mk();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    for &sz in &p.sizes {
        env.bind(sz, n);
    }
    let inputs: &[&str] = if p.name.starts_with("fir") {
        &["h", "x"]
    } else {
        &["a", "b"]
    };
    let store = seeded_store(&plan, &env, inputs, 1);
    Prepared {
        label,
        n,
        plan,
        env,
        store,
    }
}

/// The shipped program file, through the text front end: its long relay
/// pipes are the second chain-fusion witness beside matmul E.2.
fn fir_sys() -> (
    systolic_ir::SourceProgram,
    systolic_synthesis::SystolicArray,
) {
    let p = systolic_lang::parse(include_str!("../../../../programs/fir.sys")).unwrap();
    let a = systolic_synthesis::derive_array(&p, 2, 4).unwrap();
    (p, a)
}

/// The shipped polynomial-product file, through the text front end: the
/// Appendix D design as a *parsed* program rather than the in-crate
/// constructor, so the trajectory also covers the `.sys` path end to end.
fn polyprod_sys() -> (
    systolic_ir::SourceProgram,
    systolic_synthesis::SystolicArray,
) {
    let p = systolic_lang::parse(include_str!("../../../../programs/polyprod.sys")).unwrap();
    let a = systolic_synthesis::derive_array(&p, 2, 4).unwrap();
    (p, a)
}

/// The untimed unbatched baseline: supplies the snapshot statistics
/// (round counts comparable with every prior snapshot) and the reference
/// store for the invariance assertion.
fn baseline_run(c: &Prepared) -> (RunStats, HostStore) {
    let spec = SimSpec {
        sched: Some(Box::new(FifoPolicy)),
        ..SimSpec::plain()
    };
    let run = simulate(ModuleStore::global(), &c.plan, &c.env, &c.store, spec).unwrap();
    (run.stats, run.store)
}

/// One timed batched pass; asserts the fast path engaged and the store
/// matches the unbatched baseline bit for bit. With `OptMode::Off` (or
/// when the optimizer leaves the module untouched) the logical counts
/// must also be invariant; a fused run's stats legitimately describe
/// the smaller module and are returned for the snapshot's `opt_*`
/// fields.
fn timed_run(
    c: &Prepared,
    base: &(RunStats, HostStore),
    opt: OptMode,
    wavefront: WavefrontMode,
    kernel: KernelMode,
) -> (f64, SystolicRun) {
    let spec = SimSpec {
        opt,
        wavefront,
        kernel,
        sched: Some(Box::new(FifoPolicy)),
        ..SimSpec::default()
    };
    let t0 = Instant::now();
    let run = simulate(ModuleStore::global(), &c.plan, &c.env, &c.store, spec).unwrap();
    let dt = t0.elapsed().as_secs_f64() * 1e3;
    assert!(run.batched, "{} n={}: batching must engage", c.label, c.n);
    assert_eq!(
        run.wavefront,
        wavefront != WavefrontMode::Off,
        "{} n={}: the wavefront gate disagrees with the requested mode",
        c.label,
        c.n
    );
    if run.opt.is_none() {
        assert_eq!(
            (run.stats.messages, run.stats.steps, run.stats.processes),
            (base.0.messages, base.0.steps, base.0.processes),
            "{} n={}: batching changed the logical counts",
            c.label,
            c.n
        );
    }
    assert_eq!(
        run.store, base.1,
        "{} n={}: the fast path changed the result",
        c.label, c.n
    );
    (dt, run)
}

/// Cold vs warm elaboration wall-clock for one configuration. Cold pays
/// the full two-phase build — skeleton compile plus instantiation — into
/// a fresh [`ModuleStore`]; warm is the path every later run of the same
/// configuration takes: a keyed lookup returning the cached
/// `Arc<ProcIrModule>`. The third figure is that lookup made with a data
/// set the store has never seen: the key holds the store's shape, not
/// its values, so it must be a hit at the warm price. Min over `iters`
/// runs of each.
fn elab_times(c: &Prepared, iters: usize) -> (f64, f64, f64) {
    let opts = ElabOptions::default();
    let (mut cold, mut warm, mut new_data) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let some_array = c.store.names().next().expect("a design has arrays");
    for i in 0..iters {
        let mut unseen = c.store.clone();
        unseen.fill_random(some_array, 1000 + i as u64, -9, 9);
        let ms = ModuleStore::new();
        let timed = |store: &HostStore| {
            let t0 = Instant::now();
            ms.module(&c.plan, &c.env, store, &opts).unwrap();
            t0.elapsed().as_secs_f64() * 1e3
        };
        cold = cold.min(timed(&c.store));
        warm = warm.min(timed(&c.store));
        new_data = new_data.min(timed(&unseen));
        let s = ms.stats();
        assert_eq!(
            (s.module_misses, s.module_hits),
            (1, 2),
            "{} n={}: every lookup after the first must be a cache hit",
            c.label,
            c.n
        );
    }
    (cold, warm, new_data)
}

fn observed_entry(
    c: &Prepared,
    wall_ms: f64,
    elab: (f64, f64),
    stats: RunStats,
    opt: Option<(RunStats, usize)>,
) -> Entry {
    // Observed pass, outside the timing loop: histograms for the
    // snapshot, plus the invariance check.
    let (metrics, erased) = shared(MetricsRecorder::new());
    let spec = SimSpec {
        recorders: vec![erased],
        ..SimSpec::plain()
    };
    let observed = simulate(ModuleStore::global(), &c.plan, &c.env, &c.store, spec).unwrap();
    assert_eq!(
        observed.stats, stats,
        "recorders must not perturb rounds/messages/steps"
    );
    let report = metrics.lock().report();

    Entry {
        design: c.label,
        n: c.n,
        wall_ms,
        elab_cold_ms: elab.0,
        elab_warm_ms: elab.1,
        processes: stats.processes,
        rounds: stats.rounds,
        messages: stats.messages,
        steps: stats.steps,
        opt,
        wait_hist: report.wait_hist,
        msgs_per_round_hist: report.msgs_per_time_hist,
    }
}

/// Best prior timings per (design, n), parsed from the flat snapshot
/// JSON the harness itself writes (no serde in the workspace). The
/// elaboration fields only exist from the `pr7-symbolic-elab` snapshot
/// on; older lines simply contribute `None` and the gate skips them.
struct Prior {
    design: String,
    n: i64,
    wall_ms: f64,
    elab_cold_ms: Option<f64>,
    elab_warm_ms: Option<f64>,
}

fn prior_best(old: &str) -> Vec<Prior> {
    fn fold(slot: &mut Option<f64>, v: Option<f64>) {
        if let Some(v) = v {
            *slot = Some(slot.map_or(v, |w| w.min(v)));
        }
    }
    let mut best: Vec<Prior> = Vec::new();
    for line in old.lines() {
        let Some(d0) = line.find("\"design\": \"") else {
            continue;
        };
        let rest = &line[d0 + 11..];
        let Some(d1) = rest.find('"') else { continue };
        let design = rest[..d1].to_string();
        let field = |name: &str| -> Option<f64> {
            let i = line.find(name)? + name.len();
            let tail = &line[i..];
            let end = tail
                .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-'))
                .unwrap_or(tail.len());
            tail[..end].parse().ok()
        };
        let (Some(n), Some(wall)) = (field("\"n\": "), field("\"wall_ms\": ")) else {
            continue;
        };
        let n = n as i64;
        let (cold, warm) = (field("\"elab_cold_ms\": "), field("\"elab_warm_ms\": "));
        match best.iter_mut().find(|p| p.design == design && p.n == n) {
            Some(p) => {
                p.wall_ms = p.wall_ms.min(wall);
                fold(&mut p.elab_cold_ms, cold);
                fold(&mut p.elab_warm_ms, warm);
            }
            None => best.push(Prior {
                design,
                n,
                wall_ms: wall,
                elab_cold_ms: cold,
                elab_warm_ms: warm,
            }),
        }
    }
    best
}

/// CI smoke mode: one small configuration, the full invariance contract,
/// no timing assertions and no file writes.
fn quick_smoke() {
    let c = prepare("matmul-E.1", paper::matmul_e1, 12);
    let base = baseline_run(&c);
    // With the optimizer off the full invariance contract holds.
    let _ = timed_run(&c, &base, OptMode::Off, WavefrontMode::Off, KernelMode::Off);
    println!(
        "quick smoke OK: {} n={} — batched run matches the rendezvous \
         baseline ({} messages, {} steps, store bit-identical)",
        c.label, c.n, base.0.messages, base.0.steps
    );
    // The wavefront executor holds the same contract on both chunk
    // modes: stores bit-identical to the rendezvous baseline, logical
    // messages/steps invariant (asserted inside `timed_run`).
    for mode in [WavefrontMode::Auto, WavefrontMode::Par] {
        let (_, run) = timed_run(&c, &base, OptMode::Off, mode, KernelMode::Off);
        assert!(run.wavefront);
        println!(
            "quick smoke OK: {} n={} — wavefront run ({mode:?}) matches the \
             rendezvous baseline (store bit-identical, counts invariant)",
            c.label, c.n
        );
    }
    // The compiled-kernel gate (see `docs/kernels.md`): `--kernel auto`
    // must actually fuse waves on E.1, `--kernel off` must run the same
    // waves scalar — both bit-identical to the baseline (asserted inside
    // `timed_run`).
    for (mode, want_fused) in [(KernelMode::Auto, true), (KernelMode::Off, false)] {
        let (_, run) = timed_run(&c, &base, OptMode::Off, WavefrontMode::Auto, mode);
        let k = run.kernel.expect("wavefront runs carry a kernel report");
        assert_eq!(
            k.waves_fused > 0,
            want_fused,
            "{} n={}: kernel mode {mode:?} (report: {k:?})",
            c.label,
            c.n
        );
        println!(
            "quick smoke OK: {} n={} — kernel {} run matches the rendezvous \
             baseline ({} waves fused, {} kernel iterations)",
            c.label,
            c.n,
            if want_fused { "auto" } else { "off" },
            k.waves_fused,
            k.iterations
        );
    }
    // And with it on, E.2 fuses its relay chains, stays bit-identical,
    // and the systolic-opt-v1 mapping report round-trips through JSON.
    let c = prepare("matmul-E.2", paper::matmul_e2, 8);
    let base = baseline_run(&c);
    let (_, run) = timed_run(
        &c,
        &base,
        OptMode::Auto,
        WavefrontMode::Off,
        KernelMode::Off,
    );
    let report = run.opt.expect("E.2 n=8 must fuse relay chains");
    let j = report.to_json();
    assert!(j.contains("\"schema\": \"systolic-opt-v1\""), "{j}");
    let back = systolic_runtime::OptReport::from_json(&j).expect("parseable report");
    assert_eq!(back.to_json(), j, "mapping report must round-trip");
    println!(
        "quick smoke OK: {} n={} — optimizer fused {} relays \
         ({} -> {} processes), store bit-identical, report round-trips",
        c.label,
        c.n,
        report.fused_relays(),
        report.processes_before,
        report.processes_after
    );
}

/// CI cache mode: the acceptance measurement for two-phase elaboration,
/// plus a machine-readable artifact with the module-store counters.
fn elab_smoke() {
    let opts = ElabOptions::default();
    let mut measured = Vec::new();
    for (label, mk) in [
        ("matmul-E.1", paper::matmul_e1 as DesignFn),
        ("matmul-E.2", paper::matmul_e2 as DesignFn),
    ] {
        let c = prepare(label, mk, 24);
        let (cold, warm, new_data) = elab_times(&c, 20);
        assert!(
            cold >= 10.0 * warm,
            "{label} n=24: warm elaboration {warm:.4} ms is not 10x faster than cold {cold:.4} ms"
        );
        assert!(
            new_data <= 1.5 * warm,
            "{label} n=24: a warm module costs {new_data:.4} ms to look up with new data, \
             {warm:.4} ms with the data that built it"
        );
        println!(
            "elab smoke OK: {label} n=24 — cold {cold:.3} ms, warm {warm:.4} ms ({:.0}x), \
             warm module, new data {new_data:.4} ms",
            cold / warm
        );
        // Drive the *global* store too, so the artifact's counters show
        // the executors' shared cache at work (miss, then hits).
        for _ in 0..3 {
            ModuleStore::global()
                .module(&c.plan, &c.env, &c.store, &opts)
                .unwrap();
        }
        measured.push((label, cold, warm, new_data));
    }
    let mut body = String::from("{\n  \"schema\": \"systolic-elab-cache-v1\",\n  \"configs\": [\n");
    for (i, (label, cold, warm, new_data)) in measured.iter().enumerate() {
        let _ = writeln!(
            body,
            "    {{\"design\": \"{label}\", \"n\": 24, \"elab_cold_ms\": {cold:.4}, \
             \"elab_warm_ms\": {warm:.4}, \"elab_warm_new_data_ms\": {new_data:.4}}}{}",
            if i + 1 < measured.len() { "," } else { "" }
        );
    }
    let _ = writeln!(
        body,
        "  ],\n  \"cache\": {}\n}}",
        ModuleStore::global().stats().to_json()
    );
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(root).join("target/elab-cache-stats.json");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, body).expect("write elab-cache-stats.json");
    println!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--quick") {
        quick_smoke();
        return;
    }
    if args.iter().any(|a| a == "--elab-smoke") {
        elab_smoke();
        return;
    }
    let gate_pct: f64 = args
        .iter()
        .position(|a| a == "--gate-pct")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let mut label = String::from("current");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--gate-pct" => i += 2,
            a if a.starts_with("--") => i += 1,
            a => {
                label = a.to_string();
                break;
            }
        }
    }

    let suite: [(&'static str, DesignFn, &[i64]); 6] = [
        ("polyprod-D.1", paper::polyprod_d1, &[16, 32, 64]),
        ("polyprod-D.2", paper::polyprod_d2, &[16, 32, 64]),
        ("matmul-E.1", paper::matmul_e1, &[8, 16, 24]),
        ("matmul-E.2", paper::matmul_e2, &[8, 16, 24]),
        ("fir.sys", fir_sys, &[8, 16, 24]),
        ("polyprod.sys", polyprod_sys, &[16, 32, 64]),
    ];

    let configs: Vec<Prepared> = suite
        .iter()
        .flat_map(|&(label, mk, sizes)| sizes.iter().map(move |&n| prepare(label, mk, n)))
        .collect();

    let baselines: Vec<(RunStats, HostStore)> = configs.iter().map(baseline_run).collect();

    // Interleaved passes: visit every configuration once per pass rather
    // than running each one's iterations back to back, so a config's
    // minimum samples ITERS separate moments of the session instead of
    // one burst — a shared-machine noise spike then inflates a single
    // pass, not a whole configuration.
    let mut best = vec![f64::INFINITY; configs.len()];
    let mut opt_stats: Vec<Option<(RunStats, usize)>> = vec![None; configs.len()];
    for _ in 0..ITERS {
        for (i, c) in configs.iter().enumerate() {
            let (dt, run) = timed_run(
                c,
                &baselines[i],
                OptMode::Auto,
                WavefrontMode::Auto,
                KernelMode::Auto,
            );
            if dt < best[i] {
                best[i] = dt;
            }
            if opt_stats[i].is_none() {
                if let Some(r) = &run.opt {
                    opt_stats[i] = Some((run.stats.clone(), r.fused_relays()));
                }
            }
        }
    }

    let mut entries = Vec::new();
    for (i, (c, wall)) in configs.iter().zip(best).enumerate() {
        let (cold, warm, _) = elab_times(c, ITERS);
        let elab = (cold, warm);
        // The acceptance bar for the two-phase scheme: at the largest
        // matmul size a warm lookup beats a cold elaboration by 10x.
        if c.label.starts_with("matmul") && c.n == 24 {
            assert!(
                elab.0 >= 10.0 * elab.1,
                "{} n=24: warm elaboration {:.4} ms is not 10x faster than cold {:.4} ms",
                c.label,
                elab.1,
                elab.0
            );
        }
        let e = observed_entry(c, wall, elab, baselines[i].0.clone(), opt_stats[i].take());
        let shrink = match &e.opt {
            Some((s, fused)) => format!("  opt: {} procs, {} fused relays", s.processes, fused),
            None => String::new(),
        };
        println!(
            "{:<14} n={:<3} wall {:>9.3} ms  elab {:>8.3}/{:<9.4} ms  procs {:>6}  rounds {:>6}  messages {:>9}  steps {:>9}{}",
            e.design,
            e.n,
            e.wall_ms,
            e.elab_cold_ms,
            e.elab_warm_ms,
            e.processes,
            e.rounds,
            e.messages,
            e.steps,
            shrink
        );
        entries.push(e);
    }

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(root).join("BENCH_simulate.json");
    let old = std::fs::read_to_string(&path).unwrap_or_default();

    // The regression gate: every configuration must stay within
    // `gate_pct` percent of its best prior snapshot.
    let prior = prior_best(&old);
    let mut violations = Vec::new();
    for e in &entries {
        if let Some(p) = prior.iter().find(|p| p.design == e.design && p.n == e.n) {
            let mut check = |what: &str, new: f64, prior: Option<f64>, slack_ms: f64| {
                let Some(w) = prior else { return };
                let limit = w * (1.0 + gate_pct / 100.0) + slack_ms;
                if new > limit {
                    violations.push(format!(
                        "{} n={}: {what} {new:.3} ms exceeds the {gate_pct:.0}% gate over \
                         the best prior snapshot ({w:.3} ms, limit {limit:.3} ms)",
                        e.design, e.n
                    ));
                }
            };
            check("wall", e.wall_ms, Some(p.wall_ms), 0.0);
            // The elaboration timings are small (the warm lookup is a
            // sub-microsecond Arc clone), so the percentage gate gets a
            // small absolute slack: it still catches the regression that
            // matters — a warm lookup degenerating into a re-elaboration
            // — without tripping on scheduler noise.
            check("cold elab", e.elab_cold_ms, p.elab_cold_ms, 0.2);
            check("warm elab", e.elab_warm_ms, p.elab_warm_ms, 0.2);
        }
    }
    if !violations.is_empty() {
        eprintln!("REGRESSION GATE FAILED — nothing written:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }

    // Hand-rolled JSON: the schema is fixed and flat, and the workspace
    // deliberately avoids a serde_json dependency outside criterion.
    let mut snapshot = format!("    {{\"label\": \"{label}\", \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let opt_fields = match &e.opt {
            Some((s, fused)) => format!(
                "\"opt_processes\": {}, \"opt_rounds\": {}, \"opt_messages\": {}, \
                 \"opt_steps\": {}, \"opt_fused_relays\": {}, ",
                s.processes, s.rounds, s.messages, s.steps, fused
            ),
            None => String::new(),
        };
        let _ = writeln!(
            snapshot,
            "      {{\"design\": \"{}\", \"n\": {}, \"wall_ms\": {:.3}, \
             \"elab_cold_ms\": {:.4}, \"elab_warm_ms\": {:.4}, \"processes\": {}, \
             \"rounds\": {}, \"messages\": {}, \"steps\": {}, {}\
             \"wait_hist\": {}, \"msgs_per_round_hist\": {}}}{}",
            e.design,
            e.n,
            e.wall_ms,
            e.elab_cold_ms,
            e.elab_warm_ms,
            e.processes,
            e.rounds,
            e.messages,
            e.steps,
            opt_fields,
            pairs_json(&e.wait_hist),
            pairs_json(&e.msgs_per_round_hist),
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    snapshot.push_str("    ]}");

    let json = if old.contains("\"snapshots\"") {
        // Append to an existing snapshot file (insert before the closing
        // of the snapshots array).
        let cut = old.rfind("\n  ]\n}").expect("well-formed snapshot file");
        format!("{},\n{snapshot}\n  ]\n}}\n", &old[..cut])
    } else {
        format!("{{\n  \"suite\": \"simulate\",\n  \"snapshots\": [\n{snapshot}\n  ]\n}}\n")
    };
    std::fs::write(&path, json).expect("write BENCH_simulate.json");
    println!("wrote {} (snapshot \"{label}\")", path.display());
}
