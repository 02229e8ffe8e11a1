//! The experiment runner: regenerates every table recorded in
//! `EXPERIMENTS.md` — the derived quantities of Appendices D and E, the
//! E.1.4 summary table, the equivalence matrix, the makespan scaling
//! table, the Appendix B theorem audit, and the ablations.
//!
//! ```sh
//! cargo run --release --example experiments
//! ```

use systolic_core::{compile, theorems, Options, StreamKind};
use systolic_interp::{
    runtime_gen, seeded_store, simulate, simulate_verified, ElabOptions, ModuleStore, SimSpec,
    VerifyError,
};
use systolic_ir::HostStore;
use systolic_math::{point, Env};
use systolic_runtime::{analyze_wavefront, run_wavefront, RunStats};
use systolic_synthesis::placement::paper;

/// The equivalence experiment on the rendezvous reference engine.
fn verify(
    plan: &systolic_core::SystolicProgram,
    env: &Env,
    seed: u64,
) -> Result<RunStats, VerifyError> {
    let store = seeded_store(plan, env, &["a", "b"], seed);
    simulate_verified(ModuleStore::global(), plan, env, &store, SimSpec::plain()).map(|r| r.stats)
}

fn env_at(p: &systolic_ir::SourceProgram, n: i64) -> Env {
    let mut env = Env::new();
    for &s in &p.sizes {
        env.bind(s, n);
    }
    env
}

fn main() {
    section_derivations();
    section_e14_table();
    section_equivalence();
    section_makespan();
    section_theorems();
    section_census();
    section_ablations();
    section_protocols();
    section_schedule_search();
}

fn section_derivations() {
    println!("================================================================");
    println!("Experiments D1/D2/E1/E2: derived quantities per appendix design");
    println!("================================================================");
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        println!("--- Appendix {label} ---");
        println!("{}", systolic_core::report::render(&plan));
    }
}

fn section_e14_table() {
    println!("================================================================");
    println!("Experiment E1 (table of Sec. E.1.4): per-stream pipe summary");
    println!("================================================================");
    let (p, a) = paper::matmul_e1();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    println!(
        "{:<4} {:<12} {:<12} {:<22} {:<22}",
        "s", "kind", "increment_s", "first_s", "last_s"
    );
    for sp in &plan.streams {
        let f = sp
            .first_s
            .clauses()
            .iter()
            .map(|(_, pt)| systolic_math::affine::display_point(pt, &plan.vars))
            .collect::<Vec<_>>()
            .join(" | ");
        let l = sp
            .last_s
            .clauses()
            .iter()
            .map(|(_, pt)| systolic_math::affine::display_point(pt, &plan.vars))
            .collect::<Vec<_>>()
            .join(" | ");
        let kind = match &sp.kind {
            StreamKind::Moving => "moving".to_string(),
            StreamKind::Stationary { .. } => "stationary".to_string(),
        };
        println!(
            "{:<4} {:<12} {:<12} {:<22} {:<22}",
            sp.name,
            kind,
            point::fmt_point(&sp.increment_s),
            f,
            l
        );
    }
    println!();
}

fn section_equivalence() {
    println!("================================================================");
    println!("Experiment X1: systolic execution == sequential execution");
    println!("================================================================");
    println!(
        "{:<6} {:>4} {:>6} {:>8} {:>8} {:>10} {:>8}",
        "design", "n", "seed", "procs", "rounds", "messages", "result"
    );
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let sweep: &[i64] = if p.r() == 2 { &[4, 8, 16] } else { &[2, 4, 6] };
        for &n in sweep {
            for seed in [7u64, 1234] {
                let env = env_at(&p, n);
                match verify(&plan, &env, seed) {
                    Ok(stats) => println!(
                        "{:<6} {:>4} {:>6} {:>8} {:>8} {:>10} {:>8}",
                        label, n, seed, stats.processes, stats.rounds, stats.messages, "OK"
                    ),
                    Err(e) => println!("{label:<6} {n:>4} {seed:>6}  FAILED: {e}"),
                }
            }
        }
    }
    println!();
}

fn section_makespan() {
    println!("================================================================");
    println!("Experiment X2: makespan — schedule range vs virtual clock");
    println!("  (sequential work is quadratic/cubic; both systolic columns");
    println!("   must grow linearly in n)");
    println!("================================================================");
    println!(
        "{:<6} {:>4} {:>10} {:>10} {:>8} {:>12}",
        "design", "n", "seq ops", "schedule", "rounds", "rounds/sched"
    );
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        for n in [2i64, 4, 8] {
            let env = env_at(&p, n);
            let seq_ops = p.index_space_size(&env);
            let schedule = a.makespan(&p, &env);
            let stats = verify(&plan, &env, 3).unwrap();
            println!(
                "{:<6} {:>4} {:>10} {:>10} {:>8} {:>12.2}",
                label,
                n,
                seq_ops,
                schedule,
                stats.rounds,
                stats.rounds as f64 / schedule as f64
            );
        }
    }
    println!();
}

fn section_theorems() {
    println!("================================================================");
    println!("Experiment T: Appendix B theorems, audited on every design");
    println!("================================================================");
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let env = env_at(&p, 4);
        let audit = theorems::audit(&plan, &env);
        println!(
            "Appendix {label}: {}",
            if audit.ok() {
                "all theorems hold".to_string()
            } else {
                format!("FAILURES {:?}", audit.failures)
            }
        );
    }
    println!();
}

fn section_census() {
    println!("================================================================");
    println!("Process census at n = 4 (layout shapes of the four designs)");
    println!("================================================================");
    println!(
        "{:<6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "design", "comp", "ext-buf", "int-buf", "inputs", "outputs", "channels"
    );
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let env = env_at(&p, 4);
        let store = HostStore::allocate(&p, &env);
        let el = systolic_interp::elaborate(&plan, &env, &store, &ElabOptions::default()).unwrap();
        println!(
            "{:<6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>10}",
            label,
            el.census.computation,
            el.census.external_buffers,
            el.census.internal_buffers,
            el.census.inputs,
            el.census.outputs,
            el.census.channels
        );
    }
    println!();
}

fn section_ablations() {
    println!("================================================================");
    println!("Experiment B3: ablations");
    println!("================================================================");

    // B3a: internal buffers on the fractional-flow design D.1.
    let (p, a) = paper::polyprod_d1();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let n = 8i64;
    let env = env_at(&p, n);
    let store = seeded_store(&plan, &env, &["a", "b"], 1);
    println!("B3a: D.1 internal buffers (stream b, flow 1/2) at n = {n}");
    for (label, buffers) in [("with buffers", true), ("without", false)] {
        let elab = ElabOptions {
            internal_buffers: buffers,
            ..Default::default()
        };
        let spec = SimSpec {
            elab,
            ..SimSpec::plain()
        };
        let run = simulate(ModuleStore::global(), &plan, &env, &store, spec).unwrap();
        println!(
            "  {label:<16} procs {:>4}  rounds {:>4}  messages {:>6}",
            run.stats.processes, run.stats.rounds, run.stats.messages
        );
    }

    // B3b: channel slack on D.2 — one elaborated module on the plain
    // rendezvous engine and on the wavefront engine with its own rings.
    let (p, a) = paper::polyprod_d2();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let env = env_at(&p, n);
    let store = seeded_store(&plan, &env, &["a", "b"], 3);
    println!("B3b: D.2 channel slack at n = {n}, one elaborated module on two engines");
    let ms = ModuleStore::global();
    let plain = simulate_verified(ms, &plan, &env, &store, SimSpec::plain()).unwrap();
    let cm = ms
        .module(&plan, &env, &store, &ElabOptions::default())
        .unwrap();
    let el = &cm.elab;
    let module = el.module.with_data(el.gather(&store).unwrap());
    let rings = analyze_wavefront(&module, cm.batch_plan(), &[]);
    let (slack, sinks, _) = run_wavefront(&module, &rings, None, false).unwrap();
    for out in &el.outputs {
        let raw = plain.store.get(&out.variable).raw();
        let words = el.words_of(out).iter().map(|&at| raw[at as usize]);
        assert!(
            words.eq(sinks[out.output as usize].iter().copied()),
            "{}",
            out.variable
        );
    }
    let count = |s: &RunStats| (s.processes, s.steps, s.messages);
    assert_eq!(
        count(&slack),
        count(&plain.stats),
        "slack changes timing only"
    );
    println!(
        "  engine      channel slack   procs  steps  messages  store         clock  clock unit"
    );
    let row = |engine: &str, slack: &str, s: &RunStats, store: &str, unit: &str| {
        let (procs, steps, messages, clock) = (s.processes, s.steps, s.messages, s.rounds);
        println!(
            "  {engine:<11} {slack:<15} {procs:>5} {steps:>6} {messages:>9}  {store:<13} {clock:>5}  {unit}"
        );
    };
    row(
        "rendezvous",
        "none",
        &plain.stats,
        "= sequential",
        "rendezvous rounds",
    );
    row(
        "wavefront",
        "ring = traffic",
        &slack,
        "= rendezvous",
        "grand sweeps",
    );

    // B3c: simple vs non-simple place at equal n.
    println!("B3c: simple vs non-simple place at n = 4");
    for (label, pair) in [
        ("D.1 (simple)", paper::polyprod_d1()),
        ("D.2 (non-simple)", paper::polyprod_d2()),
        ("E.1 (simple)", paper::matmul_e1()),
        ("E.2 (non-simple)", paper::matmul_e2()),
    ]
    .iter()
    .map(|(l, pr)| (*l, pr.clone()))
    {
        let (p, a) = pair;
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let env = env_at(&p, 4);
        let stats = verify(&plan, &env, 5).unwrap();
        println!(
            "  {label:<18} procs {:>4}  rounds {:>4}  messages {:>6}",
            stats.processes, stats.rounds, stats.messages
        );
    }

    // B3d: run-time generation baseline work vs problem size.
    println!("B3d: run-time statement generation (index points scanned per phase)");
    let (p, a) = paper::matmul_e1();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    for n in [4i64, 8, 16] {
        let env = env_at(&p, n);
        let (_, visited) = runtime_gen::scan(&plan, &env);
        println!(
            "  n = {n:<3} scan visits {visited:>6} index points; the compiled plan \
             evaluates closed forms (O(1) per process)"
        );
    }
    println!();
}

fn section_protocols() {
    println!("================================================================");
    println!("Protocol variants (Sec. 4.2's \"one of many possible choices\")");
    println!("================================================================");
    println!(
        "{:<6} {:<28} {:>8} {:>8} {:>10}",
        "design", "protocol", "procs", "rounds", "messages"
    );
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let env = env_at(&p, 4);
        let store = seeded_store(&plan, &env, &["a", "b"], 5);
        let variants: [(&str, ElabOptions); 3] = [
            ("paper phases", ElabOptions::default()),
            (
                "split propagation",
                ElabOptions {
                    split_propagation: true,
                    ..Default::default()
                },
            ),
            (
                "merged host io",
                ElabOptions {
                    merge_io: true,
                    ..Default::default()
                },
            ),
        ];
        for (name, elab) in variants {
            let spec = SimSpec {
                elab,
                ..SimSpec::plain()
            };
            match simulate(ModuleStore::global(), &plan, &env, &store, spec) {
                Ok(run) => println!(
                    "{:<6} {:<28} {:>8} {:>8} {:>10}",
                    label, name, run.stats.processes, run.stats.rounds, run.stats.messages
                ),
                Err(e) => println!("{label:<6} {name:<28} DEADLOCK: {e}"),
            }
        }
    }
    println!();
}

fn section_schedule_search() {
    println!("================================================================");
    println!("Experiment X4: schedule search vs the paper's schedules");
    println!("================================================================");
    let poly = systolic_ir::gallery::polynomial_product();
    let mm = systolic_ir::gallery::matrix_product();
    let env_p = env_at(&poly, 10);
    let env_m = env_at(&mm, 10);
    use systolic_synthesis::schedule::step_makespan;
    let best_p = systolic_synthesis::optimal_step(&poly, 2, 10).unwrap();
    let best_m = systolic_synthesis::optimal_step(&mm, 1, 10).unwrap();
    println!(
        "polyprod: paper step (2,1) makespan {}",
        step_makespan(&[2, 1], &poly, &env_p)
    );
    println!(
        "polyprod: found step {:?} makespan {}  <-- strictly better (see EXPERIMENTS.md)",
        best_p,
        step_makespan(&best_p, &poly, &env_p)
    );
    println!(
        "matmul:   paper step (1,1,1) makespan {}",
        step_makespan(&[1, 1, 1], &mm, &env_m)
    );
    println!(
        "matmul:   found step {:?} makespan {}  <-- matches optimal",
        best_m,
        step_makespan(&best_m, &mm, &env_m)
    );
    println!();
}
