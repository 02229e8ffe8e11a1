//! Differential oracle suite: every gallery design — the four appendix
//! designs (polyprod D.1/D.2, matmul E.1/E.2), the FIR filter on a
//! derived array, and the shipped `fir.sys`/`polyprod.sys` files — runs
//! through the sequential reference (`ir::seq`) and the simulated
//! network on both engines (the plain rendezvous engine and the
//! wavefront engine), at several problem sizes. The final host stores
//! must be bit-identical across all executions, and the engine-invariant
//! statistics (messages, steps) must agree — the wavefront run's by the
//! optimizer's count law.
//!
//! The oracle is itself checked here: `seq::run` (a strided walk) against
//! `common::seq_reference` (the point-by-point walker it replaced) on the
//! whole `tests/common` corpus and on hand-built corners.

mod common;

use common::{assert_count_law, assert_seq_matches_reference, prepared, CORPUS};
use systolizer::core::{compile, Options, SystolicProgram};
use systolizer::interp::{
    observe_plan_in, seeded_store, simulate, simulate_verified, ModuleStore, SimSpec, SystolicRun,
};
use systolizer::ir::expr::build::*;
use systolizer::ir::program::covering_bounds;
use systolizer::ir::{
    seq, BasicStatement, CmpOp, GuardedUpdate, HostStore, IndexedVar, Loop, SourceProgram, Stream,
};
use systolizer::math::{Affine, Env, Matrix, VarTable};
use systolizer::runtime::{OpKind, ProcOp};
use systolizer::synthesis::placement::paper;

/// A gallery design: label, compiled plan, input variables, and the size
/// tuples to exercise.
struct Design {
    label: &'static str,
    plan: SystolicProgram,
    inputs: Vec<&'static str>,
    sizes: Vec<Vec<i64>>,
}

fn designs() -> Vec<Design> {
    let mut out = Vec::new();
    for (label, p, a) in paper::all() {
        out.push(Design {
            label,
            plan: compile(&p, &a, &Options::default()).unwrap(),
            inputs: vec!["a", "b"],
            sizes: if label.starts_with("matmul") {
                vec![vec![1], vec![2], vec![4]]
            } else {
                vec![vec![1], vec![3], vec![6]]
            },
        });
    }
    let p = systolizer::ir::gallery::fir_filter();
    let a = systolizer::synthesis::derive_array(&p, 2, 4).unwrap();
    out.push(Design {
        label: "fir",
        plan: compile(&p, &a, &Options::default()).unwrap(),
        inputs: vec!["h", "x"],
        sizes: vec![vec![1, 2], vec![2, 5], vec![3, 4]],
    });
    // The shipped program file, through the full front end — its long
    // relay pipes make it a second witness for chain fusion.
    let sys = systolizer::systolize_source(
        include_str!("../programs/fir.sys"),
        &systolizer::SystolizeOptions::default(),
    )
    .unwrap();
    out.push(Design {
        label: "fir.sys",
        plan: sys.plan,
        inputs: vec!["h", "x"],
        sizes: vec![vec![1, 2], vec![2, 5], vec![3, 4]],
    });
    // The shipped polynomial product, also through the full front end:
    // the Appendix D source as users would actually write it.
    let sys = systolizer::systolize_source(
        include_str!("../programs/polyprod.sys"),
        &systolizer::SystolizeOptions::default(),
    )
    .unwrap();
    out.push(Design {
        label: "polyprod.sys",
        plan: sys.plan,
        inputs: vec!["a", "b"],
        sizes: vec![vec![1], vec![3], vec![6]],
    });
    out
}

fn size_env(plan: &SystolicProgram, vals: &[i64]) -> Env {
    let mut env = Env::new();
    for (&s, &v) in plan.source.sizes.iter().zip(vals) {
        env.bind(s, v);
    }
    env
}

/// Seeded input store and the sequential-oracle result for a design.
fn oracle(d: &Design, env: &Env, seed: u64) -> (HostStore, HostStore) {
    let store = seeded_store(&d.plan, env, &d.inputs, seed);
    let mut expected = store.clone();
    seq::run(&d.plan.source, env, &mut expected);
    (store, expected)
}

/// The plain engine on the process-wide module store.
fn run_plain(d: &Design, env: &Env, store: &HostStore) -> SystolicRun {
    simulate(ModuleStore::global(), &d.plan, env, store, SimSpec::plain())
        .unwrap_or_else(|e| panic!("{}: {e}", d.label))
}

/// Every variable of the recovered store matches the oracle bit for bit.
fn assert_stores_identical(label: &str, sizes: &[i64], run: &SystolicRun, expected: &HostStore) {
    for name in expected.names() {
        assert_eq!(
            run.store.get(name),
            expected.get(name),
            "{label} sizes={sizes:?}: variable {name} diverges from the sequential oracle"
        );
    }
}

#[test]
fn coop_matches_the_sequential_oracle_on_every_design() {
    for d in designs() {
        for sizes in &d.sizes {
            let env = size_env(&d.plan, sizes);
            let (store, expected) = oracle(&d, &env, 17);
            let run = run_plain(&d, &env, &store);
            assert_stores_identical(d.label, sizes, &run, &expected);
        }
    }
}

#[test]
fn executors_agree_on_stores_and_invariant_statistics() {
    // Messages and steps are properties of the elaborated network, not of
    // the executor; the wavefront executor (kernels on, over the
    // optimizer's module) must report the plain engine's stores with the
    // counts of the optimizer's count law, each checked against the
    // sequential oracle, off ONE shared elaboration. Every size of every design is
    // exercised: the wavefront executor's chunk staging is
    // size-dependent, so one mid-size point would not pin it.
    for d in designs() {
        for sizes in &d.sizes {
            let env = size_env(&d.plan, sizes);
            let store = seeded_store(&d.plan, &env, &d.inputs, 43);
            let ms = ModuleStore::new();
            let run = |spec| {
                simulate_verified(&ms, &d.plan, &env, &store, spec)
                    .unwrap_or_else(|e| panic!("{} sizes={sizes:?}: {e}", d.label))
            };
            let (coop, fast) = (run(SimSpec::plain()), run(SimSpec::default()));
            assert_eq!(ms.stats().module_misses, 1, "{}: one elaboration", d.label);
            assert!(fast.wavefront, "{}", d.label);
            let ctx = format!("{} sizes={sizes:?} wavefront", d.label);
            assert_count_law(&ctx, &coop.stats, &fast);
            assert_eq!(coop.store, fast.store, "{ctx}");
        }
    }
}

/// Order-sensitive checksum over a host array's backing values, used to
/// pin golden stores without serializing whole arrays into the test.
fn checksum(values: &[systolizer::ir::Value]) -> i64 {
    values
        .iter()
        .fold(0i64, |h, &v| h.wrapping_mul(31).wrapping_add(v))
}

#[test]
fn polyprod_sys_golden_stores_are_pinned_at_three_sizes() {
    // The shipped `programs/polyprod.sys` through the full front end,
    // with the recovered `c` store pinned by checksum at three sizes.
    // The sequential oracle already guards correctness; these goldens
    // additionally guard the *front end* — a parser, normalizer, or
    // systolization change that alters what the program computes fails
    // here even if the simulated network faithfully executes the new
    // (wrong) plan. Seed and fill range are part of the golden.
    let goldens: [(i64, i64); 3] = [
        (1, 6554),
        (3, 6_018_320_591),
        (6, 5_341_326_772_481_792_544),
    ];
    let sys = systolizer::systolize_source(
        include_str!("../programs/polyprod.sys"),
        &systolizer::SystolizeOptions::default(),
    )
    .unwrap();
    for (n, want) in goldens {
        let mut env = Env::new();
        env.bind(sys.plan.source.sizes[0], n);
        let store = seeded_store(&sys.plan, &env, &["a", "b"], 101);
        let ms = ModuleStore::global();
        let run = simulate_verified(ms, &sys.plan, &env, &store, SimSpec::plain())
            .unwrap_or_else(|e| panic!("polyprod.sys n={n}: {e}"));
        let got = checksum(run.store.get("c").raw());
        assert_eq!(
            got, want,
            "polyprod.sys n={n}: golden store checksum drifted"
        );
    }
}

#[test]
fn observed_runs_match_the_oracle_too() {
    // Attaching recorders must not perturb results: the observed run's
    // store equals the oracle and its report reconciles with the stats.
    for d in designs() {
        let sizes = &d.sizes[1];
        let env = size_env(&d.plan, sizes);
        let (store, expected) = oracle(&d, &env, 59);
        let ms = ModuleStore::global();
        let obs = observe_plan_in(ms, &d.plan, &env, &store, SimSpec::default())
            .unwrap_or_else(|e| panic!("{}: {e}", d.label));
        assert_stores_identical(d.label, sizes, &obs.run, &expected);
        assert_eq!(obs.report.transfers, obs.run.stats.messages, "{}", d.label);
        assert_eq!(obs.report.end_time, obs.run.stats.rounds, "{}", d.label);
        let steps: u64 = obs.report.processes.iter().map(|p| p.steps).sum();
        assert_eq!(steps, obs.run.stats.steps, "{}", d.label);
    }
}

#[test]
fn metrics_op_totals_are_the_modules_static_counts() {
    // Every op retires exactly once per effect, so an observed run's
    // `op_counts` are a property of the module, not of the schedule:
    // `emit` is the data segment, `pass` the sum of the pass counts,
    // `compute` the sum of the repeater counts.
    for design in 0..=CORPUS {
        for n in [1, 2, 3] {
            let (plan, env, store) = prepared(design, n, 5);
            let label = format!("design {design} ({}) n={n}", plan.source.name);
            let ms = ModuleStore::global();
            let obs = observe_plan_in(ms, &plan, &env, &store, SimSpec::default())
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let m = &obs.module.elab.module;
            let mut want = [0u64; 6];
            for op in m.ops.iter() {
                let (kind, n) = match *op {
                    ProcOp::Emit { .. } => (OpKind::Emit, 1),
                    ProcOp::Collect { .. } => (OpKind::Collect, 1),
                    ProcOp::Keep { .. } => (OpKind::Keep, 1),
                    ProcOp::Pass { n, .. } => (OpKind::Pass, n),
                    ProcOp::Eject { .. } => (OpKind::Eject, 1),
                    ProcOp::Compute { count } => (OpKind::Compute, count),
                };
                want[kind as usize] += n;
            }
            assert_eq!(want[OpKind::Emit as usize], m.data.len() as u64, "{label}");
            assert_eq!(obs.report.op_totals(), want, "{label}");
        }
    }
}

#[test]
fn seq_run_matches_its_reference_on_the_whole_corpus() {
    for design in 0..=CORPUS {
        for n in [0, 1, 2, 3, 5, 12] {
            let (plan, env, store) = prepared(design, n, 73);
            let label = format!("design {design} ({}) n={n}", plan.source.name);
            let count = assert_seq_matches_reference(&label, &plan.source, &env, &store);
            assert_eq!(count, plan.source.index_space_size(&env), "{label}");
        }
    }
}

/// A hand-built nest of `steps.len()` loops `0 <- step -> n` over the
/// named streams. Each distinct name is one variable, declared with the
/// bounds that cover its first stream's accesses.
fn corner(
    steps: &[i64],
    streams: &[(&str, &[&[i64]])],
    updates: Vec<GuardedUpdate>,
) -> SourceProgram {
    let mut vars = VarTable::new();
    let n = vars.size("n");
    let loops: Vec<Loop> = steps
        .iter()
        .enumerate()
        .map(|(i, &step)| Loop {
            index_name: format!("x{i}"),
            lb: Affine::zero(),
            rb: Affine::var(n),
            step,
        })
        .collect();
    let mut variables: Vec<IndexedVar> = Vec::new();
    let streams = streams
        .iter()
        .map(|&(name, rows)| {
            let rows: Vec<Vec<i64>> = rows.iter().map(|r| r.to_vec()).collect();
            let index_map = Matrix::from_rows(&rows);
            let variable = variables
                .iter()
                .position(|v| v.name == name)
                .unwrap_or_else(|| {
                    variables.push(IndexedVar {
                        name: name.into(),
                        bounds: covering_bounds(&index_map, &loops),
                    });
                    variables.len() - 1
                });
            Stream {
                variable,
                index_map,
            }
        })
        .collect();
    SourceProgram {
        name: "corner".into(),
        vars,
        sizes: vec![n],
        loops,
        variables,
        streams,
        body: BasicStatement { updates },
    }
}

#[test]
fn seq_run_matches_its_reference_on_hand_built_corners() {
    let corners = [
        (
            // Order matters in every loop (`c := 2c + a*b`), and every
            // loop runs right to left.
            "every loop reversed",
            corner(
                &[-1, -1, -1],
                &[
                    ("a", &[&[1, 0, 0], &[0, 0, 1]]),
                    ("b", &[&[0, 0, 1], &[0, 1, 0]]),
                    ("c", &[&[1, 0, 0], &[0, 1, 0]]),
                ],
                vec![assign(2, add(mul(c(2), s(2)), mul(s(0), s(1))))],
            ),
        ),
        (
            // The body sees the index vector itself, in the guard and in
            // the value: right offsets under a wrong `x` would pass the
            // other corners and fail this one.
            "a guard and a value that read the loop indices",
            corner(
                &[1, -1],
                &[("a", &[&[1, 0]]), ("b", &[&[0, 1]]), ("c", &[&[1, 1]])],
                vec![
                    guarded(
                        cmp(CmpOp::Le, idx(0), idx(1)),
                        2,
                        add(s(2), mul(s(0), idx(1))),
                    ),
                    assign(2, sub(s(2), mul(s(1), idx(0)))),
                ],
            ),
        ),
        (
            // `a[i+j]` and `a[i]` are one element when j = 0: both locals
            // read the old value and the second write wins.
            "two written streams on one variable",
            corner(
                &[1, 1],
                &[("a", &[&[1, 1]]), ("a", &[&[1, 0]]), ("b", &[&[0, 1]])],
                vec![assign(0, add(s(0), s(2))), assign(1, sub(s(1), s(0)))],
            ),
        ),
        (
            // `a[i-j]` and `b[j-i, i]` live in -n..n.
            "variables with negative lower bounds",
            corner(
                &[-1, 1, 1],
                &[
                    ("a", &[&[1, -1, 0], &[0, 0, 1]]),
                    ("b", &[&[-1, 1, 0], &[1, 0, 0]]),
                    ("c", &[&[0, 1, 0], &[0, 1, -1]]),
                ],
                vec![assign(2, max(s(2), add(s(0), s(1))))],
            ),
        ),
    ];
    for (label, program) in &corners {
        for n in [0, 1, 2, 3, 5] {
            let mut env = Env::new();
            env.bind(program.sizes[0], n);
            let mut store = HostStore::allocate(program, &env);
            for (i, v) in program.variables.iter().enumerate() {
                store.fill_random(&v.name, 7 + i as u64, -9, 9);
            }
            let label = format!("{label}, n={n}");
            let count = assert_seq_matches_reference(&label, program, &env, &store);
            assert_eq!(count, program.index_space_size(&env), "{label}");
        }
    }
    // An empty index space: nothing runs and nothing is touched, whatever
    // the store holds.
    let (_, program) = &corners[1];
    let mut env = Env::new();
    env.bind(program.sizes[0], 3);
    let mut store = HostStore::allocate(program, &env);
    store.fill_random("c", 1, -9, 9);
    env.bind(program.sizes[0], -1);
    assert_eq!(
        assert_seq_matches_reference("empty", program, &env, &store),
        0
    );
    let before = store.clone();
    assert_eq!(seq::run(program, &env, &mut store), 0);
    assert_eq!(store, before);
}
