//! Experiment X2: makespan and optimal parallelism.
//!
//! "Formal methods for systolic array synthesis can automatically
//! generate optimal parallelism" (Sec. 1). We check that (a) the virtual
//! clock of the simulated execution grows like the schedule range
//! `max step - min step + 1` — linear in `n` — while sequential work is
//! quadratic/cubic, and (b) the schedule search finds makespans at least
//! as good as the paper's schedules.

mod common;

use common::verify;
use systolizer::core::{compile, Options};
use systolizer::interp::SimSpec;
use systolizer::math::Env;
use systolizer::synthesis::placement::paper;
use systolizer::synthesis::schedule::step_makespan;

fn rounds_at(plan: &systolizer::core::SystolicProgram, n: i64) -> u64 {
    let mut env = Env::new();
    env.bind(plan.source.sizes[0], n);
    verify(plan, &env, &["a", "b"], 1, SimSpec::plain())
        .unwrap()
        .stats
        .rounds
}

#[test]
fn virtual_clock_grows_linearly_for_matmul() {
    for pair in [paper::matmul_e1(), paper::matmul_e2()] {
        let (p, a) = pair;
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let r: Vec<u64> = [2i64, 4, 6].iter().map(|&n| rounds_at(&plan, n)).collect();
        // Linear growth: second differences vanish.
        let d1 = r[1] as i64 - r[0] as i64;
        let d2 = r[2] as i64 - r[1] as i64;
        assert_eq!(d1, d2, "rounds {r:?} are not affine in n");
        // And decisively sub-cubic: (n+1)^3 grows 343/27 ~ 12.7x; the
        // rounds grow ~3x over the same range.
        assert!((r[2] as f64 / r[0] as f64) < 4.0, "rounds {r:?}");
    }
}

#[test]
fn virtual_clock_tracks_the_schedule_range() {
    // The asynchronous execution cannot beat the dependence structure,
    // and our round counter should stay within a small constant factor of
    // the synchronous schedule (each systolic step is a receive round
    // plus a send round, plus i/o fringe).
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        for n in [3i64, 5] {
            let mut env = Env::new();
            env.bind(p.sizes[0], n);
            let rounds = verify(&plan, &env, &["a", "b"], 2, SimSpec::plain())
                .unwrap()
                .stats
                .rounds as i64;
            let schedule = a.makespan(&p, &env);
            assert!(
                rounds >= schedule / 2,
                "{label} n={n}: rounds {rounds} impossibly beat the schedule {schedule}"
            );
            assert!(
                rounds <= 6 * schedule + 20,
                "{label} n={n}: rounds {rounds} far above the schedule {schedule}"
            );
        }
    }
}

#[test]
fn search_matches_or_beats_paper_schedules() {
    let poly = systolizer::ir::gallery::polynomial_product();
    let mm = systolizer::ir::gallery::matrix_product();
    let mut env = Env::new();
    env.bind(poly.sizes[0], 10);
    let best_poly = systolizer::synthesis::optimal_step(&poly, 2, 10).unwrap();
    assert!(
        step_makespan(&best_poly, &poly, &env) <= step_makespan(&[2, 1], &poly, &env),
        "search must not be worse than the paper's 2i + j"
    );
    let mut env = Env::new();
    env.bind(mm.sizes[0], 10);
    let best_mm = systolizer::synthesis::optimal_step(&mm, 1, 10).unwrap();
    assert_eq!(
        step_makespan(&best_mm, &mm, &env),
        step_makespan(&[1, 1, 1], &mm, &env),
        "i+j+k is optimal for matmul within unit coefficients"
    );
}

#[test]
fn found_schedule_strictly_beats_paper_for_polyprod() {
    // A reproduction finding: with the imperative accumulation chain
    // (1,-1) of stream c, step (1,-1) is valid and has makespan 2n+1,
    // strictly better than the paper's 2i+j at 3n+1. The paper's choice
    // presumably also satisfies design constraints outside this
    // framework; we record the difference as data.
    let poly = systolizer::ir::gallery::polynomial_product();
    let deps = systolizer::synthesis::dependences(&poly);
    assert!(systolizer::synthesis::schedule::is_valid_step(
        &[1, -1],
        &deps
    ));
    let mut env = Env::new();
    env.bind(poly.sizes[0], 10);
    assert_eq!(step_makespan(&[1, -1], &poly, &env), 21);
    assert_eq!(step_makespan(&[2, 1], &poly, &env), 31);
}

#[test]
fn process_counts_match_the_layouts() {
    // D.1: n+1 processes in CS; D.2: 2n+1; E.1: (n+1)^2;
    // E.2: the |col-row| <= n band of the (2n+1)^2 box.
    let n = 4i64;
    let expect = [
        (paper::polyprod_d1(), (n + 1) as usize),
        (paper::polyprod_d2(), (2 * n + 1) as usize),
        (paper::matmul_e1(), ((n + 1) * (n + 1)) as usize),
        (
            paper::matmul_e2(),
            (0..=2 * n)
                .flat_map(|c| (0..=2 * n).map(move |r| (c - n, r - n)))
                .filter(|&(c, r)| (c - r).abs() <= n)
                .count(),
        ),
    ];
    for ((p, a), cs_size) in expect {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], n);
        let store = systolizer::ir::HostStore::allocate(&p, &env);
        let el = systolizer::interp::elaborate(
            &plan,
            &env,
            &store,
            &systolizer::interp::ElabOptions::default(),
        )
        .unwrap();
        assert_eq!(el.census.computation, cs_size, "{}", p.name);
    }
}
