//! Whole-pipeline fuzzing over *generated source programs*: random loop
//! nests, index maps, bodies, and loop directions — not just the fixed
//! gallery. Every accepted (program, array) pair must compile, satisfy
//! the Appendix B theorems, and execute equivalently to its own
//! sequential semantics — on the reference engine and then on every rung
//! of `simulate`'s ladder (`common::rungs`), whose wavefront plans must
//! keep their invariants (`common::check_wavefront_plan`), and whose
//! channel tables must be the walk of their ops, fused module included
//! (`common::assert_channel_law`).

mod common;

use common::{
    assert_channel_law, assert_kernels_match_the_scalar_sweep, assert_seq_matches_reference,
    check_wavefront_plans, plain_under, rungs, verify,
};
use proptest::prelude::*;
use systolizer::core::{compile, theorems, Options};
use systolizer::interp::{ElabOptions, ModuleStore, SimSpec, VerifyError};
use systolizer::ir::expr::build::*;
use systolizer::ir::{
    program::covering_bounds, BasicStatement, HostStore, IndexedVar, Loop, SourceProgram, Stream,
};
use systolizer::math::{Affine, Env, Matrix, VarTable};
use systolizer::runtime::RunError;

/// Candidate index-map rows for r = 2 (must be non-zero, constant-free).
const ROWS2: &[[i64; 2]] = &[[1, 0], [0, 1], [1, 1], [1, -1], [-1, 1], [2, 1], [1, 2]];

/// Candidate 2x3 index maps for r = 3 (rank checked at build time).
const ROWS3: &[[i64; 3]] = &[
    [1, 0, 0],
    [0, 1, 0],
    [0, 0, 1],
    [1, 0, -1],
    [0, 1, -1],
    [1, -1, 0],
    [1, 1, 0],
    [0, 1, 1],
];

#[derive(Clone, Debug)]
struct Spec {
    r: usize,
    /// Row choices per stream (1 row for r=2, 2 for r=3).
    maps: Vec<Vec<usize>>,
    /// rb offset per loop (rb = n + offset).
    offsets: Vec<i64>,
    /// Loop directions.
    steps: Vec<i64>,
    /// Body shape selector.
    body: u8,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (2usize..=3).prop_flat_map(|r| {
        let row_count = r - 1;
        let pool = if r == 2 { ROWS2.len() } else { ROWS3.len() };
        (
            proptest::collection::vec(proptest::collection::vec(0..pool, row_count), 3),
            proptest::collection::vec(0i64..=2, r),
            proptest::collection::vec(prop_oneof![Just(1i64), Just(-1i64)], r),
            0u8..3,
        )
            .prop_map(move |(maps, offsets, steps, body)| Spec {
                r,
                maps,
                offsets,
                steps,
                body,
            })
    })
}

/// Build a source program from a spec; `None` if the index maps are
/// rank-deficient or duplicate a variable's map (out of envelope).
fn build_program(spec: &Spec) -> Option<SourceProgram> {
    let mut vars = VarTable::new();
    let n = vars.size("n");
    let names = ["a", "b", "c"];
    let loops: Vec<Loop> = (0..spec.r)
        .map(|i| Loop {
            index_name: format!("x{i}"),
            lb: Affine::zero(),
            rb: Affine::var(n) + Affine::int(spec.offsets[i]),
            step: spec.steps[i],
        })
        .collect();
    let mut streams = Vec::new();
    let mut variables = Vec::new();
    for (k, rows_idx) in spec.maps.iter().enumerate() {
        let rows: Vec<Vec<i64>> = rows_idx
            .iter()
            .map(|&ri| {
                if spec.r == 2 {
                    ROWS2[ri].to_vec()
                } else {
                    ROWS3[ri].to_vec()
                }
            })
            .collect();
        let m = Matrix::from_rows(&rows);
        if m.rank() != spec.r - 1 {
            return None;
        }
        variables.push(IndexedVar {
            name: names[k].into(),
            bounds: covering_bounds(&m, &loops),
        });
        streams.push(Stream {
            variable: k,
            index_map: m,
        });
    }
    let body = match spec.body {
        // c := c + a * b (the classic accumulation).
        0 => BasicStatement {
            updates: vec![assign(2, add(s(2), mul(s(0), s(1))))],
        },
        // c := max(c, a + b) (tropical semiring — shortest/longest paths).
        1 => BasicStatement {
            updates: vec![assign(2, max(s(2), add(s(0), s(1))))],
        },
        // Guarded update + unguarded second update.
        _ => BasicStatement {
            updates: vec![
                guarded(
                    cmp(systolizer::ir::CmpOp::Le, idx(0), idx(spec.r - 1)),
                    2,
                    add(s(2), mul(s(0), s(1))),
                ),
                assign(2, add(s(2), s(0))),
            ],
        },
    };
    Some(SourceProgram {
        name: "generated".into(),
        vars,
        sizes: vec![n],
        loops,
        variables,
        streams,
        body,
    })
}

/// Case count: default, overridable via PROPTEST_CASES for deep fuzzing.
fn env_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn is_deadlock(e: &VerifyError) -> bool {
    matches!(
        e,
        VerifyError::Engine {
            error: RunError::Deadlock(_),
            ..
        }
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: env_cases(40), ..ProptestConfig::default() })]

    #[test]
    fn generated_programs_compile_and_run_correctly(
        spec in spec_strategy(),
        nval in 1i64..=3,
        seed in 0u64..500,
    ) {
        let Some(program) = build_program(&spec) else { return Ok(()) };
        let mut env = Env::new();
        env.bind(program.sizes[0], nval);
        // The oracle against its own reference first, on every program
        // built — those the compiler will turn away included.
        let mut store = HostStore::allocate(&program, &env);
        store.fill_random("a", seed, -9, 9);
        store.fill_random("b", seed.wrapping_add(1), -9, 9);
        assert_seq_matches_reference(&format!("{spec:?}"), &program, &env, &store);
        if systolizer::ir::validate(&program, 3).is_err() {
            return Ok(()); // out of the Appendix A envelope
        }
        let Some(array) = systolizer::synthesis::derive_array(&program, 1, 3) else {
            return Ok(()); // no valid schedule within the bound
        };
        let plan = match compile(&program, &array, &Options::default()) {
            Ok(p) => p,
            Err(systolizer::core::CompileError::NonIntegerSolution { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("compile: {e}"))),
        };
        let audit = theorems::audit(&plan, &env);
        prop_assert!(audit.ok(), "theorems: {:?} (spec {spec:?})", audit.failures);
        let store = systolizer::interp::seeded_store(&plan, &env, &["a", "b"], seed);
        let problem = (plan.clone(), env.clone(), store);
        let label = format!("{spec:?}");
        assert_channel_law(&label, ModuleStore::global(), &problem, &ElabOptions::default());
        // The paper's sequential-phase protocol is not deadlock-free for
        // every valid design (a reproduction finding; see EXPERIMENTS.md).
        // When it deadlocks, the split-propagation protocol must succeed
        // — and when it doesn't, the results must be correct.
        match verify(&plan, &env, &["a", "b"], seed, SimSpec::plain()) {
            // What the reference engine completes, every rung of the
            // ladder must complete with the oracle's stores.
            Ok(_) => {
                check_wavefront_plans(&label, ModuleStore::global(), &problem);
                for rung in rungs() {
                    let res = verify(&plan, &env, &["a", "b"], seed, rung.spec());
                    prop_assert!(res.is_ok(), "{rung:?}: {:?} (spec {spec:?})", res.err());
                }
                assert_kernels_match_the_scalar_sweep(&label, ModuleStore::global(), &problem);
            }
            Err(e) if is_deadlock(&e) => {
                let opts = ElabOptions {
                    split_propagation: true,
                    ..Default::default()
                };
                let res = verify(&plan, &env, &["a", "b"], seed, plain_under(opts));
                prop_assert!(
                    res.is_ok(),
                    "split propagation also failed: {:?} (spec {spec:?})",
                    res.err()
                );
            }
            Err(e) => return Err(TestCaseError::fail(format!("{e} (spec {spec:?})"))),
        }
    }

    /// Merged host i/o (Sec. 4.2's deferred optimization) composed with
    /// split propagation on arbitrary generated designs: results must
    /// stay correct whenever the run completes, and any deadlock must be
    /// detected (not a hang). Merging serializes the host, which can in
    /// principle interact with tight rendezvous schedules — the test
    /// documents the observed envelope.
    #[test]
    fn merged_io_is_correct_when_it_completes(
        spec in spec_strategy(),
        nval in 1i64..=3,
        seed in 0u64..500,
    ) {
        let Some(program) = build_program(&spec) else { return Ok(()) };
        if systolizer::ir::validate(&program, 3).is_err() {
            return Ok(());
        }
        let Some(array) = systolizer::synthesis::derive_array(&program, 1, 3) else {
            return Ok(());
        };
        let plan = match compile(&program, &array, &Options::default()) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let mut env = Env::new();
        env.bind(program.sizes[0], nval);
        let opts = ElabOptions {
            merge_io: true,
            split_propagation: true,
            ..Default::default()
        };
        match verify(&plan, &env, &["a", "b"], seed, plain_under(opts)) {
            Ok(_) => {}
            Err(e) => {
                prop_assert!(
                    is_deadlock(&e),
                    "non-deadlock failure under merged io: {e} (spec {spec:?})"
                );
            }
        }
    }

    /// The split-propagation protocol is itself correct on arbitrary
    /// generated designs (not only as a deadlock fallback).
    #[test]
    fn split_propagation_is_always_correct(
        spec in spec_strategy(),
        nval in 1i64..=3,
        seed in 0u64..500,
    ) {
        let Some(program) = build_program(&spec) else { return Ok(()) };
        if systolizer::ir::validate(&program, 3).is_err() {
            return Ok(());
        }
        let Some(array) = systolizer::synthesis::derive_array(&program, 1, 3) else {
            return Ok(());
        };
        let plan = match compile(&program, &array, &Options::default()) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let mut env = Env::new();
        env.bind(program.sizes[0], nval);
        let opts = ElabOptions {
            split_propagation: true,
            ..Default::default()
        };
        let res = verify(&plan, &env, &["a", "b"], seed, plain_under(opts));
        prop_assert!(res.is_ok(), "{:?} (spec {spec:?})", res.err());
    }

    /// The covering-bounds helper really covers: every accessed element
    /// lies inside the declared variable space.
    #[test]
    fn covering_bounds_cover_all_accesses(
        spec in spec_strategy(),
        nval in 0i64..=4,
    ) {
        let Some(program) = build_program(&spec) else { return Ok(()) };
        let mut env = Env::new();
        env.bind(program.sizes[0], nval);
        for st in &program.streams {
            let b: Vec<(i64, i64)> = program.variables[st.variable]
                .bounds
                .iter()
                .map(|(lo, hi)| (lo.eval_int(&env), hi.eval_int(&env)))
                .collect();
            for x in program.index_space_seq(&env) {
                let e = st.index_map.apply_int(&x);
                for (v, &(lo, hi)) in e.iter().zip(&b) {
                    prop_assert!(*v >= lo && *v <= hi, "{e:?} outside {b:?}");
                }
            }
        }
    }
}
