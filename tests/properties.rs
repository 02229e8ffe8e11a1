//! Property-based cross-crate tests: across randomized valid (step,
//! place) pairs for the gallery kernels, the compiled plan must satisfy
//! every Appendix B theorem, the FIFO conservation law, and observational
//! equivalence with the sequential reference.

mod common;

use common::{run, verify};
use proptest::prelude::*;
use systolizer::core::{compile, theorems, Options, StreamKind};
use systolizer::interp::{seeded_store, ExecutorChoice, SimSpec};
use systolizer::math::{point, Env};
use systolizer::synthesis::SystolicArray;

/// Strategy: a random unit projection direction of dimension `r`.
fn projection(r: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-1i64..=1, r).prop_filter("non-zero", |u| !point::is_zero(u))
}

/// Strategy: random small step coefficients.
fn step(r: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-2i64..=2, r)
}

fn check_pair(
    program: &systolizer::ir::SourceProgram,
    step: Vec<i64>,
    u: Vec<i64>,
    n: i64,
    seed: u64,
    inputs: &[&str],
) -> Result<(), TestCaseError> {
    let place = systolizer::synthesis::place_from_projection(&u);
    let array = SystolicArray::new(step, place);
    if array.validate(program).is_err() {
        return Ok(()); // invalid pairs are out of scope
    }
    let plan = match compile(program, &array, &Options::default()) {
        Ok(p) => p,
        Err(e) => {
            // The only acceptable failure for a validated array is the
            // non-integer-solution restriction.
            prop_assert!(
                matches!(e, systolizer::core::CompileError::NonIntegerSolution { .. }),
                "unexpected compile failure: {e}"
            );
            return Ok(());
        }
    };
    let mut env = Env::new();
    for &s in &program.sizes {
        env.bind(s, n);
    }
    // Appendix B theorems.
    let audit = theorems::audit(&plan, &env);
    prop_assert!(audit.ok(), "theorem failures: {:?}", audit.failures);
    // End-to-end equivalence.
    let res = verify(&plan, &env, inputs, seed, SimSpec::plain());
    prop_assert!(res.is_ok(), "equivalence: {:?}", res.err());
    Ok(())
}

/// The plain engine of one executor.
fn plain(executor: ExecutorChoice) -> SimSpec {
    SimSpec {
        executor,
        ..SimSpec::plain()
    }
}

/// Case count: default, overridable via PROPTEST_CASES for deep fuzzing.
fn env_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: env_cases(48), ..ProptestConfig::default() })]

    #[test]
    fn polyprod_random_designs(
        st in step(2),
        u in projection(2),
        n in 1i64..=5,
        seed in 0u64..1000,
    ) {
        let p = systolizer::ir::gallery::polynomial_product();
        check_pair(&p, st, u, n, seed, &["a", "b"])?;
    }

    #[test]
    fn matmul_random_designs(
        st in step(3),
        u in projection(3),
        n in 1i64..=3,
        seed in 0u64..1000,
    ) {
        let p = systolizer::ir::gallery::matrix_product();
        check_pair(&p, st, u, n, seed, &["a", "b"])?;
    }

    #[test]
    fn fir_random_designs(
        st in step(2),
        u in projection(2),
        n in 1i64..=3,
        m in 1i64..=5,
        seed in 0u64..1000,
    ) {
        let p = systolizer::ir::gallery::fir_filter();
        let place = systolizer::synthesis::place_from_projection(&u);
        let array = SystolicArray::new(st, place);
        if array.validate(&p).is_err() {
            return Ok(());
        }
        let plan = match compile(&p, &array, &Options::default()) {
            Ok(plan) => plan,
            Err(systolizer::core::CompileError::NonIntegerSolution { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        let mut env = Env::new();
        env.bind(p.sizes[0], n).bind(p.sizes[1], m);
        let audit = theorems::audit(&plan, &env);
        prop_assert!(audit.ok(), "theorem failures: {:?}", audit.failures);
        let res = verify(&plan, &env, &["h", "x"], seed, SimSpec::plain());
        prop_assert!(res.is_ok(), "equivalence: {:?}", res.err());
    }

    /// Loading & recovery vectors are a free choice (Sec. 4.2): any unit
    /// neighbour vector must work for E.1's stationary stream.
    #[test]
    fn matmul_e1_random_loading_vectors(
        lx in -1i64..=1,
        ly in -1i64..=1,
        n in 1i64..=3,
        seed in 0u64..1000,
    ) {
        prop_assume!((lx, ly) != (0, 0));
        let (p, a) = systolizer::synthesis::placement::paper::matmul_e1();
        let opts = Options::default()
            .with_loading_vector(systolizer::ir::StreamId(2), vec![lx, ly]);
        let plan = compile(&p, &a, &opts).unwrap();
        let is_stationary = matches!(plan.streams[2].kind, StreamKind::Stationary { .. });
        prop_assert!(is_stationary);
        let mut env = Env::new();
        env.bind(p.sizes[0], n);
        let res = verify(&plan, &env, &["a", "b"], seed, SimSpec::plain());
        prop_assert!(res.is_ok(), "loading ({lx},{ly}): {:?}", res.err());
    }

    /// All three executors agree with the sequential oracle — and with
    /// each other — on store contents and executor-invariant statistics,
    /// for random designs, sizes, worker counts, and data. The ranges
    /// deliberately include the degenerate corners: `n = 0` (the
    /// iteration space collapses to a single point), one worker (fully
    /// serialized partition), and 64 workers (more workers than
    /// processes, so most groups are empty).
    #[test]
    fn executors_agree_with_the_sequential_oracle(
        design in 0usize..4,
        n in 0i64..=3,
        workers in prop_oneof![Just(1usize), 2usize..=6, Just(64usize)],
        seed in 0u64..1000,
    ) {
        let paper = systolizer::synthesis::placement::paper::all();
        let (_, p, a) = &paper[design];
        let plan = compile(p, a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], n);
        let store = seeded_store(&plan, &env, &["a", "b"], seed);
        let mut expected = store.clone();
        systolizer::ir::seq::run(p, &env, &mut expected);

        let d = (plan, env, store);
        let coop = run(&d, plain(ExecutorChoice::Coop));
        let threaded = run(&d, plain(ExecutorChoice::Threaded));
        let part = run(&d, plain(ExecutorChoice::Partitioned { workers }));
        for name in expected.names() {
            prop_assert_eq!(coop.store.get(name), expected.get(name), "coop {}", name);
            prop_assert_eq!(threaded.store.get(name), expected.get(name), "threaded {}", name);
            prop_assert_eq!(part.store.get(name), expected.get(name), "partitioned {}", name);
        }
        // Messages and steps are network properties, not executor ones.
        prop_assert_eq!(coop.stats.messages, threaded.stats.messages);
        prop_assert_eq!(coop.stats.messages, part.stats.messages);
        prop_assert_eq!(coop.stats.steps, threaded.stats.steps);
        prop_assert_eq!(coop.stats.steps, part.stats.steps);
        prop_assert_eq!(coop.stats.processes, threaded.stats.processes);
    }
}

/// Named regressions for the degenerate corners the proptest above only
/// samples: they must stay pinned even when the fuzz budget is tiny.
mod degenerate_corners {
    use super::{common::run, plain};
    use systolizer::core::{compile, Options};
    use systolizer::interp::{seeded_store, ExecutorChoice, SimSpec};
    use systolizer::math::Env;
    use systolizer::synthesis::placement::paper;

    /// A single worker serializes every process into one group; the
    /// partition must still agree with the cooperative engine bit for
    /// bit on every paper design.
    #[test]
    fn one_worker_partition_agrees_with_coop() {
        for (label, p, a) in paper::all() {
            let plan = compile(&p, &a, &Options::default()).unwrap();
            let mut env = Env::new();
            env.bind(p.sizes[0], 3);
            let store = seeded_store(&plan, &env, &["a", "b"], 7);
            let d = (plan, env, store);
            let coop = run(&d, SimSpec::plain());
            let part = run(&d, plain(ExecutorChoice::Partitioned { workers: 1 }));
            assert_eq!(part.store, coop.store, "{label}: one-worker store");
            assert_eq!(part.stats.messages, coop.stats.messages, "{label}");
            assert_eq!(part.stats.steps, coop.stats.steps, "{label}");
        }
    }

    /// More workers than processes leaves most partition groups empty;
    /// empty groups must be inert, not deadlock or panic.
    #[test]
    fn more_workers_than_processes_is_inert() {
        let (p, a) = paper::polyprod_d1();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 2);
        let store = seeded_store(&plan, &env, &["a", "b"], 7);
        let d = (plan, env, store);
        let coop = run(&d, SimSpec::plain());
        assert!(coop.stats.processes < 64, "pick a size below worker count");
        let part = run(&d, plain(ExecutorChoice::Partitioned { workers: 64 }));
        assert_eq!(part.store, coop.store, "oversubscribed store");
        assert_eq!(part.stats.messages, coop.stats.messages);
        assert_eq!(part.stats.steps, coop.stats.steps);
    }

    /// `n = 0` collapses every loop to the single point 0 (bounds are
    /// inclusive). All three executors must still run the pipeline clean
    /// and agree with the sequential reference.
    #[test]
    fn empty_iteration_space_runs_clean_on_all_executors() {
        for (label, p, a) in paper::all() {
            let plan = compile(&p, &a, &Options::default()).unwrap();
            let mut env = Env::new();
            env.bind(p.sizes[0], 0);
            let store = seeded_store(&plan, &env, &["a", "b"], 7);
            let mut expected = store.clone();
            systolizer::ir::seq::run(&p, &env, &mut expected);

            let d = (plan, env, store);
            let coop = run(&d, SimSpec::plain());
            let threaded = run(&d, plain(ExecutorChoice::Threaded));
            let part = run(&d, plain(ExecutorChoice::Partitioned { workers: 2 }));
            for name in expected.names() {
                assert_eq!(coop.store.get(name), expected.get(name), "{label} {name}");
                assert_eq!(
                    threaded.store.get(name),
                    expected.get(name),
                    "{label} {name}"
                );
                assert_eq!(part.store.get(name), expected.get(name), "{label} {name}");
            }
        }
    }
}
