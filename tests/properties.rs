//! Property-based cross-crate tests: across randomized valid (step,
//! place) pairs for the gallery kernels, the compiled plan must satisfy
//! every Appendix B theorem, the FIFO conservation law, and observational
//! equivalence with the sequential reference.

mod common;

use common::matrix::{check_row, Case, COUNT_LAW, ORACLE};
use common::{env_cases, verify};
use proptest::prelude::*;
use systolizer::core::{compile, theorems, Options, StreamKind};
use systolizer::interp::SimSpec;
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

    /// Both engines agree with the sequential oracle — and with each
    /// other — on store contents and, by the optimizer's count law, on
    /// statistics, for random designs, sizes, and data. The range
    /// deliberately includes the degenerate corner `n = 0` (the iteration
    /// space collapses to a single point).
    #[test]
    fn executors_agree_with_the_sequential_oracle(
        design in 0usize..4,
        n in 0i64..=3,
        seed in 0u64..1000,
    ) {
        check_row(&Case::corpus(design, n, seed), &[&ORACLE, &COUNT_LAW]);
    }
}

/// Named regressions for the degenerate corners the proptest above only
/// samples: they must stay pinned even when the fuzz budget is tiny.
mod degenerate_corners {
    use super::common::matrix::{check_row, Case, COUNT_LAW, ORACLE};

    /// `n = 0` collapses every loop to the single point 0 (bounds are
    /// inclusive). Both engines must still run the pipeline clean and
    /// agree with the sequential reference.
    #[test]
    fn empty_iteration_space_runs_clean_on_all_executors() {
        for design in 0..4 {
            check_row(&Case::corpus(design, 0, 7), &[&ORACLE, &COUNT_LAW]);
        }
    }
}
