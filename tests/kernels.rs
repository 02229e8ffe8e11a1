//! Wave-kernel equivalence suite (see `docs/kernels.md`): the compiled
//! struct-of-arrays kernel path must be observationally invisible. On
//! every design in the corpus, the fast plan run with its kernels and on
//! the scalar sweep alone (`run_wavefront` without a kernel plan) must
//! produce bit-identical stores with invariant stats, and both must match
//! the plain rung and the sequential oracle — the kernel is a pure
//! execution strategy for the wavefront executor's compute chunks, never
//! a semantic change. That is the `kernels` column of `tests/matrix.rs`;
//! the tests of those names below run it on the rows their loops reached. A guarded update takes the same path (its
//! guard is a `select` on the tape), and a tape past the op cap runs one
//! lane wide with the cap named in the report. The tape itself is held
//! to the statement it compiles by `tests/tape.rs`.
//!
//! How a wave batch runs the corpus (the tape split once per module,
//! `docs/kernels.md` "The split: stream, carried, folds"): every design's
//! tape writes exactly one slot, its accumulator. Where that stream is
//! stationary — D.2, E.1, the derived matmuls and `matrix_product_bt`,
//! `fir_filter`, `tensor_contraction`, and the shipped `fir.sys` and
//! `matmul.sys` — the product is the stream section and the accumulator
//! one `add` fold per lane, and every moving link sends what it received.
//! Where the accumulator moves — `c` in D.1, in the derived polynomial
//! product and in E.2 — the whole tape is stream and `c`'s link sends the
//! sum's row. E.2's repeaters close a cycle, which runs as a firing
//! schedule (`docs/kernels.md` "Cycles"): one round per value of its
//! `step = i + j + k`, each round one batch of one iteration per lane,
//! pinned against the scalar sweep at every size up to the benchmark's
//! n = 16. No corpus tape reads an index coordinate;
//! an `Index`-reading tape, a guarded (not folded) accumulator, a written
//! *and* an untouched link in one batch, batches of one and of three
//! lanes, batches cut at the scratch bound and a scheduled compute ring
//! (and the three ways a ring falls back) are pinned on hand-built
//! modules in `crates/runtime/src/kernel.rs` and
//! `crates/runtime/src/wavefront.rs`.

use proptest::prelude::*;
mod common;

use common::matrix::{check_row, Case, KERNELS, KERNEL_PLAN, ORACLE};
use common::{env_cases, verify};
use std::sync::Arc;
use systolizer::interp::{seeded_store, SimSpec};
use systolizer::{systolize_source, SystolizeOptions};

matrix_rows!(
    kernel_path_matches_macro_step_and_the_oracle_on_every_design,
    e2_cycle_schedule_matches_the_scalar_sweep_at_every_size,
    kernel_path_is_invisible_on_the_optimized_module,
);

/// The triangular product `if i <= j -> c += a * b`: the guard lowers to
/// a compare and a `select`, so the body is one tape like any other and
/// its repeaters batch — the same stores and counts as the scalar sweep,
/// and the oracle's store.
#[test]
fn guarded_bodies_take_the_kernel_path() {
    let src = "
        program guarded;
        size n;
        var a[0..n], b[0..n], c[0..2*n];
        for i = 0 <- 1 -> n
        for j = 0 <- 1 -> n {
          if i <= j -> c[i+j] = c[i+j] + a[i] * b[j];
        }
    ";
    let sys = systolize_source(src, &SystolizeOptions::default()).unwrap();
    let env = sys.size_env(&[4]).unwrap();
    let store = seeded_store(&sys.plan, &env, &["a", "b"], 13);
    let case = Case::new("guarded".into(), None, (Arc::new(sys.plan), env, store), 13);
    check_row(&case, &[&ORACLE, &KERNELS]);
    let k = case
        .fast()
        .unwrap()
        .kernel
        .clone()
        .expect("wavefront runs carry a report");
    assert!(k.compiled, "{k:?}");
    assert_eq!(k.reject, None);
    assert_eq!((k.eligible_chunks, k.waves_fused), (5, 5), "{k:?}");
    assert!(k.iterations > 0);
}

/// A statement whose tape is longer than `KERNEL_MAX_OPS`, built from
/// two 150-term sums (each nested well under the parser's depth cap):
/// it compiles, the report names the cap, and every repeater runs the
/// tape one lane wide on the scalar path — to the oracle's store.
#[test]
fn a_tape_past_the_op_cap_runs_one_lane_wide() {
    let sum = |term: &str| vec![term; 150].join(" + ");
    let src = format!(
        "program long;
         size n;
         var a[0..n], b[0..n], c[0..2*n];
         for i = 0 <- 1 -> n
         for j = 0 <- 1 -> n {{
           c[i+j] = c[i+j] + {};
           c[i+j] = c[i+j] - ({});
         }}",
        sum("a[i] * b[j]"),
        sum("b[j]"),
    );
    let sys = systolize_source(&src, &SystolizeOptions::default()).unwrap();
    let ops = systolizer::interp::kernelize(&sys.source.body).ops.len();
    assert!(ops > systolizer::runtime::KERNEL_MAX_OPS, "{ops} ops");
    let run = verify(
        &sys.plan,
        &sys.size_env(&[3]).unwrap(),
        &["a", "b"],
        5,
        SimSpec::default(),
    )
    .expect("the one-lane tape verifies");
    let k = run.kernel.expect("wavefront runs carry a report");
    assert!(k.compiled, "{k:?}");
    let reject = k.reject.unwrap_or_default();
    assert!(reject.contains("256-op cap"), "{reject}");
    assert_eq!((k.eligible_chunks, k.waves_fused), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: env_cases(16), ..ProptestConfig::default() })]

    /// The kernel path and the scalar sweep agree — stores bit-identical
    /// against each other, the plain rung and the sequential oracle,
    /// every stat invariant, rounds included — over random (design,
    /// size, seed) draws, on the module the optimizer returns.
    #[test]
    fn kernels_are_unobservable_on_random_configurations(
        design in 0usize..9,
        n in 1i64..=4,
        seed in 0u64..1000,
    ) {
        check_row(&Case::corpus(design, n, seed), &[&KERNELS, &KERNEL_PLAN]);
    }
}
