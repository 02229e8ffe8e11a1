//! Wave-kernel equivalence suite (see `docs/kernels.md`): the compiled
//! struct-of-arrays kernel path must be observationally invisible. On
//! every design in the corpus, the fast plan run with its kernels and on
//! the scalar sweep alone (`run_wavefront` without a kernel plan,
//! `common::assert_kernels_match_the_scalar_sweep`) must produce
//! bit-identical stores with invariant stats, and both must match the
//! plain rung and the sequential oracle — the kernel is a pure execution
//! strategy for the wavefront executor's compute chunks, never a semantic
//! change. A guarded update takes the same path (its
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

use common::{assert_kernels_match_the_scalar_sweep as agree, prepared, verify, CORPUS};
use systolizer::interp::{seeded_store, ModuleStore, SimSpec};
use systolizer::{systolize_source, SystolizeOptions};

/// Every design in the corpus: the kernel path agrees bit-for-bit with
/// the scalar sweep AND the plain rung, and on the homogeneous designs it
/// actually engages (waves fused, iterations retired) rather than
/// vacuously matching through the fallback.
#[test]
fn kernel_path_matches_macro_step_and_the_oracle_on_every_design() {
    let mut engaged = 0usize;
    for design in 0..CORPUS {
        let ctx = format!("design {design}");
        let run = agree(&ctx, ModuleStore::global(), &prepared(design, 4, 17));
        let k = run.kernel.as_ref().expect("wavefront runs carry a report");
        assert!(k.compiled, "{ctx}: corpus bodies all kernelize");
        // Eligible chunks exist, so the kernel path must actually run,
        // not vacuously match through the fallback.
        assert!(k.eligible_chunks > 0, "{ctx}: no eligible chunk ({k:?})");
        assert!(
            k.waves_fused > 0 && k.iterations > 0,
            "{ctx}: eligible but idle (report: {k:?})"
        );
        engaged += 1;
        if design == 3 {
            // E.2: its three flows sum to zero — a step along `a`, one
            // along `b` and one along `c` return to the cell they left —
            // so the repeaters close a cycle and sit in one chunk. That
            // chunk runs its firing schedule: every iteration of the
            // module on the kernel path, and no cyclic fallback.
            assert_e2_scheduled(&ctx, 4, k);
        }
        // Sources and sinks are transport processes; they always stay
        // scalar, and the report says why.
        assert!(
            k.fallbacks
                .iter()
                .any(|(r, _)| r.contains("transport process")),
            "{ctx}: {:?}",
            k.fallbacks
        );
    }
    // 9 of 9: the plan cuts every process at its repeater, so a channel
    // that loads a stationary stream one way while a moving one flows the
    // other way (the derived matmuls) closes no cycle, and E.2's cycle,
    // which runs through the repeaters themselves, runs its schedule.
    assert_eq!(engaged, CORPUS, "every design takes the kernel path");
}

/// E.2's report at size `n`: all (n+1)³ iterations ran on the kernel
/// path, and no chunk fell back as a cycle.
fn assert_e2_scheduled(ctx: &str, n: u64, k: &systolizer::interp::KernelReport) {
    assert_eq!(k.iterations, (n + 1).pow(3), "{ctx}: {k:?}");
    assert!(
        !k.fallbacks.iter().any(|(r, _)| r.contains("cyclic chunk")),
        "{ctx}: {:?}",
        k.fallbacks
    );
}

/// E.2's cyclic chunk on its firing schedule, at every size from the
/// smallest to the benchmark's: stores, `messages`, `steps` and
/// `processes` identical to the scalar sweep's, the plain rung's and the
/// oracle's (`assert_kernels_match_the_scalar_sweep`), every iteration
/// scheduled.
#[test]
fn e2_cycle_schedule_matches_the_scalar_sweep_at_every_size() {
    for n in [1, 2, 3, 4, 5, 8, 16] {
        let ctx = format!("E.2 n={n}");
        let problem = prepared(3, n, 29);
        let run = agree(&ctx, ModuleStore::global(), &problem);
        let k = run.kernel.expect("wavefront runs carry a report");
        assert_eq!(k.eligible_chunks, 1, "{ctx}: one chunk, the cycle");
        assert_e2_scheduled(&ctx, n as u64, &k);
        // One round per value of `step = i + j + k`: 3n + 1 of them.
        let (plan, env, store) = &problem;
        let cm = ModuleStore::global()
            .module(plan, env, store, &Default::default())
            .unwrap();
        let report = cm.fast_plan().kernels.json();
        let cycles = report.get("cycles").and_then(|c| c.as_arr());
        let [cycle] = cycles.expect("a scheduled cycle") else {
            panic!("{ctx}: {report}");
        };
        let field = |name| cycle.get(name).and_then(|v| v.as_i64()).unwrap();
        assert_eq!(field("rounds"), 3 * n + 1, "{ctx}: {cycle}");
        assert_eq!(field("fires"), (n + 1).pow(3), "{ctx}: {cycle}");
        assert_eq!(k.batches, 3 * n as u64 + 1, "{ctx}: a batch per round");
    }
}

/// The same contract through the optimizer: delay-ring fusion rewrites
/// the module, the kernel plan is built against the optimized wavefront
/// staging — a run's kernel report counts the fast plan's chunks — and
/// the store is the plain engine's and the counts are the plain engine's
/// by the optimizer's count law.
#[test]
fn kernel_path_is_invisible_on_the_optimized_module() {
    let mut fused = 0;
    for design in 0..CORPUS {
        let problem = prepared(design, 4, 23);
        let ms = ModuleStore::global();
        let ctx = format!("design {design}");
        let run = agree(&ctx, ms, &problem);
        let (plan, env, store) = &problem;
        let cm = ms.module(plan, env, store, &Default::default()).unwrap();
        let fast = cm.fast_plan();
        fused += fast.opt_report().map_or(0, |r| r.fused_relays());
        let k = run.kernel.expect("wavefront runs carry a report");
        assert_eq!(
            k.eligible_chunks, fast.kernels.eligible_chunks as u64,
            "{ctx}"
        );
    }
    assert!(fused > 0, "no corpus design fused a relay at n = 4");
}

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
    let problem = (sys.plan, env, store);
    let auto = agree("guarded", ModuleStore::global(), &problem);
    let k = auto.kernel.expect("wavefront runs carry a report");
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

/// Case count override (see `tests/random_programs.rs`).
fn env_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
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
        let ctx = format!("design {design} n={n} seed {seed}");
        agree(&ctx, ModuleStore::global(), &prepared(design, n, seed));
    }
}
