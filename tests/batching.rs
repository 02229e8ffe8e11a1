//! Fast-path regression: the macro-stepping wavefront engine behind the
//! batch proof (`systolic_runtime::batch`, see `docs/scheduler.md`) must
//! be observationally invisible — bit-identical recovered stores against
//! the rendezvous engine — and its engagement gate must be exactly as
//! documented: an
//! executor other than the cooperative one, `--batch off`, an attached
//! recorder, or a non-FIFO schedule policy each force the rendezvous
//! engine. A fast run executes the optimizer's
//! module, so its counts are pinned by the optimizer's count law
//! (`common::assert_count_law`); the elaborated module itself runs on the
//! wavefront engine through the runtime API, with the plain engine's
//! counts exactly.

mod common;

use common::{
    assert_count_law, assert_kernels_match_the_scalar_sweep, assert_one_fast_engine, prepared,
    run as go, CORPUS,
};
use proptest::prelude::*;
use systolizer::interp::{BatchMode, ElabOptions, ExecutorChoice, ModuleStore, SimSpec};
use systolizer::runtime::{
    analyze_kernels, analyze_wavefront, lock, run_wavefront, shared, ChanId, FifoPolicy,
    MetricsRecorder, SchedulePolicy,
};

/// A policy that actually exercises its hooks (reverses each round's
/// firing order) and honestly reports `is_fifo() == false`.
struct ReversePolicy;

impl SchedulePolicy for ReversePolicy {
    fn schedule_round(&mut self, _round: u64, fire: &mut Vec<ChanId>, _defer: &mut Vec<ChanId>) {
        fire.reverse();
    }

    fn label(&self) -> String {
        "reverse".into()
    }
}

/// The engagement gate, pinned feature by feature. Every configuration
/// still produces the correct store; only the `wavefront` flag may change.
#[test]
fn gate_closes_for_every_observable_feature() {
    let e1 = prepared(2, 3, 5);
    let base = go(
        &e1,
        SimSpec {
            batch: BatchMode::Off,
            ..SimSpec::default()
        },
    );
    assert!(!base.wavefront, "--batch off forces the rendezvous engine");

    let auto = go(&e1, SimSpec::default());
    assert!(auto.wavefront, "plain Auto run engages");
    assert_eq!(auto.store, base.store);

    let fifo = go(
        &e1,
        SimSpec {
            sched: Some(Box::new(FifoPolicy)),
            ..SimSpec::default()
        },
    );
    assert!(fifo.wavefront, "the identity policy keeps the gate open");
    assert_eq!(fifo.store, base.store);

    let perturbed = go(
        &e1,
        SimSpec {
            sched: Some(Box::new(ReversePolicy)),
            ..SimSpec::default()
        },
    );
    assert!(!perturbed.wavefront, "a non-FIFO policy closes the gate");
    assert_eq!(perturbed.store, base.store);

    let (metrics, recorder) = shared(MetricsRecorder::new());
    let observed = go(
        &e1,
        SimSpec {
            recorders: vec![recorder],
            ..SimSpec::default()
        },
    );
    assert!(!observed.wavefront, "a recorder closes the gate");
    assert_eq!(observed.store, base.store);
    assert!(
        lock(&metrics).report().transfers > 0,
        "the recorder really observed the run"
    );

    for executor in [
        ExecutorChoice::Threaded,
        ExecutorChoice::Partitioned { workers: 2 },
    ] {
        let os_thread = go(
            &e1,
            SimSpec {
                executor,
                ..SimSpec::default()
            },
        );
        assert!(
            !os_thread.wavefront,
            "the OS-thread engine has the plain rung only"
        );
        assert_eq!(os_thread.store, base.store);
    }
}

/// The wavefront executor's gate corners (see `docs/wavefront.md`): the
/// degenerate sizes still engage and agree with the rendezvous engine.
#[test]
fn wavefront_gate_corners() {
    // n=0 and n=1: one-iteration loop nests — trivial pipelines with
    // single-process waves. The wavefront path must engage and agree.
    for n in [0i64, 1, 2] {
        let d1 = prepared(0, n, 31);
        let plain = go(&d1, SimSpec::plain());
        let wf = go(&d1, SimSpec::default());
        assert!(wf.wavefront, "n={n}: the wavefront gate should admit");
        assert_eq!(wf.store, plain.store, "n={n}");
        assert_count_law(&format!("n={n}"), &plain.stats, &wf);
    }
}

/// Unfused exactness without a knob: the module *as elaborated* — every
/// relay the optimizer would fuse still in place — run on the wavefront
/// engine through the runtime API, with compiled kernels and without, on
/// every corpus design and `fir.sys` at four sizes, recovers the plain
/// engine's store word for word and its messages, steps and processes
/// exactly.
#[test]
fn the_elaborated_module_runs_exactly_on_the_wavefront_engine() {
    for design in 0..=CORPUS {
        for n in [1i64, 2, 3, 5] {
            let (plan, env, store) = prepared(design, n, 19);
            let ms = ModuleStore::new();
            let plain =
                systolizer::interp::simulate(&ms, &plan, &env, &store, SimSpec::plain()).unwrap();
            let cm = ms
                .module(&plan, &env, &store, &ElabOptions::default())
                .unwrap();
            let el = &cm.elab;
            let module = el.module.with_data(el.gather(&store).unwrap());
            let wf = analyze_wavefront(&module, cm.batch_plan(), &[]);
            let kernels = analyze_kernels(&module, &wf);
            for kernels in [Some(&kernels), None] {
                let ctx = format!("design {design} n={n} kernels {}", kernels.is_some());
                let (stats, sinks, _) = run_wavefront(&module, &wf, kernels, false).unwrap();
                assert_eq!(stats.messages, plain.stats.messages, "{ctx}");
                assert_eq!(stats.steps, plain.stats.steps, "{ctx}");
                assert_eq!(stats.processes, plain.stats.processes, "{ctx}");
                for out in &el.outputs {
                    let raw = plain.store.get(&out.variable).raw();
                    let want: Vec<_> = el
                        .words_of(out)
                        .iter()
                        .map(|&at| raw[at as usize])
                        .collect();
                    assert_eq!(sinks[out.output as usize], want, "{ctx}: {}", out.variable);
                }
            }
        }
    }
}

/// The law that leaves one cooperative fast engine: on every corpus
/// design and `fir.sys`, at four sizes, under every protocol variant, the
/// wavefront plan is eligible exactly when the batch proof holds (the
/// optimized twin's too), and a default run takes the wavefront rung
/// exactly then — so no module past the gate needs another fast rung.
#[test]
fn the_wavefront_plan_is_eligible_exactly_when_the_batch_proof_holds() {
    let mut batchable = 0;
    for design in 0..=CORPUS {
        for n in [1i64, 2, 3, 5] {
            let problem = prepared(design, n, 13);
            for bits in 0..8 {
                let elab = ElabOptions {
                    internal_buffers: bits & 1 == 0,
                    split_propagation: bits & 2 != 0,
                    merge_io: bits & 4 != 0,
                };
                let label = format!("design {design} n={n} {elab:?}");
                let ms = ModuleStore::new();
                batchable += assert_one_fast_engine(&label, &ms, &problem, &elab) as usize;
            }
        }
    }
    assert!(batchable > 0, "no corpus module was batchable");
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

    /// The wavefront engine and the rendezvous engines agree — stores
    /// bit-identical, logical counts by the optimizer's count law — and
    /// the gate opens on the cooperative executor only, over random
    /// (design, size, input seed, worker count) draws.
    #[test]
    fn batching_is_unobservable_on_random_configurations(
        design in 0usize..9,
        n in 1i64..=4,
        seed in 0u64..1000,
        workers in 1usize..=4,
    ) {
        let d = prepared(design, n, seed);
        let base = go(&d, SimSpec::plain());
        for executor in [
            ExecutorChoice::Coop,
            ExecutorChoice::Threaded,
            ExecutorChoice::Partitioned { workers },
        ] {
            let fast = go(&d, SimSpec { executor, ..SimSpec::default() });
            prop_assert_eq!(fast.wavefront, executor == ExecutorChoice::Coop);
            prop_assert_eq!(&fast.store, &base.store);
            let ctx = format!("design {design} n={n} {executor:?}");
            assert_count_law(&ctx, &base.stats, &fast);
        }
    }

    /// The batched run — `--batch auto` on the cooperative executor, which
    /// is the wavefront executor — is differentially pinned against the
    /// same spec with `--batch off`: bit-identical stores, logical counts
    /// by the count law, over random (design, size, seed) draws. Its fast
    /// plan runs once more on the scalar sweep alone, with the kernel
    /// run's stores and stats.
    #[test]
    fn wavefront_agrees_with_the_batched_run(
        design in 0usize..9,
        n in 1i64..=4,
        seed in 0u64..1000,
    ) {
        let d = prepared(design, n, seed);
        let go = |batch| go(&d, SimSpec { batch, ..SimSpec::default() });
        let rendezvous = go(BatchMode::Off);
        prop_assert!(!rendezvous.wavefront);
        let wf = go(BatchMode::Auto);
        prop_assert!(wf.wavefront, "design {} n={}: gate should admit", design, n);
        prop_assert_eq!(&wf.store, &rendezvous.store);
        let ctx = format!("design {design} n={n}");
        assert_count_law(&ctx, &rendezvous.stats, &wf);
        assert_kernels_match_the_scalar_sweep(&ctx, ModuleStore::global(), &d);
    }
}
