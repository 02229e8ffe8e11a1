//! Fast-path regression: the macro-stepping wavefront engine behind the
//! batch proof (`systolic_runtime::batch`, see `docs/scheduler.md`) must
//! be observationally invisible — bit-identical recovered stores and
//! invariant logical `messages`/`steps` counts against the rendezvous
//! engine — and its engagement gate must be exactly as documented: an
//! executor other than the cooperative one, `--batch off`, a buffered
//! channel policy, an attached recorder, or a non-FIFO schedule policy
//! each force the rendezvous engine. All runs here pass `OptMode::Off`:
//! the message and step pins below are the *unfused* counts, and the
//! optimizer (which legitimately changes them) has its own differential
//! suite in `tests/optimizer.rs`.

mod common;

use common::{assert_one_fast_engine, prepared, run as go, CORPUS};
use proptest::prelude::*;
use systolizer::interp::{
    BatchMode, ElabOptions, ExecutorChoice, KernelMode, ModuleStore, OptMode, SimSpec,
};
use systolizer::runtime::{
    lock, shared, ChanId, ChannelPolicy, FifoPolicy, MetricsRecorder, SchedulePolicy,
};

/// The spec every run here starts from: the default gates with
/// `OptMode::Off`, so a fast run executes the elaborated module.
fn fast_rung() -> SimSpec {
    SimSpec {
        opt: OptMode::Off,
        ..SimSpec::default()
    }
}

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
            ..fast_rung()
        },
    );
    assert!(!base.wavefront, "--batch off forces the rendezvous engine");

    let auto = go(&e1, fast_rung());
    assert!(auto.wavefront, "plain Auto run engages");
    assert_eq!(auto.store, base.store);

    let fifo = go(
        &e1,
        SimSpec {
            sched: Some(Box::new(FifoPolicy)),
            ..fast_rung()
        },
    );
    assert!(fifo.wavefront, "the identity policy keeps the gate open");
    assert_eq!(fifo.store, base.store);

    let perturbed = go(
        &e1,
        SimSpec {
            sched: Some(Box::new(ReversePolicy)),
            ..fast_rung()
        },
    );
    assert!(!perturbed.wavefront, "a non-FIFO policy closes the gate");
    assert_eq!(perturbed.store, base.store);

    let (metrics, recorder) = shared(MetricsRecorder::new());
    let observed = go(
        &e1,
        SimSpec {
            recorders: vec![recorder],
            ..fast_rung()
        },
    );
    assert!(!observed.wavefront, "a recorder closes the gate");
    assert_eq!(observed.store, base.store);
    assert!(
        lock(&metrics).report().transfers > 0,
        "the recorder really observed the run"
    );

    let buffered = go(
        &e1,
        SimSpec {
            policy: ChannelPolicy::Buffered(4),
            ..fast_rung()
        },
    );
    assert!(!buffered.wavefront, "the buffered ablation closes the gate");
    assert_eq!(buffered.store, base.store);

    for executor in [
        ExecutorChoice::Threaded,
        ExecutorChoice::Partitioned { workers: 2 },
    ] {
        let os_thread = go(
            &e1,
            SimSpec {
                executor,
                ..fast_rung()
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
        let wf = go(&d1, fast_rung());
        assert!(wf.wavefront, "n={n}: the wavefront gate should admit");
        assert_eq!(wf.store, plain.store, "n={n}");
        assert_eq!(wf.stats.messages, plain.stats.messages, "n={n}");
        assert_eq!(wf.stats.steps, plain.stats.steps, "n={n}");
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
    /// bit-identical, logical messages/steps/processes invariant — and
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
            let fast = go(&d, SimSpec { executor, ..fast_rung() });
            prop_assert_eq!(fast.wavefront, executor == ExecutorChoice::Coop);
            prop_assert_eq!(&fast.store, &base.store);
            prop_assert_eq!(fast.stats.messages, base.stats.messages);
            prop_assert_eq!(fast.stats.steps, base.stats.steps);
            prop_assert_eq!(fast.stats.processes, base.stats.processes);
        }
    }

    /// The batched run — `--batch auto` on the cooperative executor, which
    /// is the wavefront executor — is differentially pinned against the
    /// same spec with `--batch off`, on the compiled-kernel and the scalar
    /// wave path alike: bit-identical stores, invariant logical
    /// messages/steps/processes, over random (design, size, seed) draws.
    #[test]
    fn wavefront_agrees_with_the_batched_run(
        design in 0usize..9,
        n in 1i64..=4,
        seed in 0u64..1000,
        kernel_on in 0u8..2,
    ) {
        let d = prepared(design, n, seed);
        let kernel = if kernel_on == 1 { KernelMode::Auto } else { KernelMode::Off };
        let go = |batch| go(&d, SimSpec { batch, kernel, ..fast_rung() });
        let rendezvous = go(BatchMode::Off);
        prop_assert!(!rendezvous.wavefront);
        let wf = go(BatchMode::Auto);
        prop_assert!(wf.wavefront, "design {} n={}: gate should admit", design, n);
        prop_assert_eq!(&wf.store, &rendezvous.store);
        prop_assert_eq!(wf.stats.messages, rendezvous.stats.messages);
        prop_assert_eq!(wf.stats.steps, rendezvous.stats.steps);
        prop_assert_eq!(wf.stats.processes, rendezvous.stats.processes);
    }
}
