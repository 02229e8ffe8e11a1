//! Steady-state batching regression: the macro-stepping fast path
//! (`systolic_runtime::batch`, see `docs/scheduler.md`) must be
//! observationally invisible — bit-identical recovered stores and
//! invariant logical `messages`/`steps` counts against the rendezvous
//! engine — and its engagement gate must be exactly as documented: an
//! executor other than the cooperative one, `--batch off`, a buffered
//! channel policy, an attached recorder, or a non-FIFO schedule policy
//! each force the unbatched engine. All runs here pass `OptMode::Off`:
//! the message and step pins below are the *unfused* counts, and the
//! optimizer (which legitimately changes them) has its own differential
//! suite in `tests/optimizer.rs`.

mod common;

use common::{prepared, run as go};
use proptest::prelude::*;
use systolizer::interp::{BatchMode, ExecutorChoice, OptMode, SimSpec, WavefrontMode};
use systolizer::runtime::{
    shared, ChanId, ChannelPolicy, FifoPolicy, MetricsRecorder, SchedulePolicy,
};

/// The spec every run here starts from: `OptMode::Off`, the wavefront
/// rung shut, so a batched run lands on the batched rung.
fn batched_rung() -> SimSpec {
    SimSpec {
        opt: OptMode::Off,
        wavefront: WavefrontMode::Off,
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
/// still produces the correct store; only the `batched` flag may change.
#[test]
fn gate_closes_for_every_observable_feature() {
    let e1 = prepared(2, 3, 5);
    let base = go(
        &e1,
        SimSpec {
            batch: BatchMode::Off,
            ..batched_rung()
        },
    );
    assert!(!base.batched, "--batch off forces the rendezvous engine");

    let auto = go(&e1, batched_rung());
    assert!(auto.batched, "plain Auto run engages");
    assert_eq!(auto.store, base.store);

    let fifo = go(
        &e1,
        SimSpec {
            sched: Some(Box::new(FifoPolicy)),
            ..batched_rung()
        },
    );
    assert!(fifo.batched, "the identity policy keeps the gate open");
    assert_eq!(fifo.store, base.store);

    let perturbed = go(
        &e1,
        SimSpec {
            sched: Some(Box::new(ReversePolicy)),
            ..batched_rung()
        },
    );
    assert!(!perturbed.batched, "a non-FIFO policy closes the gate");
    assert_eq!(perturbed.store, base.store);

    let (metrics, recorder) = shared(MetricsRecorder::new());
    let observed = go(
        &e1,
        SimSpec {
            recorders: vec![recorder],
            ..batched_rung()
        },
    );
    assert!(!observed.batched, "a recorder closes the gate");
    assert_eq!(observed.store, base.store);
    assert!(
        metrics.lock().report().transfers > 0,
        "the recorder really observed the run"
    );

    let buffered = go(
        &e1,
        SimSpec {
            policy: ChannelPolicy::Buffered(4),
            ..batched_rung()
        },
    );
    assert!(!buffered.batched, "the buffered ablation closes the gate");
    assert_eq!(buffered.store, base.store);

    for executor in [
        ExecutorChoice::Threaded,
        ExecutorChoice::Partitioned { workers: 2 },
    ] {
        let os_thread = go(
            &e1,
            SimSpec {
                executor,
                ..batched_rung()
            },
        );
        assert!(
            !os_thread.batched,
            "the OS-thread engine has the plain rung only"
        );
        assert_eq!(os_thread.store, base.store);
    }
}

/// The wavefront executor's gate corners (see `docs/wavefront.md`): the
/// degenerate sizes still engage and agree; any feature that closes the
/// batching gate closes the wavefront gate with it (the wavefront rung
/// sits strictly above the batched rung on the same ladder), and the run
/// still produces the correct store.
#[test]
fn wavefront_gate_corners() {
    let wavefront_rung = || SimSpec {
        opt: OptMode::Off,
        ..SimSpec::default()
    };
    // n=0 and n=1: one-iteration loop nests — trivial pipelines with
    // single-process waves. The wavefront path must engage and agree.
    for n in [0i64, 1, 2] {
        let d1 = prepared(0, n, 31);
        let batched = go(&d1, batched_rung());
        let wf = go(&d1, wavefront_rung());
        assert!(wf.wavefront, "n={n}: the wavefront gate should admit");
        assert!(wf.batched, "n={n}: wavefront implies batched");
        assert_eq!(wf.store, batched.store, "n={n}");
        assert_eq!(wf.stats.messages, batched.stats.messages, "n={n}");
        assert_eq!(wf.stats.steps, batched.stats.steps, "n={n}");
    }

    let e1 = prepared(2, 3, 5);
    let base = go(&e1, wavefront_rung());
    assert!(base.wavefront, "plain Auto run takes the wavefront rung");

    let (metrics, recorder) = shared(MetricsRecorder::new());
    let observed = go(
        &e1,
        SimSpec {
            recorders: vec![recorder],
            ..wavefront_rung()
        },
    );
    assert!(!observed.wavefront, "a recorder closes the wavefront gate");
    assert!(!observed.batched, "…and the batching gate beneath it");
    assert_eq!(observed.store, base.store);
    assert!(metrics.lock().report().transfers > 0);

    let perturbed = go(
        &e1,
        SimSpec {
            sched: Some(Box::new(ReversePolicy)),
            ..wavefront_rung()
        },
    );
    assert!(!perturbed.wavefront, "a non-FIFO policy closes the gate");
    assert!(!perturbed.batched);
    assert_eq!(perturbed.store, base.store);
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

    /// Batched and unbatched execution agree — stores bit-identical,
    /// logical messages/steps invariant — and the gate opens on the
    /// cooperative executor only, over random (design, size, input seed,
    /// worker count) draws.
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
            let fast = go(&d, SimSpec { executor, ..batched_rung() });
            prop_assert_eq!(fast.batched, executor == ExecutorChoice::Coop);
            prop_assert_eq!(&fast.store, &base.store);
            prop_assert_eq!(fast.stats.messages, base.stats.messages);
            prop_assert_eq!(fast.stats.steps, base.stats.steps);
        }
    }

    /// The wavefront executor is differentially pinned against the
    /// batched run it replaces: bit-identical stores, invariant logical
    /// messages/steps, over random (design, size, seed) draws.
    #[test]
    fn wavefront_agrees_with_the_batched_run(
        design in 0usize..9,
        n in 1i64..=4,
        seed in 0u64..1000,
    ) {
        let d = prepared(design, n, seed);
        let go = |wavefront| go(&d, SimSpec { wavefront, ..batched_rung() });
        let batched = go(WavefrontMode::Off);
        prop_assert!(batched.batched);
        prop_assert!(!batched.wavefront);
        let wf = go(WavefrontMode::Auto);
        prop_assert!(wf.wavefront, "design {} n={}: gate should admit", design, n);
        prop_assert_eq!(&wf.store, &batched.store);
        prop_assert_eq!(wf.stats.messages, batched.stats.messages);
        prop_assert_eq!(wf.stats.steps, batched.stats.steps);
        prop_assert_eq!(wf.stats.processes, batched.stats.processes);
    }
}
