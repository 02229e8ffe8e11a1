//! Fast-path regression: the macro-stepping wavefront engine behind the
//! batch proof (`systolic_runtime::batch`, see `docs/scheduler.md`) must
//! be observationally invisible — bit-identical recovered stores against
//! the rendezvous engine — and its engagement gate must be exactly as
//! documented: `--batch off`, an attached recorder, or a non-FIFO
//! schedule policy each force the rendezvous engine.
//!
//! Over the corpus these are columns of `tests/matrix.rs`: `engagement`,
//! `count law` (a fast run executes the optimizer's module, and the
//! elaborated module itself runs on the wavefront engine through the
//! runtime API with the plain engine's counts exactly) and `channel law`
//! (the channel tables are the walk of the ops). The tests of those names
//! below run their columns on the rows their loops reached, and the
//! proptests on random (design, size, seed) rows.

mod common;

use common::matrix::{check_row, Case, ReversePolicy, COUNT_LAW, KERNELS, ORACLE};
use common::{env_cases, prepared, run as go};
use proptest::prelude::*;
use systolizer::interp::{BatchMode, SimSpec};
use systolizer::runtime::{lock, shared, FifoPolicy, MetricsRecorder};

matrix_rows!(
    wavefront_gate_corners,
    the_elaborated_module_runs_exactly_on_the_wavefront_engine,
    the_channel_tables_are_the_walk_of_the_ops_and_every_row_runs_fast,
);

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
        lock(&metrics)
            .report(&observed.module.elab.module, &observed.stats)
            .transfers
            > 0,
        "the recorder really observed the run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: env_cases(16), ..ProptestConfig::default() })]

    /// The wavefront engine and the rendezvous engine agree — stores
    /// bit-identical, logical counts by the optimizer's count law — over
    /// random (design, size, input seed) draws.
    #[test]
    fn batching_is_unobservable_on_random_configurations(
        design in 0usize..9,
        n in 1i64..=4,
        seed in 0u64..1000,
    ) {
        check_row(&Case::corpus(design, n, seed), &[&ORACLE, &COUNT_LAW]);
    }

    /// The same draws with the fast plan run once more on the scalar
    /// sweep alone, with the kernel run's stores and stats.
    #[test]
    fn wavefront_agrees_with_the_batched_run(
        design in 0usize..9,
        n in 1i64..=4,
        seed in 0u64..1000,
    ) {
        check_row(&Case::corpus(design, n, seed), &[&ORACLE, &COUNT_LAW, &KERNELS]);
    }
}
