//! Scheduler determinism regression: the event-driven cooperative
//! scheduler must produce bit-identical statistics run over run (its
//! worklist order is sorted, never arrival-dependent), and those
//! statistics are pinned to goldens so a scheduler change that silently
//! alters round structure — extra rounds, dropped messages, reordered
//! completion — fails here rather than only shifting benchmark numbers.
//!
//! The golden tuples are `(processes, rounds, messages, steps)` as
//! captured from the seed (pre-event-driven) scheduler; the rewrite is
//! required to preserve them exactly.

mod common;

use common::verify;
use systolizer::core::{compile, Options};
use systolizer::interp::{seeded_store, simulate, ExecutorChoice, ModuleStore, SimSpec};
use systolizer::ir::gallery;
use systolizer::math::Env;
use systolizer::runtime::{FifoPolicy, RunStats};
use systolizer::synthesis::{derive_array, placement::paper};

fn golden(processes: usize, rounds: u64, messages: u64, steps: u64) -> RunStats {
    RunStats {
        rounds,
        messages,
        processes,
        steps,
    }
}

#[test]
fn paper_designs_are_deterministic_and_match_goldens() {
    let goldens = [
        ("D.1", golden(16, 44, 139, 244)),
        ("D.2", golden(24, 70, 235, 444)),
        ("E.1", golden(55, 36, 450, 705)),
        ("E.2", golden(191, 22, 710, 1111)),
    ];
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 4);
        let stats = || {
            verify(&plan, &env, &["a", "b"], 11, SimSpec::plain())
                .unwrap()
                .stats
        };
        let (first, second) = (stats(), stats());
        assert_eq!(first, second, "{label}: two runs disagree");
        let want = &goldens
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no golden for paper design {label}"))
            .1;
        assert_eq!(&first, want, "{label}: stats drifted from the seed golden");
    }
}

/// All three executors drive the same ProcIR bytecode, so on every paper
/// design they must recover bit-identical host stores and move exactly
/// the golden message/step counts; only `rounds` is scheduler-specific
/// (the threaded executors report 0 — there is no virtual clock).
#[test]
fn executors_agree_bit_for_bit_on_paper_designs() {
    let goldens = [
        ("D.1", golden(16, 44, 139, 244)),
        ("D.2", golden(24, 70, 235, 444)),
        ("E.1", golden(55, 36, 450, 705)),
        ("E.2", golden(191, 22, 710, 1111)),
    ];
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 4);
        let store = seeded_store(&plan, &env, &["a", "b"], 11);

        let ms = ModuleStore::global();
        let run = |executor| {
            let spec = SimSpec {
                executor,
                ..SimSpec::plain()
            };
            simulate(ms, &plan, &env, &store, spec).unwrap()
        };
        let coop = run(ExecutorChoice::Coop);
        let want = &goldens.iter().find(|(l, _)| *l == label).unwrap().1;
        assert_eq!(&coop.stats, want, "{label}: cooperative stats drifted");

        let threaded = run(ExecutorChoice::Threaded);
        assert_eq!(threaded.store, coop.store, "{label}: threaded store");
        assert_eq!(threaded.stats.messages, want.messages, "{label}");
        assert_eq!(threaded.stats.steps, want.steps, "{label}");
        assert_eq!(threaded.stats.rounds, 0, "{label}: no virtual clock");

        for workers in [1usize, 3] {
            let part = run(ExecutorChoice::Partitioned { workers });
            assert_eq!(part.store, coop.store, "{label} w={workers}: store");
            assert_eq!(part.stats.messages, want.messages, "{label} w={workers}");
            assert_eq!(part.stats.steps, want.steps, "{label} w={workers}");
        }
    }
}

/// The DST schedule hook must be invisible when the policy is FIFO: a
/// run with an explicit [`FifoPolicy`] attached is bit-identical — same
/// recovered store, same round/message/step counts — to the unhooked
/// engine, and both still match the pre-hook seed goldens above. This
/// pins the "policy attached but inert" path, so the hook itself can
/// never perturb the schedule it observes.
#[test]
fn coop_under_explicit_fifo_policy_matches_pre_hook_goldens() {
    let goldens = [
        ("D.1", golden(16, 44, 139, 244)),
        ("D.2", golden(24, 70, 235, 444)),
        ("E.1", golden(55, 36, 450, 705)),
        ("E.2", golden(191, 22, 710, 1111)),
    ];
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 4);
        let store = seeded_store(&plan, &env, &["a", "b"], 11);

        let ms = ModuleStore::global();
        let bare = simulate(ms, &plan, &env, &store, SimSpec::plain()).unwrap();
        let spec = SimSpec {
            sched: Some(Box::new(FifoPolicy)),
            ..SimSpec::plain()
        };
        let hooked = simulate(ms, &plan, &env, &store, spec).unwrap();
        assert_eq!(hooked.store, bare.store, "{label}: FIFO policy moved data");
        assert_eq!(hooked.stats, bare.stats, "{label}: FIFO policy cost stats");
        let want = &goldens.iter().find(|(l, _)| *l == label).unwrap().1;
        assert_eq!(&hooked.stats, want, "{label}: drifted from seed golden");
    }
}

/// Runs with an observer attached or a non-FIFO schedule policy must
/// take the *unbatched* engine even under `BatchMode::Auto` (see
/// `docs/scheduler.md`): their stats equal the seed goldens exactly —
/// including `rounds`, which the batching fast path would collapse — and
/// the run reports `batched == false`. This pins the engagement gate to
/// the goldens, so a gate regression shows up as a round-count drift
/// here rather than as silently unobserved runs.
#[test]
fn recorder_and_non_fifo_runs_stay_on_the_unbatched_goldens() {
    use systolizer::runtime::{shared, ChanId, MetricsRecorder, SchedulePolicy};

    struct ReversePolicy;
    impl SchedulePolicy for ReversePolicy {
        fn schedule_round(
            &mut self,
            _round: u64,
            fire: &mut Vec<ChanId>,
            _defer: &mut Vec<ChanId>,
        ) {
            fire.reverse();
        }
    }

    let goldens = [
        ("D.1", golden(16, 44, 139, 244)),
        ("D.2", golden(24, 70, 235, 444)),
        ("E.1", golden(55, 36, 450, 705)),
        ("E.2", golden(191, 22, 710, 1111)),
    ];
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 4);
        let store = seeded_store(&plan, &env, &["a", "b"], 11);
        let want = &goldens.iter().find(|(l, _)| *l == label).unwrap().1;

        let (_, recorder) = shared(MetricsRecorder::new());
        let ms = ModuleStore::global();
        let spec = SimSpec {
            recorders: vec![recorder],
            ..SimSpec::default()
        };
        let observed = simulate(ms, &plan, &env, &store, spec).unwrap();
        assert!(!observed.wavefront, "{label}: recorder must close the gate");
        assert_eq!(&observed.stats, want, "{label}: observed run drifted");

        let spec = SimSpec {
            sched: Some(Box::new(ReversePolicy)),
            ..SimSpec::default()
        };
        let perturbed = simulate(ms, &plan, &env, &store, spec).unwrap();
        assert!(!perturbed.wavefront, "{label}: policy must close the gate");
        assert_eq!(
            (perturbed.stats.messages, perturbed.stats.steps),
            (want.messages, want.steps),
            "{label}: perturbed run lost logical invariance"
        );
        assert_eq!(perturbed.store, observed.store, "{label}: stores differ");
    }
}

#[test]
fn gallery_programs_are_deterministic_and_match_goldens() {
    let goldens = [
        ("polynomial_product", golden(14, 39, 103, 188)),
        ("matrix_product", golden(40, 32, 240, 392)),
        ("matrix_product_bt", golden(40, 32, 240, 392)),
        ("fir_filter", golden(14, 39, 103, 188)),
        ("tensor_contraction", golden(160, 32, 960, 1568)),
    ];
    for p in gallery::all() {
        let a = derive_array(&p, 2, 4).unwrap();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        for &s in &p.sizes {
            env.bind(s, 3);
        }
        let inputs: Vec<&str> = match p.name.as_str() {
            "fir_filter" => vec!["h", "x"],
            _ => vec!["a", "b"],
        };
        let stats = || {
            verify(&plan, &env, &inputs, 11, SimSpec::plain())
                .unwrap()
                .stats
        };
        let (first, second) = (stats(), stats());
        assert_eq!(first, second, "{}: two runs disagree", p.name);
        let want = &goldens
            .iter()
            .find(|(l, _)| *l == p.name)
            .unwrap_or_else(|| panic!("no golden for gallery program {}", p.name))
            .1;
        assert_eq!(
            &first, want,
            "{}: stats drifted from the seed golden",
            p.name
        );
    }
}
