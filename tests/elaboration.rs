//! The production elaboration (`elaborate_skeleton` + `instantiate`,
//! the only network construction) checked against evaluators it shares
//! no code with — the brute-force index-space scan and the plan's
//! rational `Piecewise` forms — on every corpus design, at several
//! sizes, under every protocol variant; and the module store in front
//! of it, which must never change a result, however warm.

mod common;

use common::{assert_kernels_match_the_scalar_sweep, option_variants, prepared, CORPUS};
use proptest::prelude::*;
use systolizer::core::{compile, Options, StreamKind};
use systolizer::interp::runtime_gen::agree_with_procir;
use systolizer::interp::{elaborate, simulate, BatchMode, ElabOptions, ModuleStore, SimSpec};
use systolizer::ir::{seq, HostStore};
use systolizer::math::Env;
use systolizer::runtime::{optimize, ProcOp};
use systolizer::synthesis::placement::paper;

#[test]
fn elaboration_agrees_with_the_scan_and_the_symbolic_plan_across_the_corpus() {
    for design in 0..=CORPUS {
        for n in [1i64, 2, 3, 5] {
            let (plan, env, store) = prepared(design, n, 7);
            let cs: Vec<Vec<i64>> = plan
                .ps_points(&env)
                .into_iter()
                .filter(|y| plan.in_cs(&env, y))
                .collect();
            let moving = plan
                .streams
                .iter()
                .filter(|sp| sp.kind == StreamKind::Moving)
                .count();
            for (opts_label, opts) in option_variants() {
                let ctx = format!("design {design} ({}) n={n} {opts_label}", plan.source.name);
                let el =
                    elaborate(&plan, &env, &store, &opts).unwrap_or_else(|e| panic!("{ctx}: {e}"));

                // (a) Soak / count / drain against the index-space scan.
                // Under split propagation they live in the escorts, not
                // in the computation process the scan decodes.
                if !opts.split_propagation {
                    assert_eq!(
                        agree_with_procir(&plan, &env, &el),
                        Ok(el.comp_at().len()),
                        "{ctx}: scan"
                    );
                }

                // (b) CS membership, `first` and `count` against the
                // plan's rational piecewise evaluators.
                let points: Vec<Vec<i64>> = el.comp_at().map(|(y, _)| y.to_vec()).collect();
                assert_eq!(points, cs, "{ctx}: CS points");
                for (y, pid) in el.comp_at() {
                    assert_eq!(
                        Some(el.module.first_of(pid)),
                        plan.first_at(&env, y).as_deref(),
                        "{ctx}: first at {y:?}"
                    );
                    let counts: Vec<u64> = el
                        .module
                        .ops_of(pid)
                        .iter()
                        .filter_map(|op| match op {
                            ProcOp::Compute { count } => Some(*count),
                            _ => None,
                        })
                        .collect();
                    assert_eq!(
                        counts,
                        [plan.count_at(&env, y) as u64],
                        "{ctx}: count at {y:?}"
                    );
                }

                // (c) Census laws.
                let c = &el.census;
                assert_eq!(c.inputs, c.outputs, "{ctx}");
                assert_eq!(c.computation, cs.len(), "{ctx}");
                assert_eq!(
                    el.module.procs.len(),
                    c.computation
                        + c.escorts
                        + c.external_buffers
                        + c.internal_buffers
                        + c.inputs
                        + c.outputs,
                    "{ctx}: process total"
                );
                let escorts = if opts.split_propagation {
                    2 * moving * c.computation
                } else {
                    0
                };
                assert_eq!(c.escorts, escorts, "{ctx}");
                if !opts.internal_buffers {
                    assert_eq!(c.internal_buffers, 0, "{ctx}");
                }
                if opts.merge_io {
                    assert_eq!(c.inputs, plan.streams.len(), "{ctx}: one source per stream");
                    assert_eq!(c.outputs, plan.streams.len(), "{ctx}: one sink per stream");
                }
            }
        }
    }
}

/// A zero-count pass has nothing to run, and the elaborator emits none:
/// not for a soak, drain, load or recover count of 0, nor for the relays
/// of a zero-length pipe, which stay processes without ops. So the
/// optimizer finds no zero-count op to drop in any elaborated module.
#[test]
fn no_elaborated_module_holds_a_zero_count_pass() {
    for design in 0..=CORPUS {
        for n in [0i64, 1, 2, 3, 5] {
            let (plan, env, store) = prepared(design, n, 7);
            for (opts_label, opts) in option_variants() {
                let ctx = format!("design {design} ({}) n={n} {opts_label}", plan.source.name);
                let el =
                    elaborate(&plan, &env, &store, &opts).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                for pid in 0..el.module.procs.len() {
                    let zero = |op: &&ProcOp| matches!(op, ProcOp::Pass { n: 0, .. });
                    let found = el.module.ops_of(pid).iter().find(zero);
                    assert_eq!(found, None, "{ctx}: {}", el.module.label_of(pid));
                }
                if let Some((o, _)) = optimize(&el.module, &el.channels) {
                    assert_eq!(o.report.zero_ops_dropped, 0, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn warm_cache_runs_bit_match_cold_runs_across_engine_modes() {
    // Twice through every batch configuration: the second run is a
    // guaranteed module-store hit and must return the same store and
    // stats as the first (a miss or a hit from another test — either
    // way the sequential oracle pins correctness). The warm entry's fast
    // plan then runs with its kernels and on the scalar sweep alone.
    for design in 0..=CORPUS {
        let problem = prepared(design, 3, 23);
        let (plan, env, store) = &problem;
        let mut expected = store.clone();
        seq::run(&plan.source, env, &mut expected);
        for batch in [BatchMode::Auto, BatchMode::Off] {
            let ctx = format!("design {design} ({}) {batch:?}", plan.source.name);
            let run_once = || {
                let spec = SimSpec {
                    batch,
                    ..SimSpec::default()
                };
                simulate(ModuleStore::global(), plan, env, store, spec)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"))
            };
            let cold = run_once();
            let warm = run_once();
            assert_eq!(cold.stats, warm.stats, "{ctx}: stats drift across hits");
            assert_eq!(cold.wavefront, warm.wavefront, "{ctx}");
            assert_eq!(cold.kernel, warm.kernel, "{ctx}");
            for name in expected.names() {
                assert_eq!(cold.store.get(name), expected.get(name), "{ctx}: {name}");
                assert_eq!(warm.store.get(name), cold.store.get(name), "{ctx}: {name}");
            }
        }
        let ctx = format!("design {design} warm");
        assert_kernels_match_the_scalar_sweep(&ctx, ModuleStore::global(), &problem);
    }
}

/// The store has no flush call: an entry leaves it by FIFO eviction, and
/// the next lookup of that configuration re-instantiates it.
#[test]
fn explicit_invalidation_dirties_and_regenerates() {
    let (p, a) = paper::polyprod_d1();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let at = |n: i64| {
        let mut env = Env::new();
        env.bind(plan.source.sizes[0], n);
        let store = HostStore::allocate(&plan.source, &env);
        (env, store)
    };
    let ms = ModuleStore::with_capacity(1, 1);
    let opts = ElabOptions::default();
    let (env4, store4) = at(4);
    ms.module(&plan, &env4, &store4, &opts).unwrap();
    ms.module(&plan, &env4, &store4, &opts).unwrap();
    let s = ms.stats();
    assert_eq!((s.module_misses, s.module_hits), (1, 1));
    let (env5, store5) = at(5);
    ms.module(&plan, &env5, &store5, &opts).unwrap();
    ms.module(&plan, &env4, &store4, &opts).unwrap();
    let s = ms.stats();
    assert_eq!(s.module_misses, 3, "an evicted entry must re-instantiate");
    assert_eq!(s.module_evictions, 2);
    assert_eq!(s.skeleton_misses, 1, "one skeleton serves every size");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..Default::default()
    })]

    /// Cache hits never change results — and a hit no longer means "the
    /// same data": for a random design, size, and two input seeds, both
    /// data sets run twice through the (global) module store, every run
    /// after the first a hit on an entry some *other* data instantiated.
    /// Each matches its own sequential reference, with identical stats.
    #[test]
    fn cache_hits_never_change_results(
        which in 0usize..4,
        n in 1i64..=4,
        seed in 0u64..100_000,
        other in 100_000u64..200_000,
    ) {
        let (label, p, a) = paper::all().remove(which);
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(plan.source.sizes[0], n);
        let mut stats = Vec::new();
        for seed in [seed, other, seed, other] {
            let store = systolizer::interp::seeded_store(&plan, &env, &["a", "b"], seed);
            let mut expected = store.clone();
            seq::run(&plan.source, &env, &mut expected);
            let run = simulate(ModuleStore::global(), &plan, &env, &store, SimSpec::plain())
                .map_err(|e| TestCaseError::fail(format!("{label} n={n} seed {seed}: {e}")))?;
            for name in expected.names() {
                prop_assert_eq!(
                    run.store.get(name), expected.get(name),
                    "{} n={} seed {} {}", label, n, seed, name
                );
            }
            stats.push(run.stats);
        }
        prop_assert!(stats.iter().all(|s| *s == stats[0]), "{} n={}", label, n);
    }
}

// Keep the executors honest about sharing: a wavefront run and a plain
// run of the same configuration must both be served by the same cached
// module (the elaboration happens at most once).
#[test]
fn all_executors_share_one_cached_module() {
    let (p, a) = paper::matmul_e1();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(plan.source.sizes[0], 2);
    let store = HostStore::allocate(&plan.source, &env);
    let ms = ModuleStore::new();
    let opts = ElabOptions::default();
    let first = ms.module(&plan, &env, &store, &opts).unwrap();
    let again = ms.module(&plan, &env, &store, &opts).unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&first.elab.module, &again.elab.module),
        "repeat lookups must share the very same Arc<ProcIrModule>"
    );
    for spec in [SimSpec::default(), SimSpec::plain()] {
        simulate(&ms, &plan, &env, &store, spec).unwrap();
    }
    assert_eq!(
        ms.stats().module_misses,
        1,
        "one elaboration serves them all"
    );
}
