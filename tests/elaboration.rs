//! Differential suite for two-phase elaboration: across the whole
//! design gallery, `elaborate_skeleton` + `instantiate` must be
//! **bit-identical** to the direct single-phase `elaborate` — same
//! module structure, same output maps, same census and endpoint tables
//! — at every size and under every protocol variant. The direct
//! elaborator is the oracle; the module store in front of the two-phase
//! path must never change a result, however warm.

use proptest::prelude::*;
use systolizer::core::{compile, Options, SystolicProgram};
use systolizer::interp::{
    elaborate, elaborate_skeleton, instantiate, simulate, BatchMode, ElabOptions, ExecutorChoice,
    ModuleStore, OptMode, SimSpec, WavefrontMode,
};
use systolizer::ir::{seq, HostStore};
use systolizer::math::Env;
use systolizer::synthesis::placement::paper;

/// The same gallery as `tests/oracle.rs`: the four appendix designs
/// plus the FIR filter on a derived array and the shipped `fir.sys`
/// through the full front end.
struct Design {
    label: &'static str,
    plan: SystolicProgram,
    inputs: Vec<&'static str>,
    sizes: Vec<Vec<i64>>,
}

fn designs() -> Vec<Design> {
    let mut out = Vec::new();
    for (label, p, a) in paper::all() {
        out.push(Design {
            label,
            plan: compile(&p, &a, &Options::default()).unwrap(),
            inputs: vec!["a", "b"],
            sizes: if label.starts_with("matmul") {
                vec![vec![1], vec![2], vec![4]]
            } else {
                vec![vec![1], vec![3], vec![6]]
            },
        });
    }
    let p = systolizer::ir::gallery::fir_filter();
    let a = systolizer::synthesis::derive_array(&p, 2, 4).unwrap();
    out.push(Design {
        label: "fir",
        plan: compile(&p, &a, &Options::default()).unwrap(),
        inputs: vec!["h", "x"],
        sizes: vec![vec![1, 2], vec![2, 5], vec![3, 4]],
    });
    let sys = systolizer::systolize_source(
        include_str!("../programs/fir.sys"),
        &systolizer::SystolizeOptions::default(),
    )
    .unwrap();
    out.push(Design {
        label: "fir.sys",
        plan: sys.plan,
        inputs: vec!["h", "x"],
        sizes: vec![vec![1, 2], vec![2, 5], vec![3, 4]],
    });
    out
}

fn size_env(plan: &SystolicProgram, vals: &[i64]) -> Env {
    let mut env = Env::new();
    for (&s, &v) in plan.source.sizes.iter().zip(vals) {
        env.bind(s, v);
    }
    env
}

fn seeded_store(d: &Design, env: &Env, seed: u64) -> HostStore {
    systolizer::interp::seeded_store(&d.plan, env, &d.inputs, seed)
}

/// Every elaboration-options variant the executors can request.
fn option_variants() -> Vec<(&'static str, ElabOptions)> {
    vec![
        ("default", ElabOptions::default()),
        (
            "split_propagation",
            ElabOptions {
                split_propagation: true,
                ..Default::default()
            },
        ),
        (
            "merge_io",
            ElabOptions {
                merge_io: true,
                ..Default::default()
            },
        ),
        (
            "no_internal_buffers",
            ElabOptions {
                internal_buffers: false,
                ..Default::default()
            },
        ),
    ]
}

#[test]
fn two_phase_elaboration_is_bit_identical_across_the_gallery() {
    for d in designs() {
        for (opts_label, opts) in option_variants() {
            let skel = elaborate_skeleton(&d.plan, &opts);
            for sizes in &d.sizes {
                let env = size_env(&d.plan, sizes);
                let store = seeded_store(&d, &env, 7);
                let ctx = format!("{} {opts_label} sizes={sizes:?}", d.label);
                let direct = elaborate(&d.plan, &env, &store, &opts)
                    .unwrap_or_else(|e| panic!("{ctx}: direct: {e}"));
                let two_phase = instantiate(&skel, &env, &store)
                    .unwrap_or_else(|e| panic!("{ctx}: two-phase: {e}"));
                assert!(
                    direct.module.same_structure(&two_phase.module),
                    "{ctx}: module structure diverges"
                );
                assert_eq!(direct.outputs, two_phase.outputs, "{ctx}: output maps");
                assert_eq!(direct.census, two_phase.census, "{ctx}: census");
                assert_eq!(direct.endpoints, two_phase.endpoints, "{ctx}: endpoints");
                assert_eq!(direct.comp_at, two_phase.comp_at, "{ctx}: comp table");
            }
        }
    }
}

#[test]
fn warm_cache_runs_bit_match_cold_runs_across_engine_modes() {
    // Twice through every (batch, opt) configuration: the second run is
    // a guaranteed module-store hit and must return the same store and
    // stats as the first (a miss or a hit from another test — either
    // way the sequential oracle pins correctness).
    for d in designs() {
        let sizes = &d.sizes[1];
        let env = size_env(&d.plan, sizes);
        let store = seeded_store(&d, &env, 23);
        let mut expected = store.clone();
        seq::run(&d.plan.source, &env, &mut expected);
        for (batch, opt, wavefront) in [
            (BatchMode::Auto, OptMode::Auto, WavefrontMode::Auto),
            (BatchMode::Auto, OptMode::Auto, WavefrontMode::Off),
            (BatchMode::Auto, OptMode::Off, WavefrontMode::Auto),
            (BatchMode::Auto, OptMode::Off, WavefrontMode::Off),
            (BatchMode::Off, OptMode::Off, WavefrontMode::Off),
        ] {
            let ctx = format!(
                "{} sizes={sizes:?} {batch:?}/{opt:?}/{wavefront:?}",
                d.label
            );
            let run_once = || {
                let spec = SimSpec {
                    batch,
                    opt,
                    wavefront,
                    ..SimSpec::default()
                };
                simulate(ModuleStore::global(), &d.plan, &env, &store, spec)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"))
            };
            let cold = run_once();
            let warm = run_once();
            assert_eq!(cold.stats, warm.stats, "{ctx}: stats drift across hits");
            assert_eq!(cold.batched, warm.batched, "{ctx}");
            assert_eq!(cold.wavefront, warm.wavefront, "{ctx}");
            for name in expected.names() {
                assert_eq!(cold.store.get(name), expected.get(name), "{ctx}: {name}");
                assert_eq!(warm.store.get(name), cold.store.get(name), "{ctx}: {name}");
            }
        }
    }
}

#[test]
fn explicit_invalidation_dirties_and_regenerates() {
    let (p, a) = paper::polyprod_d1();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(plan.source.sizes[0], 4);
    let store = HostStore::allocate(&plan.source, &env);
    let ms = ModuleStore::new();
    let opts = ElabOptions::default();
    ms.module(&plan, &env, &store, &opts).unwrap();
    ms.module(&plan, &env, &store, &opts).unwrap();
    let s = ms.stats();
    assert_eq!((s.module_misses, s.module_hits), (1, 1));
    let g0 = ms.generation();
    ms.invalidate();
    assert_eq!(ms.generation(), g0 + 1, "invalidation bumps the generation");
    ms.module(&plan, &env, &store, &opts).unwrap();
    let s = ms.stats();
    assert_eq!(s.module_misses, 2, "flushed entries must re-instantiate");
    assert_eq!(s.skeleton_misses, 2, "skeletons are flushed too");
    assert_eq!(s.generation, 1, "generation is part of the stats snapshot");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..Default::default()
    })]

    /// Cache hits never change results: for a random design, size, and
    /// input seed, running twice through the (global) module store —
    /// second run a guaranteed hit — matches the sequential reference
    /// both times, with identical stats.
    #[test]
    fn cache_hits_never_change_results(
        which in 0usize..4,
        n in 1i64..=4,
        seed in 0u64..100_000,
    ) {
        let (label, p, a) = paper::all().remove(which);
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(plan.source.sizes[0], n);
        let store = systolizer::interp::seeded_store(&plan, &env, &["a", "b"], seed);
        let mut expected = store.clone();
        seq::run(&plan.source, &env, &mut expected);
        let run = || {
            simulate(ModuleStore::global(), &plan, &env, &store, SimSpec::plain())
                .map_err(|e| TestCaseError::fail(format!("{label} n={n}: {e}")))
        };
        let (first, second) = (run()?, run()?);
        prop_assert_eq!(&first.stats, &second.stats);
        for name in expected.names() {
            prop_assert_eq!(first.store.get(name), expected.get(name), "{} n={} {}", label, n, name);
            prop_assert_eq!(second.store.get(name), expected.get(name), "{} n={} {}", label, n, name);
        }
    }
}

// Keep the executors honest about sharing: a threaded and a partitioned
// run after a coop run of the same configuration must all be served by
// the same cached module (the elaboration happens at most once).
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
    for executor in [
        ExecutorChoice::Coop,
        ExecutorChoice::Threaded,
        ExecutorChoice::Partitioned { workers: 2 },
    ] {
        let spec = SimSpec {
            executor,
            ..SimSpec::default()
        };
        simulate(&ms, &plan, &env, &store, spec).unwrap();
    }
    assert_eq!(
        ms.stats().module_misses,
        1,
        "one elaboration serves them all"
    );
}
