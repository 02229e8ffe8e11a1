//! The production elaboration (`elaborate_skeleton` + `instantiate`,
//! the only network construction) against evaluators it shares no code
//! with — the brute-force index-space scan and the plan's rational
//! `Piecewise` forms — and the elaborator's op law: the `scan` and
//! `channel law` columns of `tests/matrix.rs`, which the tests of those
//! names below run on the rows their loops reached (every corpus design,
//! several sizes, every protocol variant). Here by hand: the module
//! store in front of it, which must never change a result, however warm.

mod common;

use proptest::prelude::*;
use systolizer::core::{compile, Options};
use systolizer::interp::{simulate, ElabOptions, ModuleStore, SimSpec};
use systolizer::ir::{seq, HostStore};
use systolizer::math::Env;
use systolizer::synthesis::placement::paper;

matrix_rows!(
    elaboration_agrees_with_the_scan_and_the_symbolic_plan_across_the_corpus,
    no_elaborated_module_holds_a_zero_count_pass,
    warm_cache_runs_bit_match_cold_runs_across_engine_modes,
);

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
