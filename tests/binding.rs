//! The binding suite: an instantiated module is code for a (program,
//! options, size, store *shape*) — never for a data set — and every run
//! gathers its own data segment into it (`crates/interp/src/cache.rs`,
//! `docs/elaboration.md`).
//!
//! Pinned here, on the design corpus of `tests/common`: N data sets of
//! one shape through one `ModuleStore` are one instantiation per protocol
//! variant on every rung of the ladder, each result bit-equal to its own
//! sequential oracle; another shape is another entry; a store that lacks
//! a variable is a structured error on a warm store; and the counters
//! stay exact when eight threads bring eight data sets at once.

mod common;

use common::{assert_kernels_match_the_scalar_sweep, prepared, rungs, CORPUS};
use systolizer::interp::{
    simulate, simulate_verified, ElabError, ElabOptions, ExecError, ModuleStore, SimSpec,
};
use systolizer::ir::{HostArray, HostStore};

const SEEDS: [u64; 3] = [5, 23, 9001];

/// The same design and size under each seed: stores of one shape.
fn data_sets(design: usize, n: i64) -> Vec<common::Prepared> {
    SEEDS.iter().map(|&s| prepared(design, n, s)).collect()
}

#[test]
fn data_sets_of_one_shape_share_one_module_on_every_rung() {
    for design in 0..=CORPUS {
        let sets = data_sets(design, 3);
        let (plan, env, _) = &sets[0];
        let ms = ModuleStore::new();
        let mut lookups = 0u64;
        let mut verified = |ctx: &str, store: &HostStore, spec: SimSpec| {
            lookups += 1;
            simulate_verified(&ms, plan, env, store, spec)
                .unwrap_or_else(|e| panic!("design {design} {ctx}: {e}"))
        };
        for rung in rungs() {
            // Logical counts belong to the network, not to the data.
            let runs: Vec<_> = sets
                .iter()
                .zip(SEEDS)
                .map(|((_, _, store), seed)| {
                    verified(&format!("seed {seed} {rung:?}"), store, rung.spec())
                })
                .collect();
            for run in &runs[1..] {
                assert_eq!(run.stats, runs[0].stats, "design {design} {rung:?}");
            }
            assert_ne!(
                runs[0].store, runs[1].store,
                "design {design} {rung:?}: two seeds, one result — stale data?"
            );
        }
        let mut variants = 1;
        assert_eq!(ms.stats().module_misses, variants, "design {design}");

        // Protocol variants are other networks: one instantiation each,
        // for every data set and both ends of the ladder. Merged host
        // i/o (one scripted source per stream, another segment order) is
        // pinned on the appendix designs only, as in `tests/ladder.rs`.
        let split = ElabOptions {
            split_propagation: true,
            ..Default::default()
        };
        let merged = ElabOptions {
            merge_io: true,
            ..Default::default()
        };
        for elab in [Some(split), (design < 4).then_some(merged)]
            .into_iter()
            .flatten()
        {
            variants += 1;
            for ((_, _, store), seed) in sets.iter().zip(SEEDS) {
                let plain = SimSpec {
                    elab: elab.clone(),
                    ..SimSpec::plain()
                };
                let fast = SimSpec {
                    elab: elab.clone(),
                    ..SimSpec::default()
                };
                verified(&format!("seed {seed} {elab:?} plain"), store, plain);
                verified(&format!("seed {seed} {elab:?} default"), store, fast);
            }
            assert_eq!(ms.stats().module_misses, variants, "design {design}");
        }
        let s = ms.stats();
        assert_eq!(s.module_hits, lookups - variants, "design {design}");
        assert_eq!(s.module_evictions, 0);
    }
}

#[test]
fn the_optimizer_keeps_the_data_segment_word_for_word_on_the_corpus() {
    let mut fused = 0;
    for design in 0..=CORPUS {
        for n in [2i64, 4] {
            let (plan, env, store) = prepared(design, n, 31);
            let cm = ModuleStore::new()
                .module(&plan, &env, &store, &ElabOptions::default())
                .unwrap();
            assert_eq!(cm.elab.gather(&store).unwrap(), cm.elab.module.data);
            let Some(od) = &cm.fast_plan().optimized else {
                continue;
            };
            fused += od.0.report.fused_relays();
            assert_eq!(
                od.0.module.data, cm.elab.module.data,
                "design {design} n={n}"
            );
        }
    }
    assert!(fused > 0, "no corpus design engaged chain fusion");
}

/// `store` with its first input array re-allocated one element wider in
/// the last dimension, the old contents in place.
fn widened(store: &HostStore, name: &str) -> HostStore {
    let old = store.get(name);
    let mut bounds = old.bounds();
    bounds.last_mut().unwrap().1 += 1;
    let wide = HostArray::from_fn(&bounds, |p| old.checked_get(p).unwrap_or(77));
    let mut out = store.clone();
    out.insert(name, wide);
    out
}

#[test]
fn another_shape_is_another_entry_and_a_missing_variable_a_structured_error() {
    for design in [0usize, 2, 3, CORPUS] {
        let (plan, env, store) = prepared(design, 4, 11);
        let input = if design == CORPUS { "h" } else { "a" };
        let ms = ModuleStore::new();
        simulate_verified(&ms, &plan, &env, &store, SimSpec::default()).unwrap();

        // A caller-made larger array: the recorded offsets of the first
        // entry do not fit it, so it gets its own — and the right answer.
        let wide = widened(&store, input);
        let run = simulate_verified(&ms, &plan, &env, &wide, SimSpec::default())
            .unwrap_or_else(|e| panic!("design {design}, wider {input}: {e}"));
        assert_eq!(run.store.get(input).len(), wide.get(input).len());
        assert_eq!(ms.stats().module_misses, 2, "design {design}");
        // Both entries stay warm, each for its own shape.
        simulate_verified(&ms, &plan, &env, &store, SimSpec::default()).unwrap();
        simulate_verified(&ms, &plan, &env, &wide, SimSpec::plain()).unwrap();
        let s = ms.stats();
        assert_eq!((s.module_misses, s.module_hits), (2, 2), "design {design}");

        // A store without one of the program's variables, on the warm
        // store: diagnosed, not a panic in the gather.
        let mut lacking = HostStore::new();
        for name in store.names().filter(|n| *n != input) {
            lacking.insert(name, store.get(name).clone());
        }
        match simulate(&ms, &plan, &env, &lacking, SimSpec::default()) {
            Err(ExecError::Elab(ElabError::MissingVariable { variable })) => {
                assert_eq!(variable, input)
            }
            Err(e) => panic!("design {design}: wrong error: {e}"),
            Ok(_) => panic!("design {design}: ran without {input}"),
        }
        // The warm entry itself refuses such a store the same way.
        let cm = ms
            .module(&plan, &env, &store, &ElabOptions::default())
            .unwrap();
        assert!(matches!(
            cm.elab.gather(&lacking),
            Err(ElabError::MissingVariable { .. })
        ));
    }
}

#[test]
fn eight_threads_with_distinct_data_share_one_entry_and_exact_counters() {
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 6;
    // E.1, E.2 and fir.sys: kernels, bidirectional streams, fused chains.
    let designs = [2usize, 3, CORPUS];
    let ms = ModuleStore::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let ms = &ms;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for design in designs {
                        // A seed nobody else uses: every run is new data.
                        let seed = 1000 * t + 10 * round + design as u64;
                        let problem = prepared(design, 4, seed);
                        let (plan, env, store) = &problem;
                        let ctx = format!("thread {t} round {round} design {design}");
                        let spec = match round % 3 {
                            0 => SimSpec::default(),
                            1 => SimSpec::plain(),
                            // The kernels and the scalar sweep, each over
                            // this run's data (three module lookups).
                            _ => {
                                assert_kernels_match_the_scalar_sweep(&ctx, ms, &problem);
                                continue;
                            }
                        };
                        simulate_verified(ms, plan, env, store, spec)
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    }
                }
            });
        }
    });
    let s = ms.stats();
    let n = designs.len() as u64;
    let lookups = (0..ROUNDS)
        .map(|r| if r % 3 == 2 { 3 } else { 1 })
        .sum::<u64>();
    assert_eq!(s.module_misses, n, "one instantiation per design: {s:?}");
    assert_eq!(s.module_hits, THREADS * lookups * n - n, "{s:?}");
    assert_eq!((s.skeleton_misses, s.skeleton_hits), (n, 0), "{s:?}");
    assert_eq!(s.module_evictions, 0);
}
