//! The binding suite: an instantiated module is code for a (program,
//! options, size, store *shape*) — never for a data set — and every run
//! gathers its own data segment into it (`crates/interp/src/cache.rs`,
//! `docs/elaboration.md`).
//!
//! That N data sets of one shape through one `ModuleStore` are one
//! instantiation per protocol variant on every rung, each result
//! bit-equal to its own sequential oracle, and that the optimizer keeps
//! the data segment, is the `binding` column of `tests/matrix.rs` (every
//! row of one (design, sizes) shares one store); the tests of those names
//! below run it on the rows their loops reached. Here by hand: another shape
//! is another entry; a store that lacks a variable is a structured error
//! on a warm store; and the counters stay exact when eight threads
//! bring eight data sets at once.

mod common;

use common::matrix::{check_row, Case, KERNELS, ORACLE};
use common::{prepared, CORPUS};
use std::sync::Arc;
use systolizer::interp::{
    simulate, simulate_verified, ElabError, ElabOptions, ExecError, ModuleStore, SimSpec,
};
use systolizer::ir::{HostArray, HostStore};

matrix_rows!(
    data_sets_of_one_shape_share_one_module_on_every_rung,
    the_optimizer_keeps_the_data_segment_word_for_word_on_the_corpus,
);

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
    let ms = Arc::new(ModuleStore::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let ms = &ms;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for design in designs {
                        // A seed nobody else uses: every run is new data.
                        let seed = 1000 * t + 10 * round + design as u64;
                        let (plan, env, store) = &prepared(design, 4, seed);
                        let ctx = format!("thread {t} round {round} design {design}");
                        let spec = match round % 3 {
                            0 => SimSpec::default(),
                            1 => SimSpec::plain(),
                            // The kernels and the scalar sweep, each over
                            // this run's data (three module lookups).
                            _ => {
                                let case = Case::corpus(design, 4, seed).sharing(ms);
                                check_row(&case, &[&ORACLE, &KERNELS]);
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
