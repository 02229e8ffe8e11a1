//! The ladder: every rung `simulate` can take (see the diagram in
//! `docs/scheduler.md`). Which rung engages, the oracle's store on each,
//! the count law between them and one elaboration per (design, size,
//! data, protocol variant) are columns of `tests/matrix.rs`, and so are
//! the wavefront plan's own invariants (windows tile the processes,
//! every edge stays in a chunk or climbs a wave, chunks are strongly
//! connected); the tests of those names below run their columns on the
//! rows their loops reached.
//!
//! Beside them: the shipped `programs/matmul.sys` at the sizes where one
//! channel carries a load value and a recover value, a hand-built
//! channel busier than its ring, and the run arena reused across the
//! corpus.

mod common;

use common::matrix::{check_row, Case, KERNELS};
use common::{assert_count_law, check_wavefront_plan, check_wavefront_plans, CORPUS};
use std::sync::Arc;
use systolizer::interp::{simulate_verified, ElabOptions, ModuleStore, SimSpec};
use systolizer::runtime::{analyze, analyze_wavefront, ProcIrBuilder, ProcOp, WAVEFRONT_RING_CAP};

matrix_rows!(
    every_rung_matches_the_oracle_with_the_documented_engagement,
    the_wavefront_plan_keeps_its_invariants_on_every_design,
);

/// `programs/matmul.sys` on the array `derive_array` picks loads and
/// recovers the stationary `c` over the links `b` flows against. At
/// n = 1 channel 1 carries `comp@(0,0)`'s load `Pass` value *and* its
/// recover `Eject` value: an endpoint map per channel (last writer wins)
/// staged `comp@(1,0)`'s `Keep` before the value it waits for and
/// deadlocked, and one node per process made every column a cycle. Every
/// rung completes with the oracle's store, the plan has no cycle left,
/// and the compiled kernels take all `(n + 1)²` repeaters.
#[test]
fn the_shipped_matmul_takes_the_kernels_where_one_channel_carries_two_phases() {
    let src = include_str!("../programs/matmul.sys");
    let sys = systolizer::systolize_source(src, &Default::default()).unwrap();
    for n in [1i64, 2] {
        let env = sys.size_env(&[n]).unwrap();
        let store = systolizer::interp::seeded_store(&sys.plan, &env, &["a", "b", "c"], 31);
        let ms = ModuleStore::new();
        let (plan, label) = (&sys.plan, format!("matmul.sys n={n}"));
        // One plan: the elaborator emits no zero-count pass, and with no
        // relay to fuse the optimizer declines, so the fast plan is the
        // elaborated module's own.
        let cm = ms.module(plan, &env, &store, &ElabOptions::default());
        assert_eq!(check_wavefront_plans(&label, &cm.unwrap()), 1);
        let base = simulate_verified(&ms, plan, &env, &store, SimSpec::plain()).unwrap();
        for rung in [SimSpec::plain(), SimSpec::default()] {
            let run = simulate_verified(&ms, plan, &env, &store, rung)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_count_law(&label, &base.stats, &run);
            let Some(k) = run.kernel else {
                continue;
            };
            assert_eq!(k.eligible_chunks, ((n + 1) * (n + 1)) as u64, "{label}");
            assert_eq!(
                k.iterations,
                ((n + 1) * (n + 1) * (n + 1)) as u64,
                "{label}"
            );
            let cyclic = |(r, _): &(String, u64)| r.contains("cyclic chunk");
            assert!(
                !k.fallbacks.iter().any(cyclic),
                "{label}: {:?}",
                k.fallbacks
            );
        }
    }
}

/// The corpus sizes never fill a ring, so the back-pressure half of
/// [`check_wavefront_plan`] gets a module of its own: channel 1 carries a
/// load phase of exactly the clamp and one recover value behind it, cut
/// at the same value on both sides. The eject blocks on the full ring
/// until the far load pass drains it, and no edge joins those two.
#[test]
fn the_wavefront_plan_wakes_a_sender_blocked_on_a_full_ring() {
    let n = WAVEFRONT_RING_CAP;
    let mut b = ProcIrBuilder::new();
    for (label, inp, out) in [("a", 0, 1), ("b", 1, 2)] {
        b.begin(label);
        b.op(ProcOp::Pass { inp, out, n });
        b.op(ProcOp::Compute { count: 1 });
        match label {
            "a" => b.op(ProcOp::Eject { chan: out, slot: 0 }),
            _ => b.op(ProcOp::Pass { inp, out, n: 1 }),
        }
        b.repeater(&[], &[0], &[1], 1);
        b.finish();
    }
    b.source(0, &vec![3; n as usize], "in");
    b.sink(2, n as usize + 1, "out");
    let m = b.build();
    let batch = analyze(&m).unwrap();
    let wf = analyze_wavefront(&m, &batch, &[]);
    assert!(batch.traffic[1] > wf.capacities[1], "channel 1 can fill");
    check_wavefront_plan("full ring", &m, &batch, &wf);
}

/// The fast rung keeps one run arena per thread and resets it per run
/// (`crates/runtime/src/arena.rs`), whatever ran before. Every corpus
/// design at a large, the smallest and a middling size, in that order,
/// with kernels and on the scalar sweep alone, on one thread — the arena
/// grows, shrinks and regrows under ten designs in turn — and each store
/// and `RunStats` equals the same calls made on a new thread, whose arena
/// nothing has touched.
#[test]
fn a_reused_run_arena_is_indistinguishable_from_a_fresh_one() {
    for design in 0..=CORPUS {
        for n in [5i64, 1, 3] {
            let ms = Arc::new(ModuleStore::new());
            let run = || {
                let case = Case::corpus(design, n, 17).sharing(&ms);
                check_row(&case, &[&KERNELS]);
                let fast = case.fast().unwrap();
                (fast.store.clone(), fast.stats.clone())
            };
            let reused = run();
            let fresh = std::thread::scope(|s| s.spawn(run).join().unwrap());
            assert!(reused == fresh, "design {design} n={n}");
        }
    }
}
