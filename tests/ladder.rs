//! The ladder matrix: every rung `simulate` can take (see the diagram in
//! `docs/scheduler.md`), on every design of the corpus, through
//! `simulate_verified` — so each run is compared with the sequential
//! reference — off one private `ModuleStore` per (design, size).
//!
//! Pinned per rung: which of `wavefront` /
//! `kernel` / `opt` engaged; the logical `messages`/`steps`/`processes`
//! of the plain engine less exactly what the optimizer's report itemizes
//! (the count law, `common::assert_count_law`); one elaboration per
//! (design, size, data, protocol variant) however many rungs ran.
//!
//! Beside it, the wavefront plan's own invariants (windows tile the
//! processes, every edge stays in a chunk or climbs a wave, chunks are
//! strongly connected) on every design, raw and optimized, and the
//! shipped `programs/matmul.sys` at the sizes where one channel carries a
//! load value and a recover value, and a hand-built channel busier than
//! its ring.

mod common;

use common::{
    assert_count_law, assert_kernels_match_the_scalar_sweep, check_wavefront_plan,
    check_wavefront_plans, prepared, rungs, CORPUS,
};
use systolizer::interp::{simulate_verified, BatchMode, ElabOptions, ModuleStore, SimSpec};
use systolizer::runtime::{
    analyze, analyze_wavefront, ChanId, FifoPolicy, ProcIrBuilder, ProcOp, SchedulePolicy,
    WAVEFRONT_RING_CAP,
};

/// Reverses each round's firing order and honestly reports
/// `is_fifo() == false`.
struct ReversePolicy;

impl SchedulePolicy for ReversePolicy {
    fn schedule_round(&mut self, _round: u64, fire: &mut Vec<ChanId>, _defer: &mut Vec<ChanId>) {
        fire.reverse();
    }

    fn label(&self) -> String {
        "reverse".into()
    }
}

#[test]
fn every_rung_matches_the_oracle_with_the_documented_engagement() {
    let mut fused_somewhere = false;
    // `..=`: the shipped `fir.sys` too, the second chain-fusion witness.
    for design in 0..=CORPUS {
        for n in [2i64, 4] {
            let problem = prepared(design, n, 23);
            let (plan, env, store) = &problem;
            let ms = ModuleStore::new();
            let verified = |ctx: &str, spec: SimSpec| {
                simulate_verified(&ms, plan, env, store, spec)
                    .unwrap_or_else(|e| panic!("design {design} n={n} {ctx}: {e}"))
            };
            let base = verified("plain", SimSpec::plain());
            assert!(!base.wavefront && base.opt.is_none());
            assert!(base.kernel.is_none());

            // Whether the optimizer rewrites this module: the first
            // rung that may say so decides, every later one must agree.
            let mut fuses = None;
            for rung in rungs() {
                let ctx = format!("design {design} n={n} {rung:?}");
                let run = verified(&format!("{rung:?}"), rung.spec());
                let wavefront = rung.batch == BatchMode::Auto;
                assert_eq!(run.wavefront, wavefront, "{ctx}: wavefront");
                assert_eq!(run.kernel.is_some(), wavefront, "{ctx}: kernel report");
                if wavefront {
                    let fused = run.opt.is_some();
                    assert_eq!(*fuses.get_or_insert(fused), fused, "{ctx}: opt flips");
                    assert!(
                        run.stats.rounds <= base.stats.rounds,
                        "{ctx}: a fast path must not add scheduler rounds"
                    );
                } else {
                    assert!(run.opt.is_none(), "{ctx}: the optimizer rides the gate");
                }
                if wavefront {
                    // Its kernels against the scalar sweep of the same plan.
                    let agreed = assert_kernels_match_the_scalar_sweep(&ctx, &ms, &problem);
                    assert_eq!(agreed.kernel, run.kernel, "{ctx}");
                }
                // The plain engine's counts, less exactly what the
                // optimizer's report itemizes.
                assert_count_law(&ctx, &base.stats, &run);
                if let Some(r) = &run.opt {
                    fused_somewhere |= r.fused_relays() > 0;
                    assert_eq!(run.stats.processes, r.processes_after, "{ctx}");
                }
            }

            // What closes the gate besides `batch: Off`, and what does not.
            let adversarial = verified(
                "reverse",
                SimSpec {
                    sched: Some(Box::new(ReversePolicy)),
                    ..SimSpec::default()
                },
            );
            assert!(
                !adversarial.wavefront,
                "a non-FIFO schedule closes the gate"
            );
            assert_eq!(adversarial.stats.messages, base.stats.messages);
            assert_eq!(adversarial.stats.steps, base.stats.steps);
            let fifo = verified(
                "fifo",
                SimSpec {
                    sched: Some(Box::new(FifoPolicy)),
                    ..SimSpec::default()
                },
            );
            assert!(fifo.wavefront, "the identity policy keeps the gate open");
            assert_eq!(ms.stats().module_misses, 1, "design {design} n={n}");

            // Protocol variants are different networks: one more
            // elaboration each, shared by the plain and the default rung.
            // Merged host i/o is pinned on the appendix designs only (the
            // fuzz suite documents where it can deadlock elsewhere).
            let split = ElabOptions {
                split_propagation: true,
                ..Default::default()
            };
            let merged = ElabOptions {
                merge_io: true,
                ..Default::default()
            };
            let variants = [Some(split), (design < 4).then_some(merged)];
            for (i, elab) in variants.into_iter().flatten().enumerate() {
                let plain = verified(
                    "variant, plain",
                    SimSpec {
                        elab: elab.clone(),
                        ..SimSpec::plain()
                    },
                );
                let fast = verified(
                    "variant, default",
                    SimSpec {
                        elab,
                        ..SimSpec::default()
                    },
                );
                let ctx = format!("design {design} n={n} variant {i}");
                assert_count_law(&ctx, &plain.stats, &fast);
                assert_eq!(ms.stats().module_misses, 2 + i as u64);
            }
        }
    }
    assert!(fused_somewhere, "no corpus design engaged the optimizer");
}

/// `tests/common::check_wavefront_plan` on every corpus design (and
/// `fir.sys`) at four sizes, on the module as elaborated and on the
/// optimized one.
#[test]
fn the_wavefront_plan_keeps_its_invariants_on_every_design() {
    let mut optimized = 0;
    for design in 0..=CORPUS {
        for n in [1i64, 2, 3, 5] {
            let label = format!("design {design} n={n}");
            let checked =
                check_wavefront_plans(&label, &ModuleStore::new(), &prepared(design, n, 5));
            assert!(checked >= 1, "{label}: the corpus is batchable");
            optimized += checked - 1;
        }
    }
    assert!(optimized > 0, "no optimized module was checked");
}

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
        let problem = (sys.plan.clone(), env, store);
        let label = format!("matmul.sys n={n}");
        // One plan: the elaborator emits no zero-count pass, and with no
        // relay to fuse the optimizer declines, so the fast plan is the
        // elaborated module's own.
        assert_eq!(check_wavefront_plans(&label, &ms, &problem), 1, "{label}");
        let (plan, env, store) = &problem;
        let base = simulate_verified(&ms, plan, env, store, SimSpec::plain()).unwrap();
        for rung in rungs() {
            let run = simulate_verified(&ms, plan, env, store, rung.spec())
                .unwrap_or_else(|e| panic!("{label} {rung:?}: {e}"));
            assert_count_law(&format!("{label} {rung:?}"), &base.stats, &run);
            let Some(k) = run.kernel else {
                continue;
            };
            assert_eq!(
                k.eligible_chunks,
                ((n + 1) * (n + 1)) as u64,
                "{label} {rung:?}"
            );
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
    let batch = analyze(&m);
    assert!(batch.batchable(), "{:?}", batch.reject_reason());
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
            let problem = prepared(design, n, 17);
            let ms = ModuleStore::new();
            let ctx = format!("design {design} n={n}");
            let run = || {
                let run = assert_kernels_match_the_scalar_sweep(&ctx, &ms, &problem);
                (run.store, run.stats)
            };
            let reused = run();
            let fresh = std::thread::scope(|s| s.spawn(run).join().unwrap());
            assert!(reused == fresh, "{ctx}");
        }
    }
}
