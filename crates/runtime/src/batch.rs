//! The channel tables of a module — each channel's one producer, one
//! consumer and traffic — and the walk that checks them.
//!
//! The paper's processes are statically scheduled traces (DESIGN.md §3),
//! and every process on a pipe handles every element of that pipe: a
//! computation process soaks, computes and drains a moving stream
//! (soak + count + drain = n, eqs. 8–9), loads, drains, soaks and
//! recovers a stationary one (1 + drain + soak = n), and a relay passes
//! all n (eq. 10, and the `d − 1` internal buffers). So "one producer,
//! one consumer, the same traffic on both sides" is a theorem about the
//! elaborator, not a search: `systolic_interp::skeleton::instantiate`
//! writes the tables ([`BatchPlan`]) as it allocates each channel, from
//! the pipe counts it already evaluated, and checks the per-point law on
//! the values it emits (a violation is `ElabError::UnbalancedPipe`,
//! never a silent fallback). The optimizer (`crate::opt`) maps them
//! through its rewrite.
//!
//! With one producer and one consumer per channel and balanced traffic,
//! the consumer reads the values in FIFO order whatever the handshake
//! timing (the Kahn network determinism argument; see
//! `docs/scheduler.md`), so a producer may run ahead through a ring
//! instead of one rendezvous handshake per value — the cooperative fast
//! engine (`crate::wavefront`) sizes every ring from the traffic here.
//!
//! [`analyze`] re-derives the tables from the bytecode by one O(ops)
//! walk and [`check`] holds a module's tables to it, field by field: an
//! after-the-fact legality check of a fact computed symbolically. It
//! runs on every module miss in debug builds (the elaborated module and
//! the fused one) and over the corpus and every random program in
//! tier-1 (`tests/batching.rs`); no release-build miss calls it.

use crate::process::ChanId;
use crate::procir::{ProcId, ProcIrModule, ProcOp};

/// Whether a run may take the macro-stepping fast path. `Auto` engages
/// it when the run attaches no recorder and no non-FIFO schedule policy
/// and the program fits the par-set mask; `Off` forces the rendezvous
/// engine unconditionally (the `--batch off` CLI switch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchMode {
    #[default]
    Auto,
    Off,
}

impl BatchMode {
    /// The names `--batch` and the service's `"batch"` accept, default first.
    pub const NAMES: &'static [(&'static str, BatchMode)] =
        &[("auto", BatchMode::Auto), ("off", BatchMode::Off)];
}

/// Per channel: the process that sends on it, the process that receives
/// from it, and the values it carries over the whole run. A channel that
/// carries nothing has no ends.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchPlan {
    pub producer_of: Vec<Option<ProcId>>,
    pub consumer_of: Vec<Option<ProcId>>,
    pub traffic: Vec<u64>,
}

impl BatchPlan {
    /// Tables for `n` channels with no ends and no traffic.
    pub fn new(n: usize) -> BatchPlan {
        BatchPlan {
            producer_of: vec![None; n],
            consumer_of: vec![None; n],
            traffic: vec![0; n],
        }
    }

    // Spelled by the frozen `benchmark/src/stages.rs:68`, which reads it as
    // the batch proof's verdict: the tables of a compiled module always
    // hold it (the program-level par-set cap is `Elaborated::wide`). Goes
    // with ROADMAP 2(b).
    #[doc(hidden)]
    pub fn batchable(&self) -> bool {
        true
    }
}

/// Walk a module's bytecode for its tables: unique endpoints and
/// balanced traffic, or the first channel that has neither. O(ops); the
/// checker's half of [`check`], and how a module built by hand gets its
/// tables.
pub fn analyze(module: &ProcIrModule) -> Result<BatchPlan, String> {
    let mut plan = BatchPlan::new(module.n_chans);
    let mut received = vec![0u64; module.n_chans];
    let mut clash = None;
    for pid in 0..module.procs.len() {
        let mut touch = |sends: bool, chan: ChanId, n: u64| {
            let (owner, traffic, what) = if sends {
                (&mut plan.producer_of, &mut plan.traffic, "producer")
            } else {
                (&mut plan.consumer_of, &mut received, "consumer")
            };
            traffic[chan] = traffic[chan].saturating_add(n);
            let prev = match n {
                0 => return,
                _ => *owner[chan].get_or_insert(pid),
            };
            if prev != pid {
                let why = || format!("channel {chan} has two {what}s (processes {prev} and {pid})");
                clash.get_or_insert_with(why);
            }
        };
        for op in module.ops_of(pid) {
            match *op {
                ProcOp::Emit { chan } | ProcOp::Eject { chan, .. } => touch(true, chan, 1),
                ProcOp::Collect { chan } | ProcOp::Keep { chan, .. } => touch(false, chan, 1),
                ProcOp::Pass { inp, out, n } => {
                    touch(false, inp, n);
                    touch(true, out, n);
                }
                ProcOp::Compute { count } => {
                    for mc in module.moving_of(pid) {
                        touch(false, mc.inp, count);
                        touch(true, mc.out, count);
                    }
                }
            }
        }
    }
    if let Some(why) = clash {
        return Err(why);
    }
    // Both endpoints must exist and agree on traffic: a one-sided or
    // unbalanced channel would let a ring producer run past the point
    // where the rendezvous engine reports a deadlock.
    for (c, (&sent, &got)) in plan.traffic.iter().zip(&received).enumerate() {
        if sent != got {
            return Err(format!(
                "channel {c} traffic unbalanced ({sent} sent vs {got} received)"
            ));
        }
    }
    Ok(plan)
}

/// Hold `tables` to the walk of `module`'s bytecode ([`analyze`]): the
/// same ends and the same traffic on every channel, or the first
/// disagreement.
pub fn check(module: &ProcIrModule, tables: &BatchPlan) -> Result<(), String> {
    let walked = analyze(module)?;
    let (ours, theirs) = (tables.traffic.len(), module.n_chans);
    if ours != theirs {
        return Err(format!("tables for {ours} channels, module has {theirs}"));
    }
    for c in 0..module.n_chans {
        let row = |t: &BatchPlan| (t.producer_of[c], t.consumer_of[c], t.traffic[c]);
        let (ours, ops) = (row(tables), row(&walked));
        if ours != ops {
            return Err(format!(
                "channel {c}: (producer, consumer, traffic) {ours:?} in the tables, {ops:?} in the ops"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procir::ProcIrBuilder;

    #[test]
    fn a_steady_pipeline_walks_to_its_endpoints_and_traffic() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &(0..100).collect::<Vec<_>>(), "src");
        b.relay(0, 1, 100, "relay");
        b.sink(1, 100, "sink");
        let m = b.build();
        let plan = analyze(&m).unwrap();
        assert_eq!(plan.traffic, vec![100, 100]);
        assert_eq!(plan.producer_of, vec![Some(0), Some(1)]);
        assert_eq!(plan.consumer_of, vec![Some(1), Some(2)]);
        assert_eq!(check(&m, &plan), Ok(()));
    }

    /// A `load`/`recover` endpoint is walked like any other: its channel
    /// gets the ring every channel gets, sized by its traffic alone.
    #[test]
    fn keep_and_eject_channels_are_walked_like_any_other() {
        use crate::procir::MovingLink;
        let mut b = ProcIrBuilder::new();
        b.begin("comp");
        b.op(ProcOp::Keep { chan: 2, slot: 1 });
        b.op(ProcOp::Compute { count: 3 });
        b.op(ProcOp::Eject { chan: 3, slot: 1 });
        b.repeater(
            &[MovingLink {
                slot: 0,
                inp: 0,
                out: 1,
            }],
            &[0],
            &[1],
            2,
        );
        b.finish();
        b.source(0, &[2, 3, 4], "a-in");
        b.source(2, &[10], "c-in");
        b.sink(1, 3, "a-out");
        b.sink(3, 1, "c-out");
        let m = b.build();
        let plan = analyze(&m).unwrap();
        assert_eq!(plan.traffic, vec![3, 3, 1, 1]);
        assert_eq!(plan.producer_of, vec![Some(1), Some(0), Some(2), Some(0)]);
        assert_eq!(plan.consumer_of, vec![Some(0), Some(3), Some(0), Some(4)]);
        let wf = crate::wavefront::analyze_wavefront(&m, &plan, &[]);
        assert_eq!(wf.capacities, plan.traffic);
    }

    /// The shapes no elaborated module has: the walk names the first
    /// channel without one producer, one consumer and balanced traffic.
    #[test]
    fn the_walk_names_a_shape_without_the_law() {
        let walk = |b: ProcIrBuilder| analyze(&b.build()).unwrap_err();
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "src-a");
        b.source(0, &[2], "src-b");
        b.sink(0, 2, "sink");
        assert_eq!(walk(b), "channel 0 has two producers (processes 0 and 1)");

        let mut b = ProcIrBuilder::new();
        b.source(1, &[7], "other");
        b.sink(1, 1, "other-sink");
        b.source(0, &[1, 2], "src");
        b.sink(0, 1, "sink-a");
        b.sink(0, 1, "sink-b");
        assert_eq!(walk(b), "channel 0 has two consumers (processes 3 and 4)");

        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3], "src");
        b.sink(0, 2, "sink");
        let why = "channel 0 traffic unbalanced (3 sent vs 2 received)";
        assert_eq!(walk(b), why);

        let mut b = ProcIrBuilder::new();
        b.sink(7, 1, "lonely");
        let why = "channel 7 traffic unbalanced (0 sent vs 1 received)";
        assert_eq!(walk(b), why);
    }

    /// A zero count moves nothing, so it claims no end: a repeater of no
    /// iterations beside the real owners of its links.
    #[test]
    fn a_zero_count_claims_no_end() {
        let mut b = ProcIrBuilder::new();
        b.begin("idle");
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: 0,
        });
        b.finish();
        b.source(0, &[4], "src");
        b.relay(0, 1, 1, "relay");
        b.sink(1, 1, "sink");
        let plan = analyze(&b.build()).unwrap();
        assert_eq!(plan.producer_of, vec![Some(1), Some(2)]);
        assert_eq!(plan.consumer_of, vec![Some(2), Some(3)]);
    }

    /// The checker compares field by field and names the channel.
    #[test]
    fn check_names_the_first_channel_the_tables_get_wrong() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2], "src");
        b.relay(0, 1, 2, "relay");
        b.sink(1, 2, "sink");
        let m = b.build();
        let good = analyze(&m).unwrap();
        let mut doubled = good.clone();
        doubled.consumer_of[1] = doubled.producer_of[1];
        let why = "channel 1: (producer, consumer, traffic) (Some(1), Some(1), 2) in the \
                   tables, (Some(1), Some(2), 2) in the ops";
        assert_eq!(check(&m, &doubled), Err(why.into()));
        let mut heavy = good.clone();
        heavy.traffic[0] += 1;
        assert!(check(&m, &heavy).unwrap_err().starts_with("channel 0:"));
        let short = BatchPlan::new(1);
        let why = "tables for 1 channels, module has 2";
        assert_eq!(check(&m, &short), Err(why.into()));
    }

    /// Named boundary regression for the `Pass::n`/`Compute::count`
    /// widening: a pass count one past `u32::MAX` must neither truncate
    /// in the builder nor wrap in the traffic arithmetic. (Walk only —
    /// nobody executes 2^32 transfers in a unit test.)
    #[test]
    fn traffic_math_survives_u32_overflow() {
        let mut b = ProcIrBuilder::new();
        let n = (u32::MAX as usize) + 1;
        b.relay(0, 1, n, "huge");
        let m = b.build();
        let ProcOp::Pass { n: stored, .. } = m.ops[0] else {
            panic!("expected a Pass op");
        };
        assert_eq!(stored, 1u64 << 32, "builder must not truncate to u32");
        // One-sided traffic (no source/sink around the relay) fails the
        // walk, but the traffic sums themselves must be exact, not
        // wrapped: a u32 wrap would make both sides 0 and pass.
        assert!(analyze(&m).unwrap_err().contains("unbalanced"));

        let mut b = ProcIrBuilder::new();
        b.begin("a");
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: (1u64 << 32) + 5,
        });
        b.finish();
        b.begin("b");
        b.op(ProcOp::Pass {
            inp: 1,
            out: 0,
            n: (1u64 << 32) + 5,
        });
        b.finish();
        let plan = analyze(&b.build()).unwrap();
        assert_eq!(plan.traffic, vec![(1u64 << 32) + 5; 2]);
    }
}
