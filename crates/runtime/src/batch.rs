//! Steady-state rendezvous batching: the post-elaboration analysis that
//! proves a module may run with slack on its channels — the gate of the
//! cooperative fast engine (`crate::wavefront`), whose plan is derived
//! from this one, inherits its reject, and is the one place ring
//! capacities are decided. (The rings are spans of the run arena's one
//! slab, `crate::arena`.)
//!
//! The paper's generated processes are statically-scheduled traces
//! (DESIGN.md §3): each channel's total traffic and both endpoints are
//! known from the bytecode alone, before the first value moves. With one
//! producer and one consumer per channel and the same traffic on both
//! sides, the consumer reads the values in FIFO order whatever the
//! handshake timing (the Kahn network determinism argument; see
//! `docs/scheduler.md` for the full safety story), so a producer may run
//! ahead through a ring instead of one rendezvous handshake per value.
//!
//! Any shape the analysis cannot prove — two producers, unbalanced
//! endpoint traffic, a one-sided channel, an over-wide process — rejects
//! the whole module, falling back to the rendezvous engines. Rejection
//! is a performance decision, never a correctness one: the fast and
//! rendezvous paths are pinned bit-identical (stores, `messages`,
//! `steps`) by `tests/ladder.rs` and `tests/batching.rs`.

use crate::process::ChanId;
use crate::procir::{ProcId, ProcIrModule, ProcOp};

/// Whether a run may take the macro-stepping fast path. `Auto` engages
/// it when the analysis proves the module and the run attaches no
/// recorder and no non-FIFO schedule policy; `Off` forces the
/// rendezvous engines unconditionally (the `--batch off` CLI switch).
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

/// The result of [`analyze`]: per-channel endpoint ownership and
/// traffic, or the reasons the module must stay on the rendezvous
/// engines.
pub struct BatchPlan {
    /// The unique sending process per channel (`None` = untouched).
    pub producer_of: Vec<Option<ProcId>>,
    /// The unique receiving process per channel.
    pub consumer_of: Vec<Option<ProcId>>,
    /// Per-channel balanced traffic (values sent over the whole run).
    /// Meaningful when the plan is batchable — the balance check has
    /// then proven the producer and consumer sides equal.
    pub traffic: Vec<u64>,
    /// Per channel, `None` when it passes the batching proof locally,
    /// else its first disqualifier: a second producer or consumer, an
    /// endpoint process whose moving-link set exceeds the VM's 64-bit
    /// par-set mask, or unbalanced (possibly one-sided) traffic. Every
    /// channel that forces the fast path to fall back has one, not only
    /// the channel [`BatchPlan::reject_reason`] names
    /// (`--opt-report` and the metrics report list them all).
    pub channel_reasons: Vec<Option<String>>,
    reject: Option<String>,
}

impl BatchPlan {
    /// Whether the module may be macro-stepped at all.
    pub fn batchable(&self) -> bool {
        self.reject.is_none()
    }

    /// Why not, when [`BatchPlan::batchable`] is false: the first claim
    /// conflict or over-wide process in walk order, else the lowest
    /// unbalanced channel. Set exactly when some channel has a reason or
    /// some process is over-wide.
    pub fn reject_reason(&self) -> Option<&str> {
        self.reject.as_deref()
    }

    /// Test-only: the same plan with the rejection cleared, so executor
    /// failure paths behind the proof can be exercised directly.
    #[cfg(test)]
    pub(crate) fn assume_proven(mut self) -> BatchPlan {
        self.reject = None;
        self
    }
}

/// Walk a module's bytecode and prove it batchable: unique endpoints,
/// balanced traffic, at most 64 moving links per process. Pure
/// structural analysis, O(ops); runs once per elaboration, never per
/// step.
pub fn analyze(module: &ProcIrModule) -> BatchPlan {
    analyze_ops(module, |pid| module.ops_of(pid))
}

/// The analysis over "the ops of process `p`" as the caller defines
/// them — the module's own, or the optimizer's peephole-cleaned copies.
/// The only place per-channel producers, consumers and traffic are
/// accumulated.
pub(crate) fn analyze_ops<'a>(
    module: &'a ProcIrModule,
    ops_of: impl Fn(ProcId) -> &'a [ProcOp],
) -> BatchPlan {
    let nc = module.n_chans;
    let mut plan = BatchPlan {
        producer_of: vec![None; nc],
        consumer_of: vec![None; nc],
        traffic: vec![0; nc],
        channel_reasons: vec![None; nc],
        reject: None,
    };
    let mut received = vec![0u64; nc];
    for pid in 0..module.procs.len() {
        let links = module.moving_of(pid);
        // The VM tracks piecewise par-set completion in a u64 mask.
        let wide = (links.len() > 64)
            .then(|| format!("process {pid} has {} moving links (max 64)", links.len()));
        if plan.reject.is_none() {
            plan.reject.clone_from(&wide);
        }
        let mut touch = |sends: bool, chan: ChanId, n: u64| {
            let (owner, traffic, what) = if sends {
                (&mut plan.producer_of, &mut plan.traffic, "producer")
            } else {
                (&mut plan.consumer_of, &mut received, "consumer")
            };
            traffic[chan] = traffic[chan].saturating_add(n);
            let prev = *owner[chan].get_or_insert(pid);
            let reason = &mut plan.channel_reasons[chan];
            if prev != pid {
                let why = format!("two {what}s (processes {prev} and {pid})");
                let module_wide = || format!("channel {chan} has {why}");
                plan.reject.get_or_insert_with(module_wide);
                reason.get_or_insert(why);
            }
            if let Some(wide) = &wide {
                reason.get_or_insert_with(|| format!("endpoint {wide}"));
            }
        };
        for op in ops_of(pid) {
            match *op {
                ProcOp::Emit { chan } | ProcOp::Eject { chan, .. } => touch(true, chan, 1),
                ProcOp::Collect { chan } | ProcOp::Keep { chan, .. } => touch(false, chan, 1),
                ProcOp::Pass { inp, out, n } => {
                    touch(false, inp, n);
                    touch(true, out, n);
                }
                ProcOp::Compute { count } => {
                    for mc in links {
                        touch(false, mc.inp, count);
                        touch(true, mc.out, count);
                    }
                }
            }
        }
    }
    for (c, &got) in received.iter().enumerate() {
        // Both endpoints must exist and agree on traffic; a one-sided or
        // unbalanced channel would let a ring producer run past the
        // point where the rendezvous engine reports a deadlock.
        let sent = plan.traffic[c];
        if sent != got {
            let why = format!("traffic unbalanced ({sent} sent vs {got} received)");
            let module_wide = || format!("channel {c} {why}");
            plan.reject.get_or_insert_with(module_wide);
            plan.channel_reasons[c].get_or_insert(why);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procir::ProcIrBuilder;

    #[test]
    fn a_steady_pipeline_is_proven_with_its_endpoints_and_traffic() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &(0..100).collect::<Vec<_>>(), "src");
        b.relay(0, 1, 100, "relay");
        b.sink(1, 100, "sink");
        let m = b.build();
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        assert_eq!(plan.traffic, vec![100, 100]);
        assert_eq!(plan.producer_of, vec![Some(0), Some(1)]);
        assert_eq!(plan.consumer_of, vec![Some(1), Some(2)]);
        assert_eq!(plan.channel_reasons, vec![None, None]);
    }

    /// A `load`/`recover` endpoint is proven like any other: its channel
    /// gets the ring every channel gets, sized by its traffic alone.
    #[test]
    fn keep_and_eject_channels_are_proven_like_any_other() {
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
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        assert_eq!(plan.traffic, vec![3, 3, 1, 1]);
        assert_eq!(plan.producer_of, vec![Some(1), Some(0), Some(2), Some(0)]);
        assert_eq!(plan.consumer_of, vec![Some(0), Some(3), Some(0), Some(4)]);
        let wf = crate::wavefront::analyze_wavefront(&m, &plan, &[]);
        assert_eq!(wf.capacities, plan.traffic);
    }

    #[test]
    fn two_producers_reject() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "src-a");
        b.source(0, &[2], "src-b");
        b.sink(0, 2, "sink");
        let plan = analyze(&b.build());
        assert!(!plan.batchable());
        assert!(plan.reject_reason().unwrap().contains("two producers"));
    }

    #[test]
    fn one_sided_channel_rejects() {
        let mut b = ProcIrBuilder::new();
        b.sink(7, 1, "lonely");
        let plan = analyze(&b.build());
        assert!(!plan.batchable());
        assert!(plan.reject_reason().unwrap().contains("unbalanced"));
    }

    /// The four disqualifying shapes: the reason each puts on its
    /// channels, and the module-wide wording.
    #[test]
    fn every_disqualified_channel_carries_its_first_reason() {
        use crate::procir::MovingLink;
        let check = |b: ProcIrBuilder, reasons: Vec<Option<String>>, module_wide: &str| {
            let plan = analyze(&b.build());
            assert_eq!(plan.channel_reasons, reasons, "{module_wide}");
            assert_eq!(plan.reject_reason(), Some(module_wide));
        };
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "src-a");
        b.source(0, &[2], "src-b");
        b.sink(0, 2, "sink");
        let why = "two producers (processes 0 and 1)";
        check(b, vec![Some(why.into())], &format!("channel 0 has {why}"));

        let mut b = ProcIrBuilder::new();
        b.source(1, &[7], "other");
        b.sink(1, 1, "other-sink");
        b.source(0, &[1, 2], "src");
        b.sink(0, 1, "sink-a");
        b.sink(0, 1, "sink-b");
        let why = "two consumers (processes 3 and 4)";
        let reasons = vec![Some(why.into()), None];
        check(b, reasons, &format!("channel 0 has {why}"));

        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3], "src");
        b.sink(0, 2, "sink");
        b.sink(1, 1, "lonely");
        let why = "traffic unbalanced (3 sent vs 2 received)";
        let lonely = "traffic unbalanced (0 sent vs 1 received)";
        let reasons = vec![Some(why.into()), Some(lonely.into())];
        check(b, reasons, &format!("channel 0 {why}"));

        // 65 moving links: one past the VM's par-set mask. Every channel
        // the wide process touches carries the reason; channel 130,
        // between two narrow processes, does not.
        let mut b = ProcIrBuilder::new();
        let link = |i: u32| MovingLink {
            slot: i,
            inp: 2 * i as usize,
            out: 2 * i as usize + 1,
        };
        let links: Vec<MovingLink> = (0..65).map(link).collect();
        b.source(130, &[5], "narrow");
        b.sink(130, 1, "narrow-sink");
        b.begin("wide");
        b.op(ProcOp::Compute { count: 1 });
        b.repeater(&links, &[0], &[1], 65);
        b.finish();
        for l in &links {
            b.source(l.inp, &[1], "in");
            b.sink(l.out, 1, "out");
        }
        let why = "process 2 has 65 moving links (max 64)";
        let mut reasons = vec![Some(format!("endpoint {why}")); 130];
        reasons.push(None);
        check(b, reasons, why);
    }

    /// Named boundary regression for the `Pass::n`/`Compute::count`
    /// widening: a pass count one past `u32::MAX` must neither truncate
    /// in the builder nor wrap in the traffic arithmetic. (Analysis only —
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
        let plan = analyze(&m);
        // One-sided traffic (no source/sink around the relay) rejects,
        // but the traffic sums themselves must be exact, not wrapped:
        // a u32 wrap would make both sides 0 and spuriously accept.
        assert!(!plan.batchable());
        assert!(plan.reject_reason().unwrap().contains("unbalanced"));

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
        let plan = analyze(&b.build());
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        assert_eq!(plan.traffic, vec![(1u64 << 32) + 5; 2]);
    }
}
