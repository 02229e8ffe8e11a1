//! Steady-state rendezvous batching: the post-elaboration analysis that
//! proves which channels may carry more than one in-flight value, and
//! the inline ring buffer the batched executors move those values
//! through.
//!
//! The paper's generated processes are statically-scheduled traces
//! (DESIGN.md §3): each channel's total traffic and both endpoints are
//! known from the bytecode alone, before the first value moves. In a
//! *steady phase* — a channel touched only by `Pass` repetitions and
//! `Compute` par-sets, never by a `Keep`/`Eject` — the producer and the
//! consumer execute matching per-value cycles, so the rendezvous order
//! within the phase is unobservable: the consumer reads values in FIFO
//! order whatever the handshake timing (the Kahn network determinism
//! argument; see `docs/scheduler.md` for the full safety story). The
//! analysis therefore grants each steady channel a batch width `k > 1`,
//! letting the engines retire up to `k` transfers per visit through a
//! [`Ring`] instead of one rendezvous handshake per value.
//!
//! Channels that carry a `load`/`recover` endpoint (`Keep`/`Eject`) are
//! pinned to width 1, and any shape the analysis cannot prove — two
//! producers, unbalanced endpoint traffic, a one-sided channel — rejects
//! the whole module, falling back to the rendezvous engines. Rejection
//! is a performance decision, never a correctness one: the batched and
//! unbatched paths are pinned bit-identical (stores, `messages`,
//! `steps`) by `tests/ladder.rs` and `tests/batching.rs`.

use crate::process::Value;
use crate::procir::{ProcId, ProcIrModule, ProcOp};
use std::collections::VecDeque;

/// The widest batch the analysis will grant a channel: bounds ring
/// memory (64 values ≈ one cache line of `i64`s) and keeps a producer
/// from running arbitrarily far ahead of the virtual clock.
pub const DEFAULT_BATCH_WIDTH: u64 = 64;

/// Whether a run may take the macro-stepping fast path. `Auto` engages
/// batching when the analysis proves the module and the run attaches no
/// recorder and no non-FIFO schedule policy; `Off` forces the
/// rendezvous engines unconditionally (the `--batch off` CLI switch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchMode {
    #[default]
    Auto,
    Off,
}

/// A bounded FIFO of in-flight values for one batched channel. Plain
/// sequential code — the partitioned executor serializes access under
/// its engine lock, the cooperative ones own all rings outright.
pub struct Ring {
    q: VecDeque<Value>,
    cap: usize,
}

impl Ring {
    pub fn new(cap: usize) -> Ring {
        let cap = cap.max(1);
        Ring {
            q: VecDeque::with_capacity(cap),
            cap,
        }
    }

    #[inline]
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.cap
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Push a value; the caller must have checked [`Ring::is_full`].
    #[inline]
    pub fn push(&mut self, v: Value) {
        debug_assert!(!self.is_full(), "push into a full ring");
        self.q.push_back(v);
    }

    #[inline]
    pub fn pop(&mut self) -> Option<Value> {
        self.q.pop_front()
    }

    /// Free slots before [`Ring::is_full`].
    #[inline]
    pub fn free(&self) -> usize {
        self.cap.saturating_sub(self.q.len())
    }

    /// Pop `dst.len()` values in FIFO order into `dst`. The caller must
    /// have checked occupancy ([`Ring::len`]) — the kernel path's one
    /// bounds decision per wave batch.
    #[inline]
    pub fn pop_many(&mut self, dst: &mut [Value]) {
        debug_assert!(dst.len() <= self.q.len(), "pop_many past occupancy");
        let n = dst.len();
        for (d, v) in dst.iter_mut().zip(self.q.drain(..n)) {
            *d = v;
        }
    }

    /// Push all of `vals` in order; the caller must have checked
    /// [`Ring::free`].
    #[inline]
    pub fn push_many(&mut self, vals: &[Value]) {
        debug_assert!(vals.len() <= self.free(), "push_many past capacity");
        self.q.extend(vals.iter().copied());
    }
}

/// The result of [`analyze`]: per-channel batch widths and endpoint
/// ownership, or the reason the module must stay on the rendezvous
/// engines.
pub struct BatchPlan {
    /// Safe batch width per channel (`k ≥ 1`), dense by `ChanId`.
    pub widths: Vec<u64>,
    /// The unique sending process per channel (`None` = untouched).
    pub producer_of: Vec<Option<ProcId>>,
    /// The unique receiving process per channel.
    pub consumer_of: Vec<Option<ProcId>>,
    /// Per-channel balanced traffic (values sent over the whole run).
    /// Meaningful when the plan is batchable — the balance check has
    /// then proven the producer and consumer sides equal.
    pub traffic: Vec<u64>,
    reject: Option<String>,
}

impl BatchPlan {
    /// Whether the module may be macro-stepped at all.
    pub fn batchable(&self) -> bool {
        self.reject.is_none()
    }

    /// Why not, when [`BatchPlan::batchable`] is false.
    pub fn reject_reason(&self) -> Option<&str> {
        self.reject.as_deref()
    }

    /// Fresh rings for one run, capacities from the widths.
    pub fn rings(&self) -> Vec<Ring> {
        self.widths.iter().map(|&k| Ring::new(k as usize)).collect()
    }

    /// Test-only: the same plan with the rejection cleared, so executor
    /// failure paths behind the proof can be exercised directly.
    #[cfg(test)]
    pub(crate) fn assume_proven(mut self) -> BatchPlan {
        self.reject = None;
        self
    }
}

/// Walk a module's bytecode and compute the per-channel safe batch
/// widths. Pure structural analysis, O(ops); runs once per elaboration,
/// never per step.
pub fn analyze(module: &ProcIrModule) -> BatchPlan {
    analyze_with_caps(module, &[])
}

/// [`analyze`], with per-channel minimum ring capacities layered on
/// top: `widths[c]` is raised to `caps[c]` where given. This is how the
/// optimizer's delay rings (`crate::opt`) reach the engines — a fused
/// chain's surviving channel must hold the chain's whole buffering,
/// overriding both the width clamp and the `Keep`/`Eject` pin (safe
/// because extra ring slack never changes a Kahn network's streams,
/// only its timing; the optimizer's contract is store identity, not
/// stat invariance).
pub fn analyze_with_caps(module: &ProcIrModule, caps: &[u64]) -> BatchPlan {
    let nc = module.n_chans;
    let mut producer_of: Vec<Option<ProcId>> = vec![None; nc];
    let mut consumer_of: Vec<Option<ProcId>> = vec![None; nc];
    let mut prod_traffic = vec![0u64; nc];
    let mut cons_traffic = vec![0u64; nc];
    // Channels with a `load`/`recover` endpoint stay at width 1: a
    // stationary value is consumed out of phase with the stream around
    // it, so the steady-phase argument does not apply.
    let mut pinned = vec![false; nc];
    let mut reject: Option<String> = None;

    fn claim(
        tbl: &mut [Option<ProcId>],
        chan: usize,
        pid: ProcId,
        what: &str,
        reject: &mut Option<String>,
    ) {
        match tbl[chan] {
            None => tbl[chan] = Some(pid),
            Some(prev) if prev == pid => {}
            Some(prev) => {
                if reject.is_none() {
                    *reject = Some(format!(
                        "channel {chan} has two {what}s (processes {prev} and {pid})"
                    ));
                }
            }
        }
    }

    for pid in 0..module.procs.len() {
        let links = module.moving_of(pid);
        if links.len() > 64 && reject.is_none() {
            // The VM tracks piecewise par-set completion in a u64 mask.
            reject = Some(format!(
                "process {pid} has {} moving links (max 64)",
                links.len()
            ));
        }
        for op in module.ops_of(pid) {
            match *op {
                ProcOp::Emit { chan } => {
                    claim(&mut producer_of, chan, pid, "producer", &mut reject);
                    prod_traffic[chan] += 1;
                }
                ProcOp::Collect { chan } => {
                    claim(&mut consumer_of, chan, pid, "consumer", &mut reject);
                    cons_traffic[chan] += 1;
                }
                ProcOp::Keep { chan, .. } => {
                    claim(&mut consumer_of, chan, pid, "consumer", &mut reject);
                    cons_traffic[chan] += 1;
                    pinned[chan] = true;
                }
                ProcOp::Eject { chan, .. } => {
                    claim(&mut producer_of, chan, pid, "producer", &mut reject);
                    prod_traffic[chan] += 1;
                    pinned[chan] = true;
                }
                ProcOp::Pass { inp, out, n } => {
                    claim(&mut consumer_of, inp, pid, "consumer", &mut reject);
                    cons_traffic[inp] = cons_traffic[inp].saturating_add(n);
                    claim(&mut producer_of, out, pid, "producer", &mut reject);
                    prod_traffic[out] = prod_traffic[out].saturating_add(n);
                }
                ProcOp::Compute { count } => {
                    for mc in links {
                        claim(&mut consumer_of, mc.inp, pid, "consumer", &mut reject);
                        cons_traffic[mc.inp] = cons_traffic[mc.inp].saturating_add(count);
                        claim(&mut producer_of, mc.out, pid, "producer", &mut reject);
                        prod_traffic[mc.out] = prod_traffic[mc.out].saturating_add(count);
                    }
                }
            }
        }
    }

    // Both endpoints must exist and agree on traffic; a one-sided or
    // unbalanced channel would let a ring producer run past the point
    // where the rendezvous engine reports a deadlock.
    if reject.is_none() {
        for c in 0..nc {
            if prod_traffic[c] != cons_traffic[c] {
                reject = Some(format!(
                    "channel {c} traffic unbalanced ({} sent vs {} received)",
                    prod_traffic[c], cons_traffic[c]
                ));
                break;
            }
        }
    }

    let widths = (0..nc)
        .map(|c| {
            let base = if pinned[c] {
                1
            } else {
                prod_traffic[c].clamp(1, DEFAULT_BATCH_WIDTH)
            };
            base.max(caps.get(c).copied().unwrap_or(0))
        })
        .collect();
    BatchPlan {
        widths,
        producer_of,
        consumer_of,
        traffic: prod_traffic,
        reject,
    }
}

/// Per-channel eligibility diagnostics: `None` when the channel passes
/// the batching proof locally, `Some(reason)` naming the first local
/// disqualifier (a second producer/consumer, a missing endpoint,
/// unbalanced traffic, or an endpoint process whose moving-link set
/// exceeds the VM's 64-bit par-set mask). [`analyze`] stops at the first
/// module-wide rejection; this walk keeps going so reports can explain
/// *every* channel that forces the wavefront/batched paths to fall back
/// (see `--opt-report` and `crate::wavefront`).
pub fn channel_diagnostics(module: &ProcIrModule) -> Vec<Option<String>> {
    let nc = module.n_chans;
    let mut producer_of: Vec<Option<ProcId>> = vec![None; nc];
    let mut consumer_of: Vec<Option<ProcId>> = vec![None; nc];
    let mut prod_traffic = vec![0u64; nc];
    let mut cons_traffic = vec![0u64; nc];
    let mut reasons: Vec<Option<String>> = vec![None; nc];

    let claim = |tbl: &mut [Option<ProcId>],
                 reasons: &mut [Option<String>],
                 chan: usize,
                 pid: ProcId,
                 what: &str| {
        match tbl[chan] {
            None => tbl[chan] = Some(pid),
            Some(prev) if prev == pid => {}
            Some(prev) => {
                if reasons[chan].is_none() {
                    reasons[chan] = Some(format!("two {what}s (processes {prev} and {pid})"));
                }
            }
        }
    };

    let mut touch =
        |prod: bool, chan: usize, pid: ProcId, n: u64, reasons: &mut [Option<String>]| {
            if prod {
                claim(&mut producer_of, reasons, chan, pid, "producer");
                prod_traffic[chan] = prod_traffic[chan].saturating_add(n);
            } else {
                claim(&mut consumer_of, reasons, chan, pid, "consumer");
                cons_traffic[chan] = cons_traffic[chan].saturating_add(n);
            }
        };

    for pid in 0..module.procs.len() {
        let links = module.moving_of(pid);
        let oversized = links.len() > 64;
        for op in module.ops_of(pid) {
            let touched: Vec<(bool, usize, u64)> = match *op {
                ProcOp::Emit { chan } | ProcOp::Eject { chan, .. } => vec![(true, chan, 1)],
                ProcOp::Collect { chan } | ProcOp::Keep { chan, .. } => vec![(false, chan, 1)],
                ProcOp::Pass { inp, out, n } => vec![(false, inp, n), (true, out, n)],
                ProcOp::Compute { count } => links
                    .iter()
                    .flat_map(|mc| [(false, mc.inp, count), (true, mc.out, count)])
                    .collect(),
            };
            for (prod, chan, n) in touched {
                touch(prod, chan, pid, n, &mut reasons);
                if oversized && reasons[chan].is_none() {
                    reasons[chan] = Some(format!(
                        "endpoint process {pid} has {} moving links (max 64)",
                        links.len()
                    ));
                }
            }
        }
    }

    for c in 0..nc {
        if reasons[c].is_some() {
            continue;
        }
        if prod_traffic[c] != cons_traffic[c] {
            reasons[c] = Some(format!(
                "traffic unbalanced ({} sent vs {} received)",
                prod_traffic[c], cons_traffic[c]
            ));
        }
    }
    reasons
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procir::ProcIrBuilder;

    #[test]
    fn steady_pipeline_gets_wide_channels() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &(0..100).collect::<Vec<_>>(), "src");
        b.relay(0, 1, 100, "relay");
        b.sink(1, 100, "sink");
        let m = b.build(None);
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        assert_eq!(plan.widths, vec![DEFAULT_BATCH_WIDTH, DEFAULT_BATCH_WIDTH]);
        assert_eq!(plan.producer_of, vec![Some(0), Some(1)]);
        assert_eq!(plan.consumer_of, vec![Some(1), Some(2)]);
    }

    #[test]
    fn short_channels_clamp_to_their_traffic() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3], "src");
        b.sink(0, 3, "sink");
        let plan = analyze(&b.build(None));
        assert!(plan.batchable());
        assert_eq!(plan.widths, vec![3]);
    }

    #[test]
    fn keep_and_eject_pin_their_channels() {
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
        let plan = analyze(&b.build(None));
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        assert_eq!(plan.widths[0], 3, "moving stream batches");
        assert_eq!(plan.widths[1], 3);
        assert_eq!(plan.widths[2], 1, "keep channel pinned");
        assert_eq!(plan.widths[3], 1, "eject channel pinned");
    }

    #[test]
    fn two_producers_reject() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "src-a");
        b.source(0, &[2], "src-b");
        b.sink(0, 2, "sink");
        let plan = analyze(&b.build(None));
        assert!(!plan.batchable());
        assert!(plan.reject_reason().unwrap().contains("two producers"));
    }

    #[test]
    fn one_sided_channel_rejects() {
        let mut b = ProcIrBuilder::new();
        b.sink(7, 1, "lonely");
        let plan = analyze(&b.build(None));
        assert!(!plan.batchable());
        assert!(plan.reject_reason().unwrap().contains("unbalanced"));
    }

    /// Named boundary regression for the `Pass::n`/`Compute::count`
    /// widening: a pass count one past `u32::MAX` must neither truncate
    /// in the builder nor wrap in the width arithmetic. (Analysis only —
    /// nobody executes 2^32 transfers in a unit test.)
    #[test]
    fn batch_width_math_survives_u32_overflow() {
        let mut b = ProcIrBuilder::new();
        let n = (u32::MAX as usize) + 1;
        b.relay(0, 1, n, "huge");
        let m = b.build(None);
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
        let plan = analyze(&b.build(None));
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        assert_eq!(plan.widths, vec![DEFAULT_BATCH_WIDTH; 2]);
    }
}
