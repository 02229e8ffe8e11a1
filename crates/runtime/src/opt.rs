//! The ProcIR optimizer: relay-chain fusion into delay rings, plus op
//! peepholes that feed it.
//!
//! Elaboration (Sec. 7.6 and `PS \ CS`) manufactures large numbers of
//! processes that exist only to *delay* values: the `d - 1` internal
//! buffers of fractional flow and the external relay pipes between
//! non-adjacent cells. Each is a single `pass s, n` — a pure FIFO of
//! depth 1 with a rendezvous handshake on both sides. On rings they
//! still cost a VM, two ring endpoints, and a scheduler visit per value.
//! This pass erases them: a maximal linear chain of `Pass`-only
//! processes of one traffic, found through the channel tables
//! (`crate::batch`: each channel's one producer, one consumer and
//! traffic, which the elaborator derives), collapses into a single
//! **delay ring** — the chain's entry channel survives, the consumer is
//! rewired onto it, and the relay processes and interior channels are
//! deleted outright. The tables come out mapped through the rewrite: a
//! surviving channel keeps its ends and traffic, and a ring takes the
//! chain's traffic and consumer.
//!
//! Legality is the Kahn-network argument one level up from the rings
//! (`docs/scheduler.md`): a pure relay computes the identity stream
//! function, so fusing a chain changes neither the value sequence any
//! surviving process reads nor the order it reads it in — only the
//! *timing*. Under rendezvous a channel holds nothing between
//! handshakes and a relay holds one value, so a chain of `k` relays
//! with traffic `t` has at most `min(k, t)` values in flight. That is
//! the chain's **need**: a surviving channel with at least that much
//! slack replays every rendezvous schedule of the original module, so
//! termination and stores are preserved. The optimizer states the need
//! ([`OptimizedModule::ring_needs`]); the wavefront plan
//! (`crate::wavefront::analyze_wavefront`) grants it, with the ring
//! every channel gets. What is **not** preserved is the logical count
//! of steps, messages and processes, so unlike batching, optimization
//! is observable in the stats — by an exact law. A relay of a chain with
//! traffic `t` receives and sends `t` values (`t` messages, `2t` steps)
//! and takes one terminal step of its own, so against a run of the
//! module as elaborated, summing over the chains of the [`OptReport`]:
//!
//! ```text
//! messages(elaborated)  = messages(fused)  + Σ relays·t
//! steps(elaborated)     = steps(fused)     + 2 Σ relays·t + fused_relays
//! processes(elaborated) = processes(fused) + fused_relays
//! ```
//!
//! The contract is: stores bit-identical, counts changed by exactly that
//! law (the peepholes below change none, nor any channel's ends or
//! traffic), and every structural decision written into the report
//! (`systolic-opt-v1`) the caller can thread into metrics, the CLI, and
//! the codegen agreement check.
//!
//! Pass ordering: op peepholes run **first** (drop zero-iteration ops,
//! merge consecutive same-pair `Pass` repetitions, fuse an adjacent
//! `Keep`/`Eject` pair into a `Pass` when the local is dead), because
//! they can turn a process *into* a pure relay that chain fusion then
//! consumes. The peepholes alone are stat-invariant; only chain
//! deletion changes counts. The elaborator emits no zero-iteration op,
//! so that peephole serves hand-built modules; and a module none of the
//! passes could touch is declined by a read-only scan before anything is
//! copied.

use crate::batch::BatchPlan;
use crate::json::Json;
use crate::process::ChanId;
use crate::procir::{MovingLink, ProcId, ProcIrModule, ProcOp, ProcRecord};
use std::sync::Arc;

/// One fused relay chain, in pre-optimization ids except where noted.
#[derive(Clone, Debug)]
pub struct ChainRecord {
    /// The chain's entry channel (producer side). This channel survives
    /// and becomes the delay ring.
    pub entry: ChanId,
    /// The chain's exit channel (consumer side); deleted, with the
    /// consumer rewired onto `entry`.
    pub exit: ChanId,
    /// `entry` under the post-optimization dense renumbering.
    pub surviving: ChanId,
    /// The fused relay processes, in flow order.
    pub relays: Vec<ProcId>,
    /// Per-relay repetition count (identical along the chain).
    pub traffic: u64,
    /// The chain's need: the values it holds in flight under
    /// rendezvous, one per relay, at most its traffic.
    pub capacity: u64,
}

/// The `systolic-opt-v1` mapping report: what the optimizer did, in
/// enough detail for metrics, the CLI, and the codegen agreement check
/// to reconcile the optimized module with the elaborated one.
#[derive(Clone, Debug, Default)]
pub struct OptReport {
    pub processes_before: usize,
    pub processes_after: usize,
    pub channels_before: usize,
    pub channels_after: usize,
    pub ops_before: usize,
    pub ops_after: usize,
    /// Zero-iteration `Pass`/`Compute` ops dropped.
    pub zero_ops_dropped: u64,
    /// Consecutive same-pair `Pass` ops merged away.
    pub passes_merged: u64,
    /// Adjacent `Keep`/`Eject` pairs rewritten to `Pass`.
    pub keep_eject_fused: u64,
    /// Every fused chain, in discovery order.
    pub chains: Vec<ChainRecord>,
    /// Pre-opt `ProcId` → post-opt `ProcId`; `None` = deleted (fused
    /// into a delay ring).
    pub proc_map: Vec<Option<ProcId>>,
    /// Pre-opt `ChanId` → post-opt `ChanId`; `None` = deleted.
    pub chan_map: Vec<Option<ChanId>>,
}

impl OptReport {
    /// The report's schema id.
    pub const SCHEMA: &'static str = "systolic-opt-v1";

    /// Total relay processes deleted by chain fusion.
    pub fn fused_relays(&self) -> usize {
        self.chains.iter().map(|c| c.relays.len()).sum()
    }

    /// One-line human summary for the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{} relays fused into {} delay rings, {}→{} processes, {}→{} channels, \
             {} passes merged, {} keep/eject pairs fused, {} zero ops dropped",
            self.fused_relays(),
            self.chains.len(),
            self.processes_before,
            self.processes_after,
            self.channels_before,
            self.channels_after,
            self.passes_merged,
            self.keep_eject_fused,
            self.zero_ops_dropped,
        )
    }

    /// The `systolic-opt-v1` document as a value, for callers that embed
    /// it (the metrics report) or extend it (`--opt-report`). The
    /// proc/chan maps are not serialized; a chain carries its relay
    /// count.
    pub fn json(&self) -> Json {
        let chain = |c: &ChainRecord| {
            Json::obj([
                ("entry", c.entry.into()),
                ("exit", c.exit.into()),
                ("surviving", c.surviving.into()),
                ("relays", c.relays.len().into()),
                ("traffic", c.traffic.into()),
                ("capacity", c.capacity.into()),
            ])
        };
        Json::obj([
            ("schema", Self::SCHEMA.into()),
            ("processes_before", self.processes_before.into()),
            ("processes_after", self.processes_after.into()),
            ("channels_before", self.channels_before.into()),
            ("channels_after", self.channels_after.into()),
            ("ops_before", self.ops_before.into()),
            ("ops_after", self.ops_after.into()),
            ("zero_ops_dropped", self.zero_ops_dropped.into()),
            ("passes_merged", self.passes_merged.into()),
            ("keep_eject_fused", self.keep_eject_fused.into()),
            ("chains", Json::arr(self.chains.iter().map(chain))),
        ])
    }

    /// [`OptReport::json`], rendered as a file.
    pub fn to_json(&self) -> String {
        self.json().pretty()
    }
}

/// An optimized module plus everything the executors and codegen need
/// to run it: the per-channel ring needs (the delay rings; `0` = none)
/// and the mapping report.
pub struct OptimizedModule {
    /// The rewritten code over the input module's data segment, word
    /// for word: a relay owns no data, so fusion deletes none, and the
    /// survivors keep their order. A segment gathered for the elaborated
    /// module therefore binds to this one unchanged
    /// ([`ProcIrModule::with_data`]).
    pub module: Arc<ProcIrModule>,
    /// Per post-opt channel, the need of the chain fused into it (`0`
    /// where there is none); feed to
    /// [`crate::wavefront::analyze_wavefront`].
    pub ring_needs: Vec<u64>,
    /// Shared, so that every run of a cached module reports it without
    /// copying the maps.
    pub report: Arc<OptReport>,
}

/// Run the pass pipeline over `module` and its channel tables `ends`,
/// returning the rewrite with the tables mapped through it, or `None`
/// when there is nothing to rewrite.
///
/// A read-only scan decides that before anything is copied: a module
/// with no process a peephole applies to and no pure relay — every
/// module the elaborator builds without relay buffers — costs one walk
/// over its ops.
pub fn optimize(
    module: &Arc<ProcIrModule>,
    ends: &BatchPlan,
) -> Option<(OptimizedModule, BatchPlan)> {
    let rewritable = |pid| {
        let ops = module.ops_of(pid);
        peephole_applies(ops) || pure_relay(module, ops, pid).is_some()
    };
    if !(0..module.procs.len()).any(rewritable) {
        return None;
    }
    optimize_without_scan(module, ends)
}

/// [`optimize`] without its early decline: every pass over every
/// process. The oracle the scan is held to (`tests/optimizer.rs`): where
/// the scan declines, this returns `None` too.
#[doc(hidden)]
pub fn optimize_without_scan(
    module: &Arc<ProcIrModule>,
    ends: &BatchPlan,
) -> Option<(OptimizedModule, BatchPlan)> {
    let mut report = OptReport {
        processes_before: module.procs.len(),
        channels_before: module.n_chans,
        ops_before: module.ops.len(),
        proc_map: vec![None; module.procs.len()],
        chan_map: vec![None; module.n_chans],
        ..OptReport::default()
    };

    // Phase 1: op peepholes, per process, on copies of the op lists of
    // the processes they change.
    let cleaned: Vec<Option<Vec<ProcOp>>> = (0..module.procs.len())
        .map(|pid| peephole(module, pid, &mut report))
        .collect();
    let ops_of = |pid: ProcId| cleaned[pid].as_deref().unwrap_or(module.ops_of(pid));
    let touched_ops = report.zero_ops_dropped + report.passes_merged + report.keep_eject_fused > 0;

    // Phase 2: chain discovery over pure relays, through the tables (the
    // peepholes keep every channel's ends and traffic).
    let chains = find_chains(module, ops_of, ends);
    if chains.is_empty() && !touched_ops {
        return None;
    }

    // Phase 3: rebuild the module without the fused relays.
    Some(rebuild(module, ops_of, ends, chains, report))
}

/// Whether a peephole below rewrites anything in `ops`: a zero-iteration
/// op, an adjacent `Keep`/`Eject` pair of one slot, or two consecutive
/// passes over one channel pair.
fn peephole_applies(ops: &[ProcOp]) -> bool {
    let zero = |op: &ProcOp| matches!(op, ProcOp::Pass { n: 0, .. } | ProcOp::Compute { count: 0 });
    let adjacent = |w: &[ProcOp]| match (w[0], w[1]) {
        (ProcOp::Keep { chan: ci, slot: a }, ProcOp::Eject { chan: co, slot: b }) => {
            a == b && ci != co
        }
        (ProcOp::Pass { inp: a, out: b, .. }, ProcOp::Pass { inp: c, out: d, .. }) => {
            (a, b) == (c, d)
        }
        _ => false,
    };
    ops.iter().any(zero) || ops.windows(2).any(adjacent)
}

/// The op peepholes for one process: drop zero-iteration ops, fuse an
/// adjacent dead `Keep`/`Eject` pair into a `Pass`, merge consecutive
/// same-pair `Pass` repetitions. Each rewrite is stat-invariant (the
/// rewritten ops retire the same logical sets and transfers). `None`
/// when none applies: the process keeps its ops, uncopied.
fn peephole(module: &ProcIrModule, pid: ProcId, report: &mut OptReport) -> Option<Vec<ProcOp>> {
    if !peephole_applies(module.ops_of(pid)) {
        return None;
    }

    // Pass A: zero-iteration ops retire no sets; deleting them is
    // invisible (and can make a keep/eject pair adjacent).
    let mut ops: Vec<ProcOp> = Vec::with_capacity(module.ops_of(pid).len());
    for &op in module.ops_of(pid) {
        match op {
            ProcOp::Pass { n: 0, .. } | ProcOp::Compute { count: 0 } => {
                report.zero_ops_dropped += 1;
            }
            _ => ops.push(op),
        }
    }

    // Pass B: slot liveness. A slot is *live* — and its keep/eject
    // pairs must stay — when a basic statement might read it (any
    // surviving Compute: the body sees all locals), a moving link flows
    // through it, or any Keep/Eject touches it outside an adjacent
    // keep-then-eject pair. Dead slots exist only to forward one value,
    // which is exactly `pass 1`.
    let n_locals = module.procs[pid].n_locals as usize;
    let mut slot_live = vec![false; n_locals];
    if ops.iter().any(|o| matches!(o, ProcOp::Compute { .. })) {
        slot_live.iter_mut().for_each(|l| *l = true);
    }
    for mc in module.moving_of(pid) {
        slot_live[mc.slot as usize] = true;
    }
    let adjacent_pair = |i: usize| -> Option<(ChanId, ChanId, u32)> {
        if let (
            Some(&ProcOp::Keep { chan: c_in, slot }),
            Some(&ProcOp::Eject {
                chan: c_out,
                slot: s2,
            }),
        ) = (ops.get(i), ops.get(i + 1))
        {
            if slot == s2 && c_in != c_out {
                return Some((c_in, c_out, slot));
            }
        }
        None
    };
    let mut i = 0;
    while i < ops.len() {
        if adjacent_pair(i).is_some() {
            i += 2;
        } else {
            if let ProcOp::Keep { slot, .. } | ProcOp::Eject { slot, .. } = ops[i] {
                slot_live[slot as usize] = true;
            }
            i += 1;
        }
    }

    // Pass C: rewrite dead keep/eject pairs to `pass 1` and merge
    // consecutive same-pair passes (the repetition counts simply add).
    let mut out: Vec<ProcOp> = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        let op = match adjacent_pair(i) {
            Some((c_in, c_out, slot)) if !slot_live[slot as usize] => {
                report.keep_eject_fused += 1;
                i += 2;
                ProcOp::Pass {
                    inp: c_in,
                    out: c_out,
                    n: 1,
                }
            }
            _ => {
                i += 1;
                ops[i - 1]
            }
        };
        if let (
            Some(ProcOp::Pass {
                inp: pi,
                out: po,
                n: pn,
            }),
            ProcOp::Pass { inp, out, n },
        ) = (out.last_mut(), op)
        {
            if *pi == inp && *po == out {
                *pn = pn.saturating_add(n);
                report.passes_merged += 1;
                continue;
            }
        }
        out.push(op);
    }
    Some(out)
}

/// A process is a pure relay when, after cleanup, it is exactly one
/// `Pass` between distinct channels and nothing else — no locals, no
/// moving links, no output buffer. Such a process computes the identity
/// stream function, so it (and only it) is a fusion candidate; in
/// particular a `Keep`/`Eject` endpoint can never be fused away.
fn pure_relay(module: &ProcIrModule, ops: &[ProcOp], pid: ProcId) -> Option<(ChanId, ChanId, u64)> {
    match *ops {
        [ProcOp::Pass { inp, out, n }]
            if inp != out
                && n > 0
                && module.moving_of(pid).is_empty()
                && module.procs[pid].output.is_none() =>
        {
            Some((inp, out, n))
        }
        _ => None,
    }
}

/// Discover maximal linear chains of pure relays. Each chain needs a
/// real (non-relay) producer feeding its entry channel and a real
/// consumer on its exit channel — a cycle of pure relays has neither
/// and is left alone.
fn find_chains<'a>(
    module: &ProcIrModule,
    ops_of: impl Fn(ProcId) -> &'a [ProcOp],
    ends: &BatchPlan,
) -> Vec<ChainRecord> {
    let relay = |pid| pure_relay(module, ops_of(pid), pid);
    let n = module.procs.len();
    let mut in_chain = vec![false; n];
    let mut chains = Vec::new();
    for seed in 0..n {
        if in_chain[seed] {
            continue;
        }
        let Some((mut inp, _, traffic)) = relay(seed) else {
            continue;
        };
        // Walk upstream to the chain's head, guarding against relay
        // cycles with a membership set.
        let mut members = vec![seed];
        let mut head = seed;
        while let Some(p) = ends.producer_of[inp] {
            if in_chain[p] || members.contains(&p) {
                break;
            }
            let Some((pi, _, pn)) = relay(p) else {
                break;
            };
            if pn != traffic {
                break;
            }
            members.insert(0, p);
            head = p;
            inp = pi;
        }
        // Walk downstream from the tail.
        let (_, mut out, _) = relay(*members.last().unwrap()).unwrap();
        while let Some(c) = ends.consumer_of[out] {
            if in_chain[c] || members.contains(&c) {
                break;
            }
            let Some((_, co, cn)) = relay(c) else {
                break;
            };
            if cn != traffic {
                break;
            }
            members.push(c);
            out = co;
        }
        let (entry, _, _) = relay(head).unwrap();
        let exit = out;
        // Both external endpoints must exist outside the chain, and the
        // entry/exit channels must be distinct (a closed relay loop is
        // not a delay line).
        let producer = ends.producer_of[entry];
        let consumer = ends.consumer_of[exit];
        let external = |p: &Option<ProcId>| matches!(p, Some(pid) if !members.contains(pid));
        if entry == exit || !external(&producer) || !external(&consumer) {
            continue;
        }
        for &m in &members {
            in_chain[m] = true;
        }
        chains.push(ChainRecord {
            entry,
            exit,
            surviving: entry, // renumbered in `rebuild`
            capacity: (members.len() as u64).min(traffic),
            relays: members,
            traffic,
        });
    }
    chains
}

/// Rebuild the arena without the fused relays: rewire every reference
/// to a chain's exit channel onto its entry channel, drop the interior
/// channels, and renumber processes and channels densely — the tables
/// with them.
fn rebuild<'a>(
    module: &Arc<ProcIrModule>,
    ops_of: impl Fn(ProcId) -> &'a [ProcOp],
    ends: &BatchPlan,
    mut chains: Vec<ChainRecord>,
    mut report: OptReport,
) -> (OptimizedModule, BatchPlan) {
    let nc = module.n_chans;
    let mut removed_proc = vec![false; module.procs.len()];
    let mut redirect: Vec<ChanId> = (0..nc).collect();
    let mut dropped_chan = vec![false; nc];
    for ch in &chains {
        for &pid in &ch.relays {
            removed_proc[pid] = true;
        }
        redirect[ch.exit] = ch.entry;
        dropped_chan[ch.exit] = true;
        // Interior channels: every relay's input except the entry.
        for &pid in &ch.relays[1..] {
            if let [ProcOp::Pass { inp, .. }] = *ops_of(pid) {
                dropped_chan[inp] = true;
            }
        }
    }
    let resolve = |mut c: ChanId| {
        while redirect[c] != c {
            c = redirect[c];
        }
        c
    };

    // Dense channel renumbering over the survivors.
    let mut next = 0;
    for (c, dropped) in dropped_chan.iter().enumerate().take(nc) {
        if !dropped {
            report.chan_map[c] = Some(next);
            next += 1;
        }
    }
    let new_nc = next;
    let remap = |c: ChanId| report.chan_map[resolve(c)].expect("surviving channel");

    let mut ops = Vec::with_capacity(module.ops.len());
    let mut data = Vec::with_capacity(module.data.len());
    let mut moving = Vec::with_capacity(module.moving.len());
    let mut points = Vec::with_capacity(module.points.len());
    let mut procs = Vec::with_capacity(module.procs.len());
    for (pid, rec) in module.procs.iter().enumerate() {
        if removed_proc[pid] {
            assert!(
                module.data_of(pid).is_empty(),
                "fused {}, which owns data",
                rec.label
            );
            continue;
        }
        report.proc_map[pid] = Some(procs.len());
        let o0 = ops.len() as u32;
        for op in ops_of(pid) {
            ops.push(match *op {
                ProcOp::Emit { chan } => ProcOp::Emit { chan: remap(chan) },
                ProcOp::Collect { chan } => ProcOp::Collect { chan: remap(chan) },
                ProcOp::Keep { chan, slot } => ProcOp::Keep {
                    chan: remap(chan),
                    slot,
                },
                ProcOp::Eject { chan, slot } => ProcOp::Eject {
                    chan: remap(chan),
                    slot,
                },
                ProcOp::Pass { inp, out, n } => ProcOp::Pass {
                    inp: remap(inp),
                    out: remap(out),
                    n,
                },
                ProcOp::Compute { count } => ProcOp::Compute { count },
            });
        }
        let d0 = data.len() as u32;
        data.extend_from_slice(module.data_of(pid));
        let m0 = moving.len() as u32;
        for mc in module.moving_of(pid) {
            moving.push(MovingLink {
                slot: mc.slot,
                inp: remap(mc.inp),
                out: remap(mc.out),
            });
        }
        let p0 = points.len() as u32;
        points.extend_from_slice(module.first_of(pid));
        points.extend_from_slice(module.increment_of(pid));
        procs.push(ProcRecord {
            label: rec.label.clone(),
            ops: (o0, ops.len() as u32),
            data: (d0, data.len() as u32),
            moving: (m0, moving.len() as u32),
            repeater: (p0, points.len() as u32),
            n_locals: rec.n_locals,
            output: rec.output,
        });
    }

    // The tables, renumbered: a survivor keeps its ends and traffic, and
    // a ring takes its chain's traffic and the consumer of its exit.
    let mut fused = BatchPlan::new(new_nc);
    let proc_of = |p: Option<ProcId>| p.and_then(|p| report.proc_map[p]);
    for (c, &at) in report.chan_map.iter().enumerate() {
        if let Some(at) = at {
            fused.producer_of[at] = proc_of(ends.producer_of[c]);
            fused.consumer_of[at] = proc_of(ends.consumer_of[c]);
            fused.traffic[at] = ends.traffic[c];
        }
    }
    let mut ring_needs = vec![0u64; new_nc];
    for ch in &mut chains {
        ch.surviving = report.chan_map[ch.entry].expect("entry channel survives");
        ring_needs[ch.surviving] = ring_needs[ch.surviving].max(ch.capacity);
        fused.consumer_of[ch.surviving] = proc_of(ends.consumer_of[ch.exit]);
        fused.traffic[ch.surviving] = ch.traffic;
    }

    report.processes_after = procs.len();
    report.channels_after = new_nc;
    report.ops_after = ops.len();
    report.chains = chains;
    let module = Arc::new(ProcIrModule {
        ops: ops.into(),
        data,
        moving: moving.into(),
        points: points.into(),
        procs: procs.into(),
        n_chans: new_nc,
        n_outputs: module.n_outputs,
        kernel: module.kernel.clone(),
    });
    debug_assert_eq!(crate::batch::check(&module, &fused), Ok(()), "fused tables");
    let optimized = OptimizedModule {
        module,
        ring_needs,
        report: Arc::new(report),
    };
    (optimized, fused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::analyze;
    use crate::coop::Network;
    use crate::procir::ProcIrBuilder;
    use crate::wavefront::{analyze_wavefront, run_wavefront};

    /// The optimizer over a hand-built module and the tables its walk
    /// derives.
    fn opt(m: &Arc<ProcIrModule>) -> Option<(OptimizedModule, BatchPlan)> {
        optimize(m, &analyze(m).unwrap())
    }

    /// The outputs of a fused module on the fast engine, over its delay
    /// rings, held to the rendezvous engine on the same module (outputs,
    /// messages, steps).
    fn run_fused(module: &Arc<ProcIrModule>, needs: &[u64]) -> Vec<Vec<crate::Value>> {
        let plan = analyze(module).unwrap();
        let wf = analyze_wavefront(module, &plan, needs);
        let (fs, fouts, _) = run_wavefront(module, &wf, None, false).unwrap();
        let (ps, pouts) = Network::of(module).run_with_outputs().unwrap();
        assert_eq!((fs.messages, fs.steps), (ps.messages, ps.steps));
        assert_eq!(fouts, pouts);
        fouts
    }

    /// src -> relay -> relay -> relay -> sink: the three relays fuse
    /// into one delay ring on the entry channel and the sink reads the
    /// identical stream.
    #[test]
    fn relay_chain_fuses_into_one_delay_ring() {
        let mut b = ProcIrBuilder::new();
        let vals: Vec<i64> = (0..10).collect();
        b.source(0, &vals, "src");
        b.relay(0, 1, 10, "buf0");
        b.relay(1, 2, 10, "buf1");
        b.relay(2, 3, 10, "buf2");
        b.sink(3, 10, "sink");
        let m = b.build();
        let (o, ends) = opt(&m).expect("chain should fuse");
        assert_eq!(o.module.procs.len(), 2, "only src and sink survive");
        assert_eq!(o.module.n_chans, 1, "one delay ring channel");
        assert_eq!(o.report.chains.len(), 1);
        assert_eq!(o.report.fused_relays(), 3);
        let ch = &o.report.chains[0];
        assert_eq!((ch.entry, ch.exit, ch.traffic), (0, 3, 10));
        assert_eq!(ch.capacity, 3, "one held value per relay");
        assert_eq!(o.ring_needs[ch.surviving], ch.capacity);
        // The ring takes the chain's traffic and its consumer, renumbered.
        assert_eq!(ends.producer_of, [Some(0)]);
        assert_eq!(ends.consumer_of, [Some(1)]);
        assert_eq!(ends.traffic, [10]);
        // The fused module actually runs and the sink sees the stream.
        assert_eq!(run_fused(&o.module, &o.ring_needs)[0], vals);
    }

    /// Fusion deletes relays, and relays own no data: the optimized
    /// module's data segment is the input module's word for word — same
    /// words, same order, same per-process ranges — so a segment gathered
    /// for one binds to the other. Sources sit before, between and after
    /// the fused chains here so a reordering would show. (The same on
    /// the design corpus: `tests/binding.rs`.)
    #[test]
    fn the_data_segment_survives_fusion_word_for_word() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3], "src-a");
        b.relay(0, 1, 3, "a0");
        b.relay(1, 2, 3, "a1");
        b.source(3, &[40, 50], "src-b");
        b.sink(2, 3, "sink-a");
        b.relay(3, 4, 2, "b0");
        b.sink(4, 2, "sink-b");
        b.source(5, &[600], "src-c");
        b.sink(5, 1, "sink-c");
        let m = b.build();
        let (o, _) = opt(&m).expect("both chains fuse");
        assert_eq!(o.report.fused_relays(), 3);
        assert_eq!(o.module.data, m.data);
        for (pid, mapped) in o.report.proc_map.iter().enumerate() {
            match mapped {
                Some(new) => assert_eq!(o.module.procs[*new].data, m.procs[pid].data),
                None => assert!(m.data_of(pid).is_empty()),
            }
        }
        // Other data over the optimized code runs to the other result.
        let bound = o.module.with_data(vec![7, 8, 9, -1, -2, 0]);
        let outs = run_fused(&bound, &o.ring_needs);
        assert_eq!(outs[0], vec![7, 8, 9]);
        assert_eq!(outs[1], vec![-1, -2]);
        assert_eq!(outs[2], vec![0]);
    }

    /// Keep/Eject endpoints are never relay-fused: the keeping process
    /// is not a pure relay, so the chain stops at its channel.
    #[test]
    fn keep_eject_endpoints_survive() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[7], "src");
        b.begin("keeper");
        b.op(ProcOp::Keep { chan: 0, slot: 0 });
        b.op(ProcOp::Compute { count: 0 });
        b.op(ProcOp::Eject { chan: 1, slot: 0 });
        // A second use of the slot, so the keep/eject peephole cannot
        // rewrite it either (the dropped Compute makes it adjacent).
        b.op(ProcOp::Eject { chan: 2, slot: 0 });
        b.finish();
        b.sink(1, 1, "sink");
        b.sink(2, 1, "sink2");
        let m = b.build();
        let (o, _) = opt(&m).expect("the zero Compute is dropped");
        assert_eq!(o.report.zero_ops_dropped, 1);
        assert_eq!(o.report.keep_eject_fused, 0, "live local is kept");
        assert!(o.report.chains.is_empty());
        assert_eq!(o.module.procs.len(), m.procs.len());
    }

    /// keep s; eject s with a dead local becomes pass 1, which then
    /// makes the process a pure relay the chain pass consumes.
    #[test]
    fn dead_keep_eject_becomes_a_relay_and_fuses() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[3, 4], "src");
        b.relay(0, 1, 2, "buf");
        b.begin("keeper");
        b.op(ProcOp::Keep { chan: 1, slot: 0 });
        b.op(ProcOp::Eject { chan: 2, slot: 0 });
        b.op(ProcOp::Keep { chan: 1, slot: 0 });
        b.op(ProcOp::Eject { chan: 2, slot: 0 });
        b.finish();
        b.sink(2, 2, "sink");
        let m = b.build();
        let (o, _) = opt(&m).expect("should rewrite and fuse");
        assert_eq!(o.report.keep_eject_fused, 2);
        assert_eq!(o.report.passes_merged, 1, "the two pass 1s merge");
        assert_eq!(o.report.fused_relays(), 2, "relay and keeper both fuse");
        assert_eq!(o.module.procs.len(), 2);
        assert_eq!(run_fused(&o.module, &o.ring_needs)[0], vec![3, 4]);
    }

    /// A chain's need is one slot per relay, at most its traffic; the
    /// wavefront plan grants at least that, and the fused module answers
    /// what the rendezvous run of the module as elaborated answers.
    #[test]
    fn a_fused_chain_needs_one_slot_per_relay_up_to_its_traffic() {
        for (relays, traffic) in [(1usize, 1usize), (3, 10), (5, 2), (8, 8)] {
            let mut b = ProcIrBuilder::new();
            let vals: Vec<i64> = (0..traffic as i64).map(|v| 3 * v - 7).collect();
            b.source(0, &vals, "src");
            for r in 0..relays {
                b.relay(r, r + 1, traffic, format!("buf{r}"));
            }
            b.sink(relays, traffic, "sink");
            let m = b.build();
            let (o, ends) = opt(&m).expect("the chain fuses");
            let ch = &o.report.chains[0];
            let ctx = format!("{relays} relays, traffic {traffic}");
            assert_eq!(ch.relays.len(), relays, "{ctx}");
            assert!(
                ch.capacity >= relays as u64 || ch.capacity == ch.traffic,
                "{ctx}"
            );
            assert!(ch.capacity <= ch.traffic, "{ctx}");
            let wf = analyze_wavefront(&o.module, &ends, &o.ring_needs);
            assert!(wf.capacities[ch.surviving] >= ch.capacity, "{ctx}");
            let (_, elaborated) = Network::of(&m).run_with_outputs().unwrap();
            assert_eq!(elaborated[0], vals, "{ctx}");
            assert_eq!(run_fused(&o.module, &o.ring_needs), elaborated, "{ctx}");
        }
    }

    /// Consecutive same-pair passes merge; different pairs do not.
    #[test]
    fn consecutive_passes_merge() {
        let mut b = ProcIrBuilder::new();
        b.begin("seg");
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: 2,
        });
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: 3,
        });
        b.op(ProcOp::Pass {
            inp: 2,
            out: 3,
            n: 1,
        });
        b.finish();
        b.source(0, &[0; 5], "s0");
        b.source(2, &[0; 1], "s2");
        b.sink(1, 5, "k1");
        b.sink(3, 1, "k3");
        let m = b.build();
        let (o, _) = opt(&m).expect("passes merge");
        assert_eq!(o.report.passes_merged, 1);
        let seg_ops = o.module.ops_of(o.report.proc_map[0].unwrap());
        assert_eq!(seg_ops.len(), 2);
        assert!(matches!(seg_ops[0], ProcOp::Pass { n: 5, .. }));
    }

    /// The peepholes copy only the processes they rewrite, and a module
    /// with nothing to rewrite — no peephole applies, no process is a
    /// pure relay — is declined by the scan alone.
    #[test]
    fn peepholes_copy_only_what_they_rewrite() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2], "src");
        b.begin("cell");
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: 1,
        });
        b.op(ProcOp::Compute { count: 0 });
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: 1,
        });
        b.finish();
        b.sink(1, 2, "sink");
        let m = b.build();
        let mut report = OptReport::default();
        let copied: Vec<bool> = (0..3)
            .map(|pid| peephole(&m, pid, &mut report).is_some())
            .collect();
        assert_eq!(copied, [false, true, false]);
        assert_eq!((report.zero_ops_dropped, report.passes_merged), (1, 1));

        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2], "src");
        b.sink(0, 2, "sink");
        let m = b.build();
        assert!(!(0..2).any(|pid| peephole_applies(m.ops_of(pid))));
        let ends = analyze(&m).unwrap();
        assert!(optimize(&m, &ends).is_none() && optimize_without_scan(&m, &ends).is_none());
    }

    /// A closed loop of pure relays has no external endpoints and must
    /// be left alone rather than fused into a self-loop.
    #[test]
    fn pure_relay_cycle_is_left_alone() {
        let mut b = ProcIrBuilder::new();
        b.relay(0, 1, 4, "r0");
        b.relay(1, 0, 4, "r1");
        let m = b.build();
        assert!(opt(&m).is_none());
    }

    #[test]
    fn report_json_parses_and_carries_the_counts() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3], "src");
        b.relay(0, 1, 3, "buf0");
        b.relay(1, 2, 3, "buf1");
        b.sink(2, 3, "sink");
        let (o, _) = opt(&b.build()).unwrap();
        let doc = crate::json::parse(&o.report.to_json()).expect("valid JSON");
        assert_eq!(doc, o.report.json());
        let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_i64);
        assert_eq!(num(&doc, "processes_before"), Some(4));
        assert_eq!(num(&doc, "processes_after"), Some(2));
        let chains = doc.get("chains").and_then(Json::as_arr).unwrap();
        assert_eq!(chains.len(), 1);
        assert_eq!(num(&chains[0], "relays"), Some(2));
        assert_eq!(num(&chains[0], "traffic"), Some(3));
    }
}
