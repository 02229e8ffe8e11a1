//! The ProcIR optimizer: relay-chain fusion into delay rings.
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
//! law, and every structural decision written into the report
//! (`systolic-opt-v1`) the caller can thread into metrics, the CLI, and
//! the codegen agreement check. Fusion is the only rewrite: the
//! elaborator emits no zero-count op, no two consecutive passes over one
//! channel pair and no adjacent `Keep`/`Eject` of one slot, so no op list
//! has anything to shorten (a law of the elaborator, asserted by the
//! tier-1 suites on every corpus row and compiled random program). A
//! module with no chain is declined before anything is copied.

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
            "{} relays fused into {} delay rings, {}→{} processes, {}→{} channels",
            self.fused_relays(),
            self.chains.len(),
            self.processes_before,
            self.processes_after,
            self.channels_before,
            self.channels_after,
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

/// Fuse the relay chains of `module`, found through its channel tables
/// `ends`, returning the rewrite with the tables mapped through it, or
/// `None` when there is no chain. The search reads the module in place,
/// so a decline — any module without a relay, such as E.1's — copies
/// nothing.
pub fn optimize(
    module: &Arc<ProcIrModule>,
    ends: &BatchPlan,
) -> Option<(OptimizedModule, BatchPlan)> {
    let chains = find_chains(module, ends);
    if chains.is_empty() {
        return None;
    }
    Some(rebuild(module, ends, chains))
}

/// A process is a pure relay when it is exactly one `Pass` between
/// distinct channels and nothing else — no `Keep`/`Eject`, no moving
/// links, no output buffer. Such a process computes the identity stream
/// function, so it (and only it) is a fusion candidate; in particular a
/// `Keep`/`Eject` endpoint can never be fused away.
fn pure_relay(module: &ProcIrModule, pid: ProcId) -> Option<(ChanId, ChanId, u64)> {
    match *module.ops_of(pid) {
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
/// and is left alone. Allocates nothing until it meets a relay.
fn find_chains(module: &ProcIrModule, ends: &BatchPlan) -> Vec<ChainRecord> {
    let relay = |pid| pure_relay(module, pid);
    let n = module.procs.len();
    let mut in_chain = Vec::new();
    let mut chains = Vec::new();
    for seed in 0..n {
        if in_chain.get(seed) == Some(&true) {
            continue;
        }
        let Some((mut inp, _, traffic)) = relay(seed) else {
            continue;
        };
        in_chain.resize(n, false);
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
fn rebuild(
    module: &Arc<ProcIrModule>,
    ends: &BatchPlan,
    mut chains: Vec<ChainRecord>,
) -> (OptimizedModule, BatchPlan) {
    let mut report = OptReport {
        processes_before: module.procs.len(),
        channels_before: module.n_chans,
        ops_before: module.ops.len(),
        proc_map: vec![None; module.procs.len()],
        chan_map: vec![None; module.n_chans],
        ..OptReport::default()
    };
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
            if let [ProcOp::Pass { inp, .. }] = *module.ops_of(pid) {
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
        for op in module.ops_of(pid) {
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
    /// the design corpus: the `binding` column of `tests/matrix.rs`.)
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
    /// is not a pure relay, so the chains on either side of it stop at
    /// its channels and it survives.
    #[test]
    fn keep_eject_endpoints_survive() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[7], "src");
        b.relay(0, 1, 1, "in");
        b.begin("keeper");
        b.op(ProcOp::Keep { chan: 1, slot: 0 });
        b.op(ProcOp::Eject { chan: 2, slot: 0 });
        b.finish();
        b.relay(2, 3, 1, "out");
        b.sink(3, 1, "sink");
        let m = b.build();
        let (o, _) = opt(&m).expect("the relays on either side fuse");
        assert_eq!(o.report.chains.len(), 2);
        assert_eq!(o.report.fused_relays(), 2);
        let keeper = o.report.proc_map[2].expect("the keeper survives");
        assert!(matches!(
            o.module.ops_of(keeper),
            [ProcOp::Keep { .. }, ProcOp::Eject { .. }]
        ));
        assert_eq!(run_fused(&o.module, &o.ring_needs)[0], vec![7]);
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
