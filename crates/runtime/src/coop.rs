//! The cooperative, deterministic scheduler.
//!
//! Generated systolic programs have no data-dependent control flow, so a
//! single-threaded round-based simulation is faithful to the asynchronous
//! semantics (any interleaving yields the same results — the Sec. 4
//! correctness argument) while also *measuring* the lock-step lower bound:
//! one **round** completes every rendezvous that is enabled at its start,
//! mirroring the global clock tick of the hardware array.
//!
//! The engine runs one [`ProcIrModule`]: each process is stepped by the
//! one op step (`crate::step`) over the communication set it blocked
//! on, now complete, and its registers, stream locals, index point and
//! output live in the thread's run arena (`crate::arena`), the tables
//! the fast engine runs on too.
//!
//! The engine is event-driven: channel endpoints live in a persistent
//! dense table (`Vec<ChanSlot>` indexed by [`ChanId`]) updated
//! incrementally as processes register and complete comm sets, and each
//! round visits only a worklist of channels that may be enabled instead
//! of re-scanning every process. See `docs/scheduler.md` for the design
//! and its invariants.
//!
//! ## Reuse invariant (zero steady-state allocation)
//!
//! After warm-up, a round performs **no heap allocation**: the worklists
//! (`worklist`/`work_scratch`), the ready queue and the request scratch
//! buffer are cleared and refilled in place, never dropped; every
//! process's communication set has a fixed span of one `pending`/`inbox`
//! table, and the channel table is sized once. The only exception is
//! an attached recorder that logs, which grows by design.
//!
//! Deadlock is detected exactly: unfinished processes with no enabled
//! rendezvous.

use crate::arena::{with_arena, RunArena};
use crate::process::{lock, ChanId, CommReq, Value};
use crate::procir::ProcIrModule;
use crate::record::{SharedRecorder, Transfer};
use crate::schedule::{SchedulePolicy, STARVATION_LIMIT};
use crate::step::{blocked_on, step_window, Completed, ProcView};
use std::sync::Arc;

// Spelled by the frozen `benchmark/src/stages.rs:16,71`; goes with ROADMAP 2(b).
#[doc(hidden)]
pub enum ChannelPolicy {
    Rendezvous,
}

/// Execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Rendezvous rounds — the virtual systolic clock.
    pub rounds: u64,
    /// Total values transferred over channels.
    pub messages: u64,
    /// Number of processes that ran.
    pub processes: usize,
    /// Total `step` invocations across processes.
    pub steps: u64,
}

/// A deadlock: the blocked processes and what they wait on.
#[derive(Clone, Debug)]
pub struct Deadlock {
    pub blocked: Vec<String>,
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadlock: {} process(es) blocked: ", self.blocked.len())?;
        for (i, b) in self.blocked.iter().take(8).enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{b}")?;
        }
        if self.blocked.len() > 8 {
            write!(f, "; ...")?;
        }
        Ok(())
    }
}

impl std::error::Error for Deadlock {}

/// A malformed network: two processes simultaneously pending on the same
/// channel endpoint. Channels are point-to-point wires in the systolic
/// model, so this is a plan bug — diagnosed, not a panic.
#[derive(Clone, Debug)]
pub struct ProtocolViolation {
    pub chan: ChanId,
    /// Which endpoint was claimed twice: `"sender"` or `"receiver"`.
    pub endpoint: &'static str,
    /// Label of the process already registered on the endpoint.
    pub first: String,
    /// Label of the process that tried to claim it as well.
    pub second: String,
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "protocol violation: two {}s pending on channel {} ({} and {})",
            self.endpoint, self.chan, self.first, self.second
        )
    }
}

impl std::error::Error for ProtocolViolation {}

/// Why a network run stopped without completing. Shared by both
/// engines, each of which detects a deadlock exactly.
#[derive(Clone, Debug)]
pub enum RunError {
    Deadlock(Deadlock),
    Protocol(ProtocolViolation),
}

impl RunError {
    /// The deadlock, if that is what stopped the run.
    pub fn as_deadlock(&self) -> Option<&Deadlock> {
        match self {
            RunError::Deadlock(d) => Some(d),
            _ => None,
        }
    }

    /// A stable machine-readable label for the error class. Service
    /// boundaries key their structured responses on this so that the
    /// classification survives any change to the `Display` prose.
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::Deadlock(_) => "deadlock",
            RunError::Protocol(_) => "protocol",
        }
    }

    /// The offender labels the diagnosis carries: the blocked processes
    /// of a deadlock, the two claimants of a protocol violation.
    pub fn offenders(&self) -> Vec<String> {
        match self {
            RunError::Deadlock(d) => d.blocked.clone(),
            RunError::Protocol(p) => vec![p.first.clone(), p.second.clone()],
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock(d) => d.fmt(f),
            RunError::Protocol(p) => p.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<Deadlock> for RunError {
    fn from(d: Deadlock) -> Self {
        RunError::Deadlock(d)
    }
}

impl From<ProtocolViolation> for RunError {
    fn from(p: ProtocolViolation) -> Self {
        RunError::Protocol(p)
    }
}

/// `label [send@c,recv@c,…]`: one blocked process and the requests it
/// waits on, as every engine's deadlock report names them.
pub(crate) fn blocked_line<'a>(label: &str, waits: impl Iterator<Item = &'a CommReq>) -> String {
    let wait = |r: &CommReq| format!("{}@{}", ["recv", "send"][r.is_send() as usize], r.chan());
    format!(
        "{label} [{}]",
        waits.map(wait).collect::<Vec<_>>().join(",")
    )
}

/// One process's communication set: `len` requests of the network's
/// `pending` table from `off`, `remaining` of them not yet complete.
/// A set holds at most `max(1, moving links)` requests, so every
/// process's span is fixed when the run starts.
#[derive(Clone, Copy, Default)]
struct CommSet {
    off: u32,
    len: u32,
    remaining: u32,
}

/// One channel's persistent endpoint state. `ChanId`s are dense, so the
/// whole channel table is a flat `Vec<ChanSlot>` — registration,
/// matching, and completion are all O(1) indexed accesses with no
/// hashing anywhere on the round path.
#[derive(Clone, Default)]
struct ChanSlot {
    /// The at-most-one pending sender: (process, request index, value).
    sender: Option<(usize, usize, Value)>,
    /// The at-most-one pending receiver: (process, request index).
    receiver: Option<(usize, usize)>,
    /// Whether the channel is already queued in the round worklist.
    in_worklist: bool,
}

/// The processes of one [`ProcIrModule`] plus channel state, run to
/// completion by [`Network::run`]. Every channel is a synchronous
/// rendezvous (the paper's model, Sec. 4); `Network::default()` runs the
/// empty module.
#[derive(Default)]
pub struct Network {
    module: Arc<ProcIrModule>,
    /// Dense channel table, indexed by `ChanId`.
    chans: Vec<ChanSlot>,
    /// Channels that may fire next round (deduplicated via
    /// `ChanSlot::in_worklist`).
    worklist: Vec<ChanId>,
    /// Previous round's worklist, kept to reuse its allocation.
    work_scratch: Vec<ChanId>,
    /// Processes whose comm set completed this round.
    ready: Vec<usize>,
    /// Every process's pending requests with completion marks, at the
    /// offsets of `sets`; a request index is absolute into this table.
    pending: Vec<(CommReq, bool)>,
    /// The value each completed receive delivered, indexed like `pending`.
    inbox: Vec<Value>,
    sets: Vec<CommSet>,
    /// Reused buffer of the requests a step blocks on.
    req_scratch: Vec<CommReq>,
    /// Processes not yet finished, so the run loop never re-scans
    /// the processes for termination.
    unfinished: usize,
    stats: RunStats,
    /// Attached observability sinks (see `crate::record`). Empty in the
    /// common case: every recording hook is behind one `is_empty` branch,
    /// so an unobserved run allocates and locks nothing extra.
    recorders: Vec<SharedRecorder>,
    /// Rounds at which each channel's current (sender, receiver)
    /// registered, indexed like `chans`. Kept out of `ChanSlot` — and
    /// empty unless recorders are attached — so observability adds no
    /// bytes to the hot channel table of an unobserved run.
    since: Vec<(u64, u64)>,
    /// Optional schedule decision procedure (see `crate::schedule`).
    /// `None` in the common case: the round path tests one discriminant
    /// and otherwise runs the historical canonical order unchanged.
    sched: Option<Box<dyn SchedulePolicy>>,
    /// Scratch list handed to the policy for deferrals; reused per round.
    defer_scratch: Vec<ChanId>,
    /// How many channels the policy deferred in the last round (always 0
    /// without a policy), so `run` can tell a starved round from a
    /// genuine deadlock.
    deferred: u64,
    /// Consecutive rounds in which the policy deferred every enabled
    /// rendezvous; capped by [`STARVATION_LIMIT`].
    starved: u64,
}

impl Network {
    /// The rendezvous network of `module`'s processes.
    pub fn of(module: &Arc<ProcIrModule>) -> Network {
        Network {
            module: module.clone(),
            ..Network::default()
        }
    }

    // Spelled by the frozen `benchmark/src/stages.rs:71`; goes with ROADMAP 2(b).
    #[doc(hidden)]
    pub fn new(_: ChannelPolicy) -> Network {
        Network::default()
    }

    // Spelled by the frozen `benchmark/src/stages.rs:72–74`, which adds
    // the one module `ProcIrModule::instantiate` hands it; goes with
    // ROADMAP 2(b).
    #[doc(hidden)]
    pub fn add(&mut self, module: Arc<ProcIrModule>) {
        self.module = module;
    }

    /// Attach a schedule policy (see `crate::schedule`); the engine hands
    /// it each round's candidate channels and ready processes instead of
    /// using the canonical ascending order. Attach before [`Network::run`].
    /// With [`crate::schedule::FifoPolicy`] (or no policy) the run is
    /// bit-identical to the unhooked engine.
    pub fn set_schedule_policy(&mut self, policy: Box<dyn SchedulePolicy>) {
        self.sched = Some(policy);
    }

    /// Attach an observability sink; every recorder receives the full
    /// event stream (transfers with wait attribution, steps, retired op
    /// effects, process terminations, run start/end). Attach before
    /// [`Network::run`].
    pub fn add_recorder(&mut self, recorder: SharedRecorder) {
        self.recorders.push(recorder);
    }

    /// Run all processes to completion. Returns statistics, or the
    /// deadlock / protocol violation if progress stops.
    pub fn run(self) -> Result<RunStats, RunError> {
        self.run_with_outputs().map(|(stats, _)| stats)
    }

    /// [`Network::run`], with the output buffers the `Collect` ops
    /// filled, by output id. Every process's registers, locals, index
    /// point and output live in the thread's run arena (`crate::arena`),
    /// the fast engine's; the network adds its channel table and each
    /// process's communication set.
    pub fn run_with_outputs(mut self) -> Result<(RunStats, Vec<Vec<Value>>), RunError> {
        with_arena(|arena| {
            arena.reset_procs(&self.module);
            let stats = self.run_in(arena)?;
            Ok((stats, std::mem::take(&mut arena.outputs)))
        })
    }

    fn run_in(&mut self, arena: &mut RunArena) -> Result<RunStats, RunError> {
        let module = self.module.clone();
        let n = module.procs.len();
        let mut off = 0u32;
        self.sets.clear();
        self.sets.extend((0..n).map(|pid| {
            let set = CommSet {
                off,
                ..CommSet::default()
            };
            off += module.moving_of(pid).len().max(1) as u32;
            set
        }));
        let unused = (CommReq::Recv { chan: 0 }, false);
        self.pending.resize(off as usize, unused);
        self.inbox.resize(off as usize, 0);
        self.chans.resize(module.n_chans, ChanSlot::default());
        self.stats.processes = n;
        self.unfinished = n;
        if !self.recorders.is_empty() {
            self.since.resize(module.n_chans, (0, 0));
            let labels: Vec<String> = module.procs.iter().map(|p| p.label.clone()).collect();
            for r in &self.recorders {
                lock(r).start(&labels);
            }
        }
        // Prime every process.
        for pid in 0..n {
            self.advance(arena, pid)?;
        }
        loop {
            if self.unfinished == 0 {
                for r in &self.recorders {
                    lock(r).end(self.stats.rounds);
                }
                return Ok(self.stats.clone());
            }
            let fired = self.round(arena)?;
            if fired == 0 {
                // A round that moved nothing is a deadlock — unless an
                // attached policy deferred enabled rendezvous, in which
                // case progress is still possible. Starvation is bounded:
                // a policy deferring everything forever is converted into
                // the deadlock it is hiding.
                self.starved += 1;
                if self.deferred == 0 || self.starved > STARVATION_LIMIT {
                    return Err(self.deadlock_report(arena).into());
                }
            } else {
                self.starved = 0;
            }
            self.stats.rounds += 1;
        }
    }

    fn deadlock_report(&self, arena: &RunArena) -> Deadlock {
        let blocked = (0..self.sets.len()).filter(|&pid| !arena.done[pid]);
        let blocked = blocked.map(|pid| {
            let CommSet { off, len, .. } = self.sets[pid];
            let set = &self.pending[off as usize..(off + len) as usize];
            let waits = set.iter().filter(|&&(_, done)| !done);
            blocked_line(self.module.label_of(pid), waits.map(|(r, _)| r))
        });
        Deadlock {
            blocked: blocked.collect(),
        }
    }

    /// Step process `pid` past its completed set — the op step
    /// ([`step_window`]) over that set, then the set it blocks on next
    /// ([`blocked_on`]) — and register the new set in the channel table.
    /// All buffers involved are reused (see the module-level reuse
    /// invariant).
    fn advance(&mut self, arena: &mut RunArena, pid: usize) -> Result<(), ProtocolViolation> {
        let module = &*self.module;
        let rec = &module.procs[pid];
        let CommSet { off, len, .. } = self.sets[pid];
        let span = off as usize..(off + len) as usize;
        // A set is all receives or all sends (`blocked_on`); a completed
        // receive set delivers its values in request order.
        let receives = len > 0 && !self.pending[off as usize].0.is_send();
        let received = if receives { &self.inbox[span] } else { &[] };
        let mut port = Completed::new(len as usize, received);
        let p = ProcView {
            regs: &mut arena.regs[pid],
            locals: &mut arena.locals,
            x: &mut arena.x,
            tape: &mut arena.scratch.regs,
            out: rec.output.map(|o| &mut arena.outputs[o as usize]),
            recorders: &self.recorders,
        };
        // The engine counts steps and messages itself.
        let (mut counted, mut moved) = (RunStats::default(), 0);
        let (ops, recording) = (rec.ops, !self.recorders.is_empty());
        let left = if recording {
            step_window::<_, true>(module, pid, ops, p, &mut port, &mut counted, &mut moved)
        } else {
            step_window::<_, false>(module, pid, ops, p, &mut port, &mut counted, &mut moved)
        };
        debug_assert!(port.consumed(), "a step retires the whole completed set");
        let next = &mut self.req_scratch;
        next.clear();
        if !left {
            blocked_on(module, pid, &arena.regs[pid], &arena.locals, next);
        }
        self.stats.steps += 1;
        if recording {
            for r in &self.recorders {
                lock(r).step(self.stats.rounds, pid);
            }
        }

        let n = self.req_scratch.len();
        debug_assert!(n <= module.moving_of(pid).len().max(1), "set past its span");
        self.sets[pid].len = n as u32;
        self.sets[pid].remaining = n as u32;
        if n == 0 {
            arena.done[pid] = true;
            self.unfinished -= 1;
            if recording {
                for r in &self.recorders {
                    lock(r).finished(self.stats.rounds, pid);
                }
            }
            return Ok(());
        }

        // Register each endpoint; a channel that became transfer-ready
        // joins the worklist for the next round.
        for (i, &req) in self.req_scratch.iter().enumerate() {
            let at = off as usize + i;
            self.pending[at] = (req, false);
            let slot = &mut self.chans[req.chan()];
            let conflict = match req {
                CommReq::Send { chan, value } => match slot.sender {
                    Some((prev, _, _)) => Some(("sender", prev)),
                    None => {
                        slot.sender = Some((pid, at, value));
                        if recording {
                            self.since[chan].0 = self.stats.rounds;
                        }
                        None
                    }
                },
                CommReq::Recv { chan } => match slot.receiver {
                    Some((prev, _)) => Some(("receiver", prev)),
                    None => {
                        slot.receiver = Some((pid, at));
                        if recording {
                            self.since[chan].1 = self.stats.rounds;
                        }
                        None
                    }
                },
            };
            if let Some((endpoint, prev)) = conflict {
                return Err(ProtocolViolation {
                    chan: req.chan(),
                    endpoint,
                    first: module.label_of(prev).to_string(),
                    second: module.label_of(pid).to_string(),
                });
            }
            if !slot.in_worklist && slot.sender.is_some() && slot.receiver.is_some() {
                slot.in_worklist = true;
                self.worklist.push(req.chan());
            }
        }
        Ok(())
    }

    /// Mark request `at` of process `pid` complete (optionally delivering
    /// a received value); queues the process when its whole set is done.
    fn complete(&mut self, pid: usize, at: usize, value: Option<Value>) {
        debug_assert!(!self.pending[at].1, "request completed twice");
        self.pending[at].1 = true;
        if let Some(v) = value {
            self.inbox[at] = v;
        }
        let set = &mut self.sets[pid];
        set.remaining -= 1;
        if set.remaining == 0 {
            self.ready.push(pid);
        }
    }

    /// One round: complete every rendezvous enabled at the start of the
    /// round, then re-step processes whose sets completed. Returns the
    /// number of transfers performed.
    ///
    /// Only channels on the worklist are visited; the sort makes firing
    /// order (and thus the trace) identical to the historical
    /// scan-all-channels scheduler. Registrations performed by the
    /// end-of-round `advance` calls land in the *next* round's worklist,
    /// preserving the snapshot-at-round-start semantics.
    fn round(&mut self, arena: &mut RunArena) -> Result<u64, ProtocolViolation> {
        std::mem::swap(&mut self.worklist, &mut self.work_scratch);
        self.work_scratch.sort_unstable();
        if self.sched.is_some() {
            self.schedule_worklist();
        }
        let mut fired = 0u64;

        for wi in 0..self.work_scratch.len() {
            let chan = self.work_scratch[wi];
            let slot = &mut self.chans[chan];
            slot.in_worklist = false;
            // Both endpoints were present when the channel was enqueued
            // and can only be consumed by firing, so they are still
            // present; `take` keeps this robust.
            let (Some((spi, sri, v)), Some((rpi, rri))) =
                (slot.sender.take(), slot.receiver.take())
            else {
                continue;
            };
            if !self.recorders.is_empty() {
                let (s_since, r_since) = self.since[chan];
                let now = self.stats.rounds;
                let ev = Transfer {
                    time: now,
                    chan,
                    value: v,
                    sender: spi,
                    receiver: rpi,
                    sender_wait: now - s_since,
                    receiver_wait: now - r_since,
                };
                for r in &self.recorders {
                    lock(r).transfer(&ev);
                }
            }
            self.complete(spi, sri, None);
            self.complete(rpi, rri, Some(v));
            fired += 1;
        }
        self.work_scratch.clear();
        self.stats.messages += fired;

        // Advance completed processes in index order (their registrations
        // target the next round via `self.worklist`), unless an attached
        // policy picks a different permutation.
        let mut ready = std::mem::take(&mut self.ready);
        ready.sort_unstable();
        if let Some(sched) = self.sched.as_mut() {
            sched.order_ready(self.stats.rounds, &mut ready);
        }
        for &pid in &ready {
            debug_assert!(!arena.done[pid] && self.sets[pid].remaining == 0);
            self.advance(arena, pid)?;
        }
        ready.clear();
        self.ready = ready;
        Ok(fired)
    }

    /// Cold path of [`Network::round`], entered only with a policy
    /// attached: hand the sorted candidate list to the policy and carry
    /// any deferred channels over to the next round's worklist (their
    /// `in_worklist` claim stays set, so the dedup invariant holds).
    fn schedule_worklist(&mut self) {
        let sched = self.sched.as_mut().expect("checked by caller");
        self.defer_scratch.clear();
        sched.schedule_round(
            self.stats.rounds,
            &mut self.work_scratch,
            &mut self.defer_scratch,
        );
        self.deferred = self.defer_scratch.len() as u64;
        self.worklist.append(&mut self.defer_scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, KernelOp};
    use crate::procir::{MovingLink, ProcIrBuilder, ProcOp};

    /// A fresh network over a builder's module.
    fn net_of(b: ProcIrBuilder) -> Network {
        Network::of(&b.build())
    }

    #[test]
    fn pipeline_delivers_in_order() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3], "src");
        b.relay(0, 1, 3, "relay");
        b.sink(1, 3, "sink");
        let (stats, outs) = net_of(b).run_with_outputs().unwrap();
        assert_eq!(outs[0], vec![1, 2, 3]);
        assert_eq!(stats.messages, 6, "3 values over 2 hops");
        assert_eq!(stats.processes, 3);
    }

    #[test]
    fn deadlock_detected() {
        // A sink waiting on a channel nobody sends on.
        let mut b = ProcIrBuilder::new();
        b.sink(9, 1, "lonely-sink");
        let err = net_of(b).run().unwrap_err();
        let deadlock = err.as_deadlock().expect("deadlock, not protocol error");
        assert_eq!(deadlock.blocked.len(), 1);
        assert!(deadlock.blocked[0].contains("recv@9"));
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn mismatched_counts_deadlock() {
        // Source sends 3, sink expects 4.
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3], "src");
        b.sink(0, 4, "sink");
        assert!(net_of(b).run().is_err());
    }

    #[test]
    fn two_senders_is_a_protocol_violation() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "src-a");
        b.source(0, &[2], "src-b");
        b.sink(0, 2, "sink");
        let err = net_of(b).run().unwrap_err();
        let RunError::Protocol(v) = err else {
            panic!("expected protocol violation, got {err}");
        };
        assert_eq!(v.chan, 0);
        assert_eq!(v.endpoint, "sender");
        assert_eq!(v.first, "src-a");
        assert_eq!(v.second, "src-b");
        assert!(v.to_string().contains("two senders"));
    }

    #[test]
    fn two_receivers_is_a_protocol_violation() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2], "src");
        b.sink(0, 1, "sink-a");
        b.sink(0, 1, "sink-b");
        let err = net_of(b).run().unwrap_err();
        let RunError::Protocol(v) = err else {
            panic!("expected protocol violation, got {err}");
        };
        assert_eq!(v.endpoint, "receiver");
        assert_eq!((v.first.as_str(), v.second.as_str()), ("sink-a", "sink-b"));
    }

    #[test]
    fn violation_mid_run_is_diagnosed() {
        // The conflict only materializes after the first value moves:
        // a relay starts forwarding onto a channel that already has a
        // long-lived sender.
        let mut b = ProcIrBuilder::new();
        b.source(0, &[7, 9], "src-direct");
        b.source(1, &[8], "src-upstream");
        b.relay(1, 0, 1, "relay");
        b.sink(0, 3, "sink");
        let err = net_of(b).run().unwrap_err();
        let RunError::Protocol(v) = err else {
            panic!("expected protocol violation, got {err}");
        };
        assert_eq!(
            (v.first.as_str(), v.second.as_str()),
            ("src-direct", "relay")
        );
    }

    #[test]
    fn rendezvous_rounds_reflect_pipelining() {
        // A chain of k relays: first value needs k+1 rounds to cross, and
        // subsequent values pipeline behind it.
        let k = 4usize;
        let n = 10usize;
        let mut b = ProcIrBuilder::new();
        let values: Vec<Value> = (0..n as i64).collect();
        b.source(0, &values, "src");
        for i in 0..k {
            b.relay(i, i + 1, n, format!("relay{i}"));
        }
        b.sink(k, n, "sink");
        let (stats, outs) = net_of(b).run_with_outputs().unwrap();
        assert_eq!(outs[0].len(), n);
        // Pipelined: rounds ~ n + k, not n * k.
        assert!(
            stats.rounds <= (2 * (n + k)) as u64,
            "rounds = {}",
            stats.rounds
        );
        assert_eq!(stats.messages, ((k + 1) * n) as u64);
    }

    #[test]
    fn two_parallel_pipelines_fire_in_one_round_each() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "s1");
        b.source(1, &[2], "s2");
        b.sink(0, 1, "k1");
        b.sink(1, 1, "k2");
        let (stats, outs) = net_of(b).run_with_outputs().unwrap();
        assert_eq!(stats.rounds, 1, "independent channels fire simultaneously");
        assert_eq!(outs, [[1], [2]]);
    }

    #[test]
    fn par_set_completes_in_any_order() {
        // A two-link compute cell receives from both channels at once
        // and sends their sum: a par-set whose receives complete in
        // whatever order the rounds offer them.
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 10], "sa");
        b.source(1, &[2, 20], "sb");
        b.begin("join");
        b.op(ProcOp::Compute { count: 2 });
        let link = |slot, inp, out| MovingLink { slot, inp, out };
        b.repeater(&[link(0, 0, 2), link(1, 1, 3)], &[0], &[1], 2);
        b.finish();
        b.sink(2, 2, "sum");
        b.sink(3, 2, "b-out");
        b.set_kernel(Arc::new(Kernel {
            ops: vec![KernelOp::Slot(0), KernelOp::Slot(1), KernelOp::Add(0, 1)],
            writes: vec![(0, 2)],
            n_slots: 2,
            n_dims: 0,
        }));
        let (_, outs) = net_of(b).run_with_outputs().unwrap();
        assert_eq!(outs[0], vec![3, 30]);
    }

    /// Reverses the firing order and the ready order every round — the
    /// simplest non-identity permutation policy.
    struct ReversePolicy;

    impl SchedulePolicy for ReversePolicy {
        fn schedule_round(&mut self, _r: u64, fire: &mut Vec<ChanId>, _defer: &mut Vec<ChanId>) {
            fire.reverse();
        }

        fn order_ready(&mut self, _r: u64, ready: &mut Vec<usize>) {
            ready.reverse();
        }
    }

    /// Defers the lowest-numbered candidate for the first `budget` rounds.
    struct DeferLowest {
        budget: u64,
    }

    impl SchedulePolicy for DeferLowest {
        fn schedule_round(&mut self, _r: u64, fire: &mut Vec<ChanId>, defer: &mut Vec<ChanId>) {
            if self.budget > 0 && !fire.is_empty() {
                self.budget -= 1;
                defer.push(fire.remove(0));
            }
        }
    }

    /// Adversarial worst case: defers everything, forever.
    struct StarveEverything;

    impl SchedulePolicy for StarveEverything {
        fn schedule_round(&mut self, _r: u64, fire: &mut Vec<ChanId>, defer: &mut Vec<ChanId>) {
            defer.append(fire);
        }
    }

    fn policied_pipeline(policy: Option<Box<dyn SchedulePolicy>>) -> (RunStats, Vec<Value>) {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3, 4], "src");
        b.relay(0, 1, 4, "relay");
        b.sink(1, 4, "sink");
        let mut net = net_of(b);
        if let Some(p) = policy {
            net.set_schedule_policy(p);
        }
        let (stats, mut outs) = net.run_with_outputs().unwrap();
        (stats, outs.remove(0))
    }

    #[test]
    fn reversing_policy_preserves_results_and_stats() {
        let (base_stats, base_out) = policied_pipeline(None);
        let (stats, out) = policied_pipeline(Some(Box::new(ReversePolicy)));
        assert_eq!(out, base_out, "permutation policies cannot change values");
        assert_eq!(stats, base_stats, "pure permutations keep stats invariant");
    }

    #[test]
    fn explicit_fifo_policy_is_bit_identical_to_no_policy() {
        let (base_stats, base_out) = policied_pipeline(None);
        let (stats, out) = policied_pipeline(Some(Box::new(crate::schedule::FifoPolicy)));
        assert_eq!((stats, out), (base_stats, base_out));
    }

    #[test]
    fn bounded_deferral_delays_rounds_but_not_values() {
        let (base_stats, base_out) = policied_pipeline(None);
        let (stats, out) = policied_pipeline(Some(Box::new(DeferLowest { budget: 3 })));
        assert_eq!(out, base_out, "delays cannot change values");
        assert_eq!(stats.messages, base_stats.messages);
        assert_eq!(stats.steps, base_stats.steps);
        assert!(
            stats.rounds > base_stats.rounds,
            "deferral must cost rounds: {} vs {}",
            stats.rounds,
            base_stats.rounds
        );
    }

    #[test]
    fn starving_policy_is_reported_as_deadlock_not_a_hang() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "src");
        b.sink(0, 1, "sink");
        let mut net = net_of(b);
        net.set_schedule_policy(Box::new(StarveEverything));
        let err = net.run().unwrap_err();
        assert!(err.as_deadlock().is_some(), "{err}");
    }

    #[test]
    fn transfers_are_ordered_by_channel_within_a_round() {
        // Register the higher channel first; the event log must still
        // list channel 0 before channel 1 within the round.
        let mut b = ProcIrBuilder::new();
        b.source(1, &[20], "s-hi");
        b.source(0, &[10], "s-lo");
        b.sink(1, 1, "k-hi");
        b.sink(0, 1, "k-lo");
        let mut net = net_of(b);
        let (log, erased) = crate::record::shared(crate::record::EventLogRecorder::new());
        net.add_recorder(erased);
        let stats = net.run().unwrap();
        assert_eq!(stats.rounds, 1);
        let fired: Vec<(u64, ChanId, Value)> = lock(&log)
            .transfers()
            .iter()
            .map(|t| (t.time, t.chan, t.value))
            .collect();
        assert_eq!(fired, vec![(0, 0, 10), (0, 1, 20)]);
    }
}
