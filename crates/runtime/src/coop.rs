//! The cooperative, deterministic scheduler.
//!
//! Generated systolic programs have no data-dependent control flow, so a
//! single-threaded round-based simulation is faithful to the asynchronous
//! semantics (any interleaving yields the same results — the Sec. 4
//! correctness argument) while also *measuring* the lock-step lower bound:
//! one **round** completes every rendezvous that is enabled at its start,
//! mirroring the global clock tick of the hardware array.
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
//! (`worklist`/`work_scratch`), the ready queue, the receive/request
//! scratch buffers, and each process's `pending`/`inbox` vectors are
//! cleared and refilled in place, never dropped; the channel table grows
//! to a high-water mark and stays there. The only exception is the
//! optional trace log, which grows by design. Process `step_into`
//! implementations uphold the same rule (see [`Process::step_into`]).
//!
//! Deadlock is detected exactly: unfinished processes with no enabled
//! rendezvous.

use crate::process::{lock, ChanId, CommReq, Process, Value};
use crate::record::{SharedRecorder, Transfer};
use crate::schedule::{SchedulePolicy, STARVATION_LIMIT};

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

struct ProcState {
    proc: Box<dyn Process>,
    /// Pending requests with completion marks.
    pending: Vec<(CommReq, bool)>,
    /// Values received for pending `Recv`s, by request index.
    inbox: Vec<Option<Value>>,
    /// Count of not-yet-completed requests in `pending`.
    remaining: usize,
    finished: bool,
}

/// One channel's persistent endpoint state. `ChanId`s are dense, so the
/// whole channel table is a flat `Vec<ChanSlot>` — registration,
/// matching, and completion are all O(1) indexed accesses with no
/// hashing anywhere on the round path.
#[derive(Default)]
struct ChanSlot {
    /// The at-most-one pending sender: (process, request index, value).
    sender: Option<(usize, usize, Value)>,
    /// The at-most-one pending receiver: (process, request index).
    receiver: Option<(usize, usize)>,
    /// Whether the channel is already queued in the round worklist.
    in_worklist: bool,
}

/// A network of processes plus channel state, run to completion by
/// [`Network::run`]. Every channel is a synchronous rendezvous (the
/// paper's model, Sec. 4); `Network::default()` is the empty network.
#[derive(Default)]
pub struct Network {
    procs: Vec<ProcState>,
    /// Dense persistent channel table, indexed by `ChanId`.
    chans: Vec<ChanSlot>,
    /// Channels that may fire next round (deduplicated via
    /// `ChanSlot::in_worklist`).
    worklist: Vec<ChanId>,
    /// Previous round's worklist, kept to reuse its allocation.
    work_scratch: Vec<ChanId>,
    /// Processes whose comm set completed this round.
    ready: Vec<usize>,
    /// Reused buffer of received values handed to `step_into`.
    recv_scratch: Vec<Value>,
    /// Reused buffer of requests produced by `step_into`.
    req_scratch: Vec<CommReq>,
    /// Processes not yet finished, so the run loop never re-scans
    /// `procs` for termination.
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
    // Spelled by the frozen `benchmark/src/stages.rs:71`; goes with ROADMAP 2(b).
    #[doc(hidden)]
    pub fn new(_: ChannelPolicy) -> Network {
        Network::default()
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
    /// event stream (transfers with wait attribution, steps, process
    /// terminations, run start/end). Attach before [`Network::run`].
    pub fn add_recorder(&mut self, recorder: SharedRecorder) {
        self.recorders.push(recorder);
    }

    /// Add a process; returns its index.
    pub fn add(&mut self, proc: Box<dyn Process>) -> usize {
        self.procs.push(ProcState {
            proc,
            pending: Vec::new(),
            inbox: Vec::new(),
            remaining: 0,
            finished: false,
        });
        self.procs.len() - 1
    }

    /// Run all processes to completion. Returns statistics, or the
    /// deadlock / protocol violation if progress stops.
    pub fn run(mut self) -> Result<RunStats, RunError> {
        self.stats.processes = self.procs.len();
        self.unfinished = self.procs.len();
        if !self.recorders.is_empty() {
            let labels: Vec<String> = self.procs.iter().map(|p| p.proc.label()).collect();
            for r in &self.recorders {
                lock(r).start(&labels);
            }
        }
        // Prime every process.
        for i in 0..self.procs.len() {
            self.advance(i)?;
        }
        loop {
            if self.unfinished == 0 {
                for r in &self.recorders {
                    lock(r).end(self.stats.rounds);
                }
                return Ok(self.stats.clone());
            }
            let fired = self.round()?;
            if fired == 0 {
                // A round that moved nothing is a deadlock — unless an
                // attached policy deferred enabled rendezvous, in which
                // case progress is still possible. Starvation is bounded:
                // a policy deferring everything forever is converted into
                // the deadlock it is hiding.
                self.starved += 1;
                if self.deferred == 0 || self.starved > STARVATION_LIMIT {
                    return Err(self.deadlock_report().into());
                }
            } else {
                self.starved = 0;
            }
            self.stats.rounds += 1;
        }
    }

    fn deadlock_report(&self) -> Deadlock {
        let blocked = self
            .procs
            .iter()
            .filter(|p| !p.finished)
            .map(|p| {
                let waits = p.pending.iter().filter(|&&(_, done)| !done);
                blocked_line(&p.proc.label(), waits.map(|(r, _)| r))
            })
            .collect();
        Deadlock { blocked }
    }

    /// Collect received values for process `i`'s completed set, step it,
    /// and register its next comm set in the channel table. All buffers
    /// involved are reused (see the module-level reuse invariant).
    fn advance(&mut self, pi: usize) -> Result<(), ProtocolViolation> {
        self.recv_scratch.clear();
        self.req_scratch.clear();
        {
            let p = &mut self.procs[pi];
            for i in 0..p.pending.len() {
                if !p.pending[i].0.is_send() {
                    self.recv_scratch
                        .push(p.inbox[i].take().expect("recv completed without value"));
                }
            }
            p.proc.step_into(&self.recv_scratch, &mut self.req_scratch);
        }
        self.stats.steps += 1;
        let recording = !self.recorders.is_empty();
        if recording {
            for r in &self.recorders {
                lock(r).step(self.stats.rounds, pi);
            }
        }

        let p = &mut self.procs[pi];
        p.pending.clear();
        p.inbox.clear();
        if self.req_scratch.is_empty() {
            p.finished = true;
            p.remaining = 0;
            self.unfinished -= 1;
            if recording {
                for r in &self.recorders {
                    lock(r).finished(self.stats.rounds, pi);
                }
            }
            return Ok(());
        }
        p.pending
            .extend(self.req_scratch.drain(..).map(|r| (r, false)));
        p.inbox.resize(p.pending.len(), None);
        p.remaining = p.pending.len();

        // Register each endpoint; a channel that became transfer-ready
        // joins the worklist for the next round.
        for ri in 0..self.procs[pi].pending.len() {
            let (req, _) = self.procs[pi].pending[ri];
            let (chan, conflict) = match req {
                CommReq::Send { chan, value } => {
                    let slot = slot_mut(&mut self.chans, chan);
                    match slot.sender {
                        Some((prev, _, _)) => (chan, Some(("sender", prev))),
                        None => {
                            slot.sender = Some((pi, ri, value));
                            if recording {
                                since_mut(&mut self.since, chan).0 = self.stats.rounds;
                            }
                            (chan, None)
                        }
                    }
                }
                CommReq::Recv { chan } => {
                    let slot = slot_mut(&mut self.chans, chan);
                    match slot.receiver {
                        Some((prev, _)) => (chan, Some(("receiver", prev))),
                        None => {
                            slot.receiver = Some((pi, ri));
                            if recording {
                                since_mut(&mut self.since, chan).1 = self.stats.rounds;
                            }
                            (chan, None)
                        }
                    }
                }
            };
            if let Some((endpoint, prev)) = conflict {
                return Err(ProtocolViolation {
                    chan,
                    endpoint,
                    first: self.procs[prev].proc.label(),
                    second: self.procs[pi].proc.label(),
                });
            }
            let slot = &mut self.chans[chan];
            if !slot.in_worklist && slot.sender.is_some() && slot.receiver.is_some() {
                slot.in_worklist = true;
                self.worklist.push(chan);
            }
        }
        Ok(())
    }

    /// Mark request `ri` of process `pi` complete (optionally delivering
    /// a received value); queues the process when its whole set is done.
    fn complete(&mut self, pi: usize, ri: usize, value: Option<Value>) {
        let p = &mut self.procs[pi];
        debug_assert!(!p.pending[ri].1, "request completed twice");
        p.pending[ri].1 = true;
        if let Some(v) = value {
            p.inbox[ri] = Some(v);
        }
        p.remaining -= 1;
        if p.remaining == 0 {
            self.ready.push(pi);
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
    fn round(&mut self) -> Result<u64, ProtocolViolation> {
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
                let (s_since, r_since) = *since_mut(&mut self.since, chan);
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
        for &pi in &ready {
            debug_assert!(!self.procs[pi].finished && self.procs[pi].remaining == 0);
            self.advance(pi)?;
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

/// Index into the dense channel table, growing it on first touch.
fn slot_mut(chans: &mut Vec<ChanSlot>, chan: ChanId) -> &mut ChanSlot {
    if chan >= chans.len() {
        chans.resize_with(chan + 1, ChanSlot::default);
    }
    &mut chans[chan]
}

/// The recording-only companion of [`slot_mut`]: grows the side table of
/// endpoint registration rounds on demand. Never called on an unobserved
/// run, so `Network::since` stays empty there.
fn since_mut(since: &mut Vec<(u64, u64)>, chan: ChanId) -> &mut (u64, u64) {
    if chan >= since.len() {
        since.resize(chan + 1, (0, 0));
    }
    &mut since[chan]
}

/// The rendezvous oracle on a bytecode module: one fresh [`Network`] run
/// of its instance, with the stats and every output buffer — what the
/// fast engine's unit tests hold it to.
#[cfg(test)]
pub(crate) fn run_plain(
    module: &std::sync::Arc<crate::procir::ProcIrModule>,
) -> Result<(RunStats, Vec<Vec<Value>>), RunError> {
    let inst = module.instantiate();
    let mut net = Network::default();
    for p in inst.procs {
        net.add(p);
    }
    let stats = net.run()?;
    let take = |sink: &crate::process::SinkBuffer| std::mem::take(&mut *lock(sink));
    Ok((stats, inst.outputs.iter().map(take).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{sink_buffer, SinkBuffer};
    use crate::procir::ProcIrBuilder;

    /// Instantiate a builder's module into a fresh network, returning the
    /// output buffers in sink-declaration order.
    fn net_of(b: ProcIrBuilder) -> (Network, Vec<SinkBuffer>) {
        let module = b.build();
        let inst = module.instantiate();
        let mut net = Network::default();
        for p in inst.procs {
            net.add(p);
        }
        (net, inst.outputs)
    }

    #[test]
    fn pipeline_delivers_in_order() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3], "src");
        b.relay(0, 1, 3, "relay");
        b.sink(1, 3, "sink");
        let (net, outs) = net_of(b);
        let stats = net.run().unwrap();
        assert_eq!(*lock(&outs[0]), vec![1, 2, 3]);
        assert_eq!(stats.messages, 6, "3 values over 2 hops");
        assert_eq!(stats.processes, 3);
    }

    #[test]
    fn deadlock_detected() {
        // A sink waiting on a channel nobody sends on.
        let mut b = ProcIrBuilder::new();
        b.sink(9, 1, "lonely-sink");
        let (net, _) = net_of(b);
        let err = net.run().unwrap_err();
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
        let (net, _) = net_of(b);
        assert!(net.run().is_err());
    }

    #[test]
    fn two_senders_is_a_protocol_violation() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "src-a");
        b.source(0, &[2], "src-b");
        b.sink(0, 2, "sink");
        let (net, _) = net_of(b);
        let err = net.run().unwrap_err();
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
        let (net, _) = net_of(b);
        let err = net.run().unwrap_err();
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
        let (net, _) = net_of(b);
        let err = net.run().unwrap_err();
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
        let (net, outs) = net_of(b);
        let stats = net.run().unwrap();
        assert_eq!(lock(&outs[0]).len(), n);
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
        let (net, outs) = net_of(b);
        let stats = net.run().unwrap();
        assert_eq!(stats.rounds, 1, "independent channels fire simultaneously");
        assert_eq!(*lock(&outs[0]), vec![1]);
        assert_eq!(*lock(&outs[1]), vec![2]);
    }

    /// An ad-hoc process exercising par-sets: receives from two channels
    /// at once (also checks that hand-written [`Process`] impls compose
    /// with module-instantiated VMs in one network).
    struct Join {
        a: ChanId,
        b: ChanId,
        out: SinkBuffer,
        rounds: usize,
    }

    impl crate::process::Process for Join {
        fn step(&mut self, received: &[Value]) -> Vec<CommReq> {
            if received.len() == 2 {
                lock(&self.out).push(received[0] + received[1]);
            }
            if self.rounds == 0 {
                return vec![];
            }
            self.rounds -= 1;
            vec![
                CommReq::Recv { chan: self.a },
                CommReq::Recv { chan: self.b },
            ]
        }

        fn label(&self) -> String {
            "join".into()
        }
    }

    #[test]
    fn par_set_completes_in_any_order() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 10], "sa");
        b.source(1, &[2, 20], "sb");
        let (mut net, _) = net_of(b);
        let buf = sink_buffer();
        net.add(Box::new(Join {
            a: 0,
            b: 1,
            out: buf.clone(),
            rounds: 2,
        }));
        net.run().unwrap();
        assert_eq!(*lock(&buf), vec![3, 30]);
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
        let (mut net, outs) = net_of(b);
        if let Some(p) = policy {
            net.set_schedule_policy(p);
        }
        let stats = net.run().unwrap();
        let out = lock(&outs[0]).clone();
        (stats, out)
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
        let (mut net, _) = net_of(b);
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
        let (mut net, _) = net_of(b);
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
