//! The observability layer: a [`Recorder`] sink for execution events,
//! threaded through the [`crate::procir::ProcVm`] and the rendezvous
//! engine ([`crate::coop`]).
//!
//! Every process on every executor runs through one op step
//! (`crate::step`), so its op effects have one instrumentation point and
//! one event vocabulary covers the whole runtime:
//!
//! - **transfers** — one event per completed channel rendezvous,
//!   carrying the virtual time, channel, value, both endpoint processes,
//!   and how long each endpoint waited parked on the channel (in rounds);
//! - **steps** — one event per [`crate::Process::step_into`] invocation,
//!   mirroring `RunStats.steps`;
//! - **vm ops** — one event per retired ProcIR op effect, classified by
//!   [`OpKind`] and by the canonical-program [`Phase`] it belongs to
//!   (load / soak / compute / drain / recover, plus host fringe and pure
//!   transport), which is what the soak-vs-compute makespan attribution
//!   is built from;
//! - **lifecycle** — `start` (with every process label), per-process
//!   `finished`, and `end` (the final virtual time, in rounds).
//!
//! Recorders are shared as [`SharedRecorder`] (`Arc<Mutex<dyn Recorder>>`)
//! so one recorder can observe a VM *and* its scheduler. Every hook in the runtime is behind an "any recorder
//! attached?" branch: with no recorder the hot paths gain one predictable
//! branch and allocate nothing (the zero-cost-when-off contract: the
//! goldens of `tests/determinism.rs` pin the counts with and without a
//! recorder; the unobserved path is what `benchmark/` times, as
//! `interp.simulate.us.*` beside `bench.trace_overhead_pct`).
//!
//! Three recorders are provided:
//!
//! - [`EventLogRecorder`] — a plain transfer log; `crates/interp`'s
//!   space–time diagrams are sourced from it;
//! - [`MetricsRecorder`] — aggregates everything into a [`MetricsReport`],
//!   whose stable document (`systolic-metrics-v1`) is a [`Json`] value;
//! - [`PerfettoRecorder`] — Chrome `trace_event` JSON for
//!   <https://ui.perfetto.dev>: one track per process, one per channel.
//!
//! See `docs/observability.md` for the schema and a how-to.

use crate::json::Json;
use crate::process::{ChanId, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Which ProcIR op an event came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Emit,
    Collect,
    Keep,
    Pass,
    Eject,
    Compute,
}

impl OpKind {
    pub const ALL: [OpKind; 6] = [
        OpKind::Emit,
        OpKind::Collect,
        OpKind::Keep,
        OpKind::Pass,
        OpKind::Eject,
        OpKind::Compute,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Emit => "emit",
            OpKind::Collect => "collect",
            OpKind::Keep => "keep",
            OpKind::Pass => "pass",
            OpKind::Eject => "eject",
            OpKind::Compute => "compute",
        }
    }
}

/// Which phase of the canonical program shape (App. C) an op effect
/// belongs to. The VM classifies `Pass` cycles positionally: before the
/// process's `Compute` op they are on the soak side (soak proper plus the
/// load drain-passes), after it on the drain side (drain proper plus the
/// recover soak-passes). Processes with no `Compute` op are pure
/// transport (relays, buffers, escorts); `Emit`/`Collect` are the host
/// fringe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Host,
    Load,
    Soak,
    Compute,
    Drain,
    Recover,
    Transport,
}

impl Phase {
    pub const ALL: [Phase; 7] = [
        Phase::Host,
        Phase::Load,
        Phase::Soak,
        Phase::Compute,
        Phase::Drain,
        Phase::Recover,
        Phase::Transport,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Host => "host",
            Phase::Load => "load",
            Phase::Soak => "soak",
            Phase::Compute => "compute",
            Phase::Drain => "drain",
            Phase::Recover => "recover",
            Phase::Transport => "transport",
        }
    }
}

/// One completed channel transfer, as observed by the executor.
///
/// `time` is the executor's virtual clock, the rendezvous round; the
/// waits are in the same unit (the round clock makes "parked since
/// round r" well defined).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    pub time: u64,
    pub chan: ChanId,
    pub value: Value,
    /// Sending process id.
    pub sender: usize,
    /// Receiving process id.
    pub receiver: usize,
    /// Rounds the sender was parked before the transfer fired.
    pub sender_wait: u64,
    /// Rounds the receiver was parked before the transfer fired.
    pub receiver_wait: u64,
}

/// An execution-event sink. Every method has a no-op default, so a
/// recorder implements only what it cares about. Implementations must be
/// `Send`: a run's recorders travel with its spec, which the service
/// builds on one thread and runs on a pool worker.
pub trait Recorder: Send {
    /// The run is starting; `labels[pid]` names each process.
    fn start(&mut self, labels: &[String]) {
        let _ = labels;
    }
    /// A channel transfer completed.
    fn transfer(&mut self, ev: &Transfer) {
        let _ = ev;
    }
    /// Process `pid` retired one ProcIR op effect. For `Pass` and
    /// `Compute` this fires once per cycle/iteration, not once per op.
    fn vm_op(&mut self, pid: usize, kind: OpKind, phase: Phase) {
        let _ = (pid, kind, phase);
    }
    /// Process `pid` was stepped at virtual time `time`.
    fn step(&mut self, time: u64, pid: usize) {
        let _ = (time, pid);
    }
    /// Process `pid` issued its empty communication set (terminated).
    fn finished(&mut self, time: u64, pid: usize) {
        let _ = (time, pid);
    }
    /// The run completed at virtual time `time`.
    fn end(&mut self, time: u64) {
        let _ = time;
    }
}

/// How recorders are shared with executors and VMs. Constructed by
/// [`shared`] (unsize-coercing a concrete recorder); keep the typed
/// `Arc` to read results back after the run.
pub type SharedRecorder = Arc<Mutex<dyn Recorder>>;

/// Wrap a concrete recorder for attachment, returning both the typed
/// handle (for reading results after the run) and the erased
/// [`SharedRecorder`] (for the executor).
pub fn shared<R: Recorder + 'static>(rec: R) -> (Arc<Mutex<R>>, SharedRecorder) {
    let typed = Arc::new(Mutex::new(rec));
    let erased: SharedRecorder = typed.clone();
    (typed, erased)
}

/// The minimal recorder: an append-only log of transfers. The interp
/// layer's space–time diagrams (`crates/interp/src/trace.rs`) are
/// sourced from it.
#[derive(Default)]
pub struct EventLogRecorder {
    transfers: Vec<Transfer>,
}

impl EventLogRecorder {
    pub fn new() -> EventLogRecorder {
        EventLogRecorder::default()
    }

    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    pub fn take_transfers(&mut self) -> Vec<Transfer> {
        std::mem::take(&mut self.transfers)
    }
}

impl Recorder for EventLogRecorder {
    fn transfer(&mut self, ev: &Transfer) {
        self.transfers.push(*ev);
    }
}

/// Sort a transfer log into the canonical `(time, chan)` order. Within a
/// cooperative round every enabled rendezvous fires regardless of the
/// firing order a schedule policy picked, so two runs of a
/// schedule-independent network compare equal after canonicalization —
/// and the first difference that *survives* it is a genuine divergence,
/// not a harmless reordering.
pub fn canonicalize_transfers(log: &mut [Transfer]) {
    log.sort_by_key(|t| (t.time, t.chan, t.value));
}

/// The index of the first transfer at which two canonicalized logs
/// diverge in substance — round, channel, or value (endpoint waits are
/// schedule-dependent attribution, not substance). `None` when one log
/// is substance-identical to the other; a length mismatch diverges at
/// the shorter log's end. The schedule-exploration harness uses this to
/// attribute a store mismatch to the earliest offending transfer.
pub fn first_divergence(a: &[Transfer], b: &[Transfer]) -> Option<usize> {
    let substance = |t: &Transfer| (t.time, t.chan, t.value);
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if substance(x) != substance(y) {
            return Some(i);
        }
    }
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    None
}

/// Per-process aggregates of a [`MetricsReport`].
#[derive(Clone, Debug, Default)]
pub struct ProcMetrics {
    pub label: String,
    /// `step_into` invocations (sums to `RunStats.steps`).
    pub steps: u64,
    /// Transfers this process sent / received.
    pub sent: u64,
    pub received: u64,
    /// Virtual time at which the process terminated.
    pub finished_at: Option<u64>,
    /// Retired op effects by [`OpKind`] (indexed by `OpKind::ALL` order).
    pub ops: [u64; 6],
    /// Retired op effects by [`Phase`] (indexed by `Phase::ALL` order).
    pub phases: [u64; 7],
}

/// Per-channel aggregates of a [`MetricsReport`].
#[derive(Clone, Debug, Default)]
pub struct ChanMetrics {
    pub transfers: u64,
    pub sender_wait: u64,
    pub receiver_wait: u64,
    pub max_receiver_wait: u64,
    pub first_time: u64,
    pub last_time: u64,
}

/// Everything [`MetricsRecorder`] aggregated over one run.
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    pub processes: Vec<ProcMetrics>,
    pub channels: Vec<ChanMetrics>,
    /// Total transfers (equals `RunStats.messages`).
    pub transfers: u64,
    /// Final virtual time (`RunStats.rounds` under the cooperative
    /// scheduler).
    pub end_time: u64,
    /// Virtual times of the first and last basic-statement execution.
    pub first_compute: Option<u64>,
    pub last_compute: Option<u64>,
    /// Histogram of receiver wait durations: (wait, transfer count).
    pub wait_hist: Vec<(u64, u64)>,
    /// Histogram of per-time-tick message counts: (messages in one tick,
    /// number of ticks). Under the cooperative scheduler this is the
    /// distribution of rendezvous per round — the array's occupancy
    /// profile.
    pub msgs_per_time_hist: Vec<(u64, u64)>,
}

impl MetricsReport {
    /// Rounds before the first basic-statement execution (the soak
    /// lead-in of the makespan).
    pub fn soak_lead_in(&self) -> u64 {
        self.first_compute.unwrap_or(0)
    }

    /// Width of the window in which basic statements execute (the
    /// compute plateau of the makespan).
    pub fn compute_window(&self) -> u64 {
        match (self.first_compute, self.last_compute) {
            (Some(a), Some(b)) => b - a + 1,
            _ => 0,
        }
    }

    /// Rounds after the last basic-statement execution (the drain tail
    /// of the makespan).
    pub fn drain_tail(&self) -> u64 {
        self.end_time
            .saturating_sub(self.last_compute.map_or(0, |t| t + 1))
    }

    /// The makespan critical path's endpoint: the last process to
    /// terminate, as (pid, finish time).
    pub fn last_finisher(&self) -> Option<(usize, u64)> {
        self.processes
            .iter()
            .enumerate()
            .filter_map(|(pid, p)| p.finished_at.map(|t| (pid, t)))
            .max_by_key(|&(pid, t)| (t, pid))
    }

    /// The channel with the largest single receiver wait, as
    /// (chan, wait) — where makespan is being lost to rendezvous skew.
    pub fn max_wait_chan(&self) -> Option<(ChanId, u64)> {
        self.channels
            .iter()
            .enumerate()
            .max_by_key(|&(c, m)| (m.max_receiver_wait, c))
            .map(|(c, m)| (c, m.max_receiver_wait))
    }

    /// Total retired op effects per [`Phase`], summed over processes.
    pub fn phase_totals(&self) -> [u64; 7] {
        let mut totals = [0u64; 7];
        for p in &self.processes {
            for (t, v) in totals.iter_mut().zip(p.phases) {
                *t += v;
            }
        }
        totals
    }

    /// Total retired op effects per [`OpKind`], summed over processes.
    pub fn op_totals(&self) -> [u64; 6] {
        let mut totals = [0u64; 6];
        for p in &self.processes {
            for (t, v) in totals.iter_mut().zip(p.ops) {
                *t += v;
            }
        }
        totals
    }

    /// The stable `systolic-metrics-v1` document as a value; callers
    /// that add sections (`elab_cache`, `wavefront`, …) append members.
    pub fn json(&self) -> Json {
        // `{name: count}` over a fixed vocabulary; the per-process phase
        // rows leave their zeros out.
        let named = |names: &[&str], counts: &[u64], zeros: bool| {
            let pairs = names.iter().zip(counts);
            let kept = pairs.filter(|&(_, &n)| zeros || n != 0);
            Json::obj(kept.map(|(&k, &n)| (k, n.into())))
        };
        let phases = Phase::ALL.map(Phase::name);
        let ops = OpKind::ALL.map(OpKind::name);
        let pairs = |h: &[(u64, u64)]| Json::arr(h.iter().map(|&(a, b)| Json::arr([a, b])));
        let critical_path = self.last_finisher().map(|(pid, t)| {
            let mut fields = vec![
                ("process", pid.into()),
                ("label", self.processes[pid].label.as_str().into()),
                ("finished_at", t.into()),
            ];
            if let Some((c, w)) = self.max_wait_chan() {
                fields.extend([("max_wait_chan", c.into()), ("max_wait", w.into())]);
            }
            Json::obj(fields)
        });
        let process = |p: &ProcMetrics| {
            Json::obj([
                ("label", p.label.as_str().into()),
                ("steps", p.steps.into()),
                ("sent", p.sent.into()),
                ("received", p.received.into()),
                ("finished_at", p.finished_at.into()),
                ("phases", named(&phases, &p.phases, false)),
            ])
        };
        let channel = |(i, c): (usize, &ChanMetrics)| {
            Json::arr([
                i as u64,
                c.transfers,
                c.sender_wait,
                c.receiver_wait,
                c.max_receiver_wait,
            ])
        };
        let makespan = Json::obj([
            ("soak_lead_in", self.soak_lead_in().into()),
            ("compute_window", self.compute_window().into()),
            ("drain_tail", self.drain_tail().into()),
        ]);
        let per_channel = self.channels.iter().enumerate().map(channel);
        Json::obj([
            ("schema", "systolic-metrics-v1".into()),
            ("processes", self.processes.len().into()),
            ("transfers", self.transfers.into()),
            ("end_time", self.end_time.into()),
            ("makespan", makespan),
            ("critical_path", critical_path.into()),
            ("phase_ops", named(&phases, &self.phase_totals(), true)),
            ("op_counts", named(&ops, &self.op_totals(), true)),
            ("wait_hist", pairs(&self.wait_hist)),
            ("msgs_per_time_hist", pairs(&self.msgs_per_time_hist)),
            ("per_process", Json::arr(self.processes.iter().map(process))),
            ("per_channel", Json::arr(per_channel)),
        ])
    }

    /// [`MetricsReport::json`], rendered as a file.
    pub fn to_json(&self) -> String {
        self.json().pretty()
    }
}

/// Aggregates the whole event stream into a [`MetricsReport`]: per-process
/// op/step/message counts, per-channel transfer and wait statistics,
/// phase breakdown, and the makespan attribution windows.
#[derive(Default)]
pub struct MetricsRecorder {
    /// Latest virtual time seen on any timed event; `vm_op` events (which
    /// carry no time) are attributed to it.
    now: u64,
    procs: Vec<ProcMetrics>,
    chans: Vec<ChanMetrics>,
    transfers: u64,
    end_time: u64,
    first_compute: Option<u64>,
    last_compute: Option<u64>,
    wait_hist: BTreeMap<u64, u64>,
    /// Messages per virtual-time tick.
    time_msgs: BTreeMap<u64, u64>,
}

impl MetricsRecorder {
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::default()
    }

    fn proc_mut(&mut self, pid: usize) -> &mut ProcMetrics {
        if pid >= self.procs.len() {
            self.procs.resize_with(pid + 1, ProcMetrics::default);
        }
        &mut self.procs[pid]
    }

    /// Snapshot the aggregates (call after the run).
    pub fn report(&self) -> MetricsReport {
        let mut hist: Vec<(u64, u64)> = self.wait_hist.iter().map(|(&k, &v)| (k, v)).collect();
        hist.sort_unstable();
        let mut per_tick: BTreeMap<u64, u64> = BTreeMap::new();
        for &msgs in self.time_msgs.values() {
            *per_tick.entry(msgs).or_default() += 1;
        }
        MetricsReport {
            processes: self.procs.clone(),
            channels: self.chans.clone(),
            transfers: self.transfers,
            end_time: self.end_time,
            first_compute: self.first_compute,
            last_compute: self.last_compute,
            wait_hist: hist,
            msgs_per_time_hist: per_tick.into_iter().collect(),
        }
    }
}

impl Recorder for MetricsRecorder {
    fn start(&mut self, labels: &[String]) {
        if self.procs.len() < labels.len() {
            self.procs.resize_with(labels.len(), ProcMetrics::default);
        }
        for (p, l) in self.procs.iter_mut().zip(labels) {
            p.label = l.clone();
        }
    }

    fn transfer(&mut self, ev: &Transfer) {
        self.now = self.now.max(ev.time);
        self.transfers += 1;
        if ev.chan >= self.chans.len() {
            self.chans.resize_with(ev.chan + 1, ChanMetrics::default);
        }
        let c = &mut self.chans[ev.chan];
        if c.transfers == 0 {
            c.first_time = ev.time;
        }
        c.transfers += 1;
        c.last_time = ev.time;
        c.sender_wait += ev.sender_wait;
        c.receiver_wait += ev.receiver_wait;
        c.max_receiver_wait = c.max_receiver_wait.max(ev.receiver_wait);
        *self.wait_hist.entry(ev.receiver_wait).or_default() += 1;
        *self.time_msgs.entry(ev.time).or_default() += 1;
        self.proc_mut(ev.sender).sent += 1;
        self.proc_mut(ev.receiver).received += 1;
    }

    fn vm_op(&mut self, pid: usize, kind: OpKind, phase: Phase) {
        if phase == Phase::Compute {
            let t = self.now;
            self.first_compute.get_or_insert(t);
            self.last_compute = Some(t);
        }
        let p = self.proc_mut(pid);
        p.ops[kind as usize] += 1;
        p.phases[phase as usize] += 1;
    }

    fn step(&mut self, time: u64, pid: usize) {
        self.now = self.now.max(time);
        self.proc_mut(pid).steps += 1;
    }

    fn finished(&mut self, time: u64, pid: usize) {
        self.now = self.now.max(time);
        self.proc_mut(pid).finished_at = Some(time);
    }

    fn end(&mut self, time: u64) {
        self.end_time = time;
    }
}

/// One event of a Perfetto trace, pre-rendering. Tracks are Chrome
/// (pid, tid) pairs: pid [`PerfettoRecorder::PROCESS_TRACKS`] hosts one
/// tid per process, pid [`PerfettoRecorder::CHANNEL_TRACKS`] one tid per
/// channel.
#[derive(Clone, Debug)]
pub struct PerfettoEvent {
    /// Chrome phase: `'X'` complete, `'i'` instant.
    pub ph: char,
    pub name: &'static str,
    pub pid: u32,
    pub tid: u64,
    /// Timestamp in trace microseconds (virtual time × time scale).
    pub ts: u64,
    /// Duration for `'X'` events.
    pub dur: u64,
    /// Numeric args rendered into the event's `args` object.
    pub args: Vec<(&'static str, i64)>,
}

/// Records the event stream as Chrome `trace_event` JSON, loadable in
/// <https://ui.perfetto.dev> (or `chrome://tracing`): one track per
/// process (its scheduler steps and termination) and one per channel
/// (its transfers, with value, endpoints, and waits as args).
pub struct PerfettoRecorder {
    labels: Vec<String>,
    /// Channel display names (`chan N` when unset) — the interp layer
    /// installs stream-and-coordinate names.
    chan_names: Vec<String>,
    events: Vec<PerfettoEvent>,
    n_chans: usize,
    end_ts: u64,
}

impl Default for PerfettoRecorder {
    fn default() -> Self {
        PerfettoRecorder::new()
    }
}

impl PerfettoRecorder {
    /// Chrome pid hosting the per-process tracks.
    pub const PROCESS_TRACKS: u32 = 1;
    /// Chrome pid hosting the per-channel tracks.
    pub const CHANNEL_TRACKS: u32 = 2;
    /// Trace microseconds per unit of virtual time: stretches
    /// cooperative rounds so slices are visible.
    const TIME_SCALE: u64 = 10;

    pub fn new() -> PerfettoRecorder {
        PerfettoRecorder {
            labels: Vec::new(),
            chan_names: Vec::new(),
            events: Vec::new(),
            n_chans: 0,
            end_ts: 0,
        }
    }

    /// Install display names for channel tracks (index = [`ChanId`]).
    pub fn with_channel_names(mut self, names: Vec<String>) -> PerfettoRecorder {
        self.chan_names = names;
        self
    }

    /// The recorded events (metadata excluded), for tests and tooling.
    pub fn events(&self) -> &[PerfettoEvent] {
        &self.events
    }

    /// Render the Chrome `trace_event` JSON document, one event per
    /// line: each is built and written on its own, so the document never
    /// exists as a tree.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\"traceEvents\": [");
        let mut sep = "\n  ";
        let mut push = |event: Json| {
            let _ = write!(s, "{sep}{event:#}");
            sep = ",\n  ";
        };
        let meta = |name: &str, pid: u32, tid: Option<usize>, label: &str| {
            let mut fields = vec![
                ("ph", "M".into()),
                ("name", name.into()),
                ("pid", (pid as u64).into()),
            ];
            fields.extend(tid.map(|t| ("tid", t.into())));
            fields.push(("args", Json::obj([("name", label.into())])));
            Json::obj(fields)
        };
        let (procs, chans) = (Self::PROCESS_TRACKS, Self::CHANNEL_TRACKS);
        push(meta("process_name", procs, None, "processes"));
        push(meta("process_name", chans, None, "channels"));
        for (pid, label) in self.labels.iter().enumerate() {
            push(meta("thread_name", procs, Some(pid), label));
        }
        for chan in 0..self.n_chans {
            let name = match self.chan_names.get(chan) {
                Some(name) => name.clone(),
                None => format!("chan {chan}"),
            };
            push(meta("thread_name", chans, Some(chan), &name));
        }
        for e in &self.events {
            let args = Json::obj(e.args.iter().map(|&(k, v)| (k, v.into())));
            push(Json::obj([
                ("ph", e.ph.to_string().into()),
                ("name", e.name.into()),
                ("cat", "systolic".into()),
                ("pid", (e.pid as u64).into()),
                ("tid", e.tid.into()),
                ("ts", e.ts.into()),
                // Instant events want a scope instead of a duration.
                match e.ph {
                    'X' => ("dur", e.dur.into()),
                    _ => ("s", "t".into()),
                },
                ("args", args),
            ]));
        }
        s.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        s
    }
}

impl Recorder for PerfettoRecorder {
    fn start(&mut self, labels: &[String]) {
        self.labels = labels.to_vec();
    }

    fn transfer(&mut self, ev: &Transfer) {
        self.n_chans = self.n_chans.max(ev.chan + 1);
        let args = vec![
            ("value", ev.value),
            ("sender", ev.sender as i64),
            ("receiver", ev.receiver as i64),
            ("sender_wait", ev.sender_wait as i64),
            ("receiver_wait", ev.receiver_wait as i64),
        ];
        self.events.push(PerfettoEvent {
            ph: 'X',
            name: "xfer",
            pid: Self::CHANNEL_TRACKS,
            tid: ev.chan as u64,
            ts: ev.time * Self::TIME_SCALE,
            dur: Self::TIME_SCALE * 4 / 5,
            args,
        });
    }

    fn step(&mut self, time: u64, pid: usize) {
        self.events.push(PerfettoEvent {
            ph: 'X',
            name: "step",
            pid: Self::PROCESS_TRACKS,
            tid: pid as u64,
            ts: time * Self::TIME_SCALE,
            dur: Self::TIME_SCALE / 2,
            args: Vec::new(),
        });
    }

    fn finished(&mut self, time: u64, pid: usize) {
        self.events.push(PerfettoEvent {
            ph: 'i',
            name: "finished",
            pid: Self::PROCESS_TRACKS,
            tid: pid as u64,
            ts: time * Self::TIME_SCALE,
            dur: 0,
            args: Vec::new(),
        });
    }

    fn end(&mut self, time: u64) {
        self.end_ts = time * Self::TIME_SCALE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coop::Network;
    use crate::process::lock;
    use crate::procir::ProcIrBuilder;

    /// Run a builder's module under the given recorders.
    fn run_recorded(b: ProcIrBuilder, recorders: &[SharedRecorder]) -> crate::RunStats {
        let module = b.build();
        let inst = module.instantiate_recorded(recorders);
        let mut net = Network::default();
        for r in recorders {
            net.add_recorder(r.clone());
        }
        for p in inst.procs {
            net.add(p);
        }
        net.run().unwrap()
    }

    #[test]
    fn divergence_attribution_ignores_order_and_waits_but_not_substance() {
        let t = |time, chan, value, sender_wait| Transfer {
            time,
            chan,
            value,
            sender: 0,
            receiver: 1,
            sender_wait,
            receiver_wait: 0,
        };
        // Same substance, different within-round order and different
        // wait attribution: canonically identical.
        let mut a = vec![t(0, 1, 10, 0), t(0, 0, 20, 0), t(1, 0, 30, 2)];
        let mut b = vec![t(0, 0, 20, 5), t(0, 1, 10, 1), t(1, 0, 30, 0)];
        canonicalize_transfers(&mut a);
        canonicalize_transfers(&mut b);
        assert_eq!(first_divergence(&a, &b), None);
        // A changed value is substance: attributed at its canonical index.
        let mut c = vec![t(0, 0, 20, 0), t(0, 1, 99, 0), t(1, 0, 30, 0)];
        canonicalize_transfers(&mut c);
        assert_eq!(first_divergence(&a, &c), Some(1));
        // A missing tail transfer diverges at the shorter log's end.
        assert_eq!(first_divergence(&a, &a[..2]), Some(2));
    }

    /// Metrics totals reconcile with the VM step-count contract of
    /// docs/process-ir.md: source n+1, relay 2n+1, sink count+1.
    #[test]
    fn metrics_reconcile_with_step_count_contract() {
        let n = 5usize;
        let mut b = ProcIrBuilder::new();
        let values: Vec<Value> = (1..=n as i64).collect();
        b.source(0, &values, "src");
        b.relay(0, 1, n, "relay");
        b.sink(1, n, "sink");
        let (metrics, erased) = shared(MetricsRecorder::new());
        let stats = run_recorded(b, &[erased]);
        let report = lock(&metrics).report();

        let steps: Vec<u64> = report.processes.iter().map(|p| p.steps).collect();
        assert_eq!(steps, vec![n as u64 + 1, 2 * n as u64 + 1, n as u64 + 1]);
        assert_eq!(steps.iter().sum::<u64>(), stats.steps);
        assert_eq!(report.transfers, stats.messages);
        assert_eq!(report.end_time, stats.rounds);
        let sent: u64 = report.processes.iter().map(|p| p.sent).sum();
        let received: u64 = report.processes.iter().map(|p| p.received).sum();
        assert_eq!(sent, stats.messages);
        assert_eq!(received, stats.messages);
        // Op counts: n emits, n pass cycles, n collects.
        assert_eq!(report.processes[0].ops[OpKind::Emit as usize], n as u64);
        assert_eq!(report.processes[1].ops[OpKind::Pass as usize], n as u64);
        assert_eq!(report.processes[2].ops[OpKind::Collect as usize], n as u64);
        // A relay is pure transport; the host fringe is host phase.
        assert_eq!(
            report.processes[1].phases[Phase::Transport as usize],
            n as u64
        );
        assert_eq!(report.processes[0].phases[Phase::Host as usize], n as u64);
        // Per-channel totals cover every message.
        let chan_total: u64 = report.channels.iter().map(|c| c.transfers).sum();
        assert_eq!(chan_total, stats.messages);
        // Labels came through `start`.
        assert_eq!(report.processes[0].label, "src");
        // Every process finished no later than the final round.
        for p in &report.processes {
            assert!(p.finished_at.unwrap() <= stats.rounds);
        }
    }

    /// Phase attribution on the canonical computation shape: keep = load,
    /// pre-compute passes = soak side, post-compute = drain side,
    /// eject = recover, and the makespan windows nest correctly.
    #[test]
    fn metrics_phase_breakdown_on_computation_process() {
        use crate::kernel::{Kernel, KernelOp::*};
        use crate::procir::{MovingLink, ProcOp};
        use std::sync::Arc as StdArc;
        let mut b = ProcIrBuilder::new();
        b.begin("comp");
        b.op(ProcOp::Keep { chan: 2, slot: 1 });
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: 1,
        });
        b.op(ProcOp::Compute { count: 2 });
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: 1,
        });
        b.op(ProcOp::Eject { chan: 3, slot: 1 });
        b.repeater(
            &[MovingLink {
                slot: 0,
                inp: 0,
                out: 1,
            }],
            &[5],
            &[1],
            2,
        );
        b.finish();
        b.source(0, &[100, 2, 3, 100], "a-in");
        b.source(2, &[0], "c-in");
        b.sink(1, 4, "a-out");
        b.sink(3, 1, "c-out");
        // c += a * x0
        b.set_kernel(StdArc::new(Kernel {
            ops: vec![Slot(1), Slot(0), Index(0), Mul(1, 2), Add(0, 3)],
            writes: vec![(1, 4)],
            n_slots: 2,
            n_dims: 1,
        }));
        let module = b.build();
        let (metrics, erased) = shared(MetricsRecorder::new());
        let inst = module.instantiate_recorded(std::slice::from_ref(&erased));
        let mut net = Network::default();
        net.add_recorder(erased);
        for p in inst.procs {
            net.add(p);
        }
        let stats = net.run().unwrap();
        let report = lock(&metrics).report();
        let comp = &report.processes[0];
        assert_eq!(comp.phases[Phase::Load as usize], 1, "one keep");
        assert_eq!(comp.phases[Phase::Soak as usize], 1, "one soak pass");
        assert_eq!(comp.phases[Phase::Compute as usize], 2, "two iterations");
        assert_eq!(comp.phases[Phase::Drain as usize], 1, "one drain pass");
        assert_eq!(comp.phases[Phase::Recover as usize], 1, "one eject");
        assert_eq!(comp.ops[OpKind::Compute as usize], 2);
        // Makespan windows: soak + compute + drain partitions the run.
        assert!(report.first_compute.is_some());
        assert!(report.compute_window() >= 1);
        assert!(
            report.soak_lead_in() + report.compute_window() + report.drain_tail()
                == report.end_time
        );
        assert_eq!(report.transfers, stats.messages);
    }

    /// Waits: a value crossing a 2-relay chain makes the sink's first
    /// receive wait for the pipeline to fill.
    #[test]
    fn receiver_waits_are_measured_in_rounds() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3], "src");
        b.relay(0, 1, 3, "r0");
        b.relay(1, 2, 3, "r1");
        b.sink(2, 3, "sink");
        let (metrics, erased) = shared(MetricsRecorder::new());
        let stats = run_recorded(b, &[erased]);
        let report = lock(&metrics).report();
        // The sink parks on channel 2 in round 0 but the first value
        // arrives only after crossing both relays.
        assert!(report.channels[2].max_receiver_wait >= 1);
        // Histogram covers every transfer.
        let hist_total: u64 = report.wait_hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(hist_total, stats.messages);
        let tick_total: u64 = report.msgs_per_time_hist.iter().map(|&(k, c)| k * c).sum();
        assert_eq!(tick_total, stats.messages);
    }

    #[test]
    fn metrics_json_is_valid_and_stable_schema() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2], "src");
        b.sink(0, 2, "sink \"quoted\"");
        let (metrics, erased) = shared(MetricsRecorder::new());
        run_recorded(b, &[erased]);
        let json = lock(&metrics).report().to_json();
        assert!(json.contains("\"schema\": \"systolic-metrics-v1\""));
        assert!(json.contains("\\\"quoted\\\""), "labels are escaped");
        assert_eq!(
            crate::json::parse(&json),
            Ok(lock(&metrics).report().json())
        );
    }

    #[test]
    fn perfetto_trace_is_valid_json_with_monotone_tracks() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3, 4], "src");
        b.relay(0, 1, 4, "relay");
        b.sink(1, 4, "sink");
        let (perfetto, erased) = shared(PerfettoRecorder::new());
        run_recorded(b, &[erased]);
        let rec = lock(&perfetto);
        // Per-track timestamps are monotone non-decreasing.
        let mut last: std::collections::BTreeMap<(u32, u64), u64> = Default::default();
        assert!(!rec.events().is_empty());
        for e in rec.events() {
            let prev = last.entry((e.pid, e.tid)).or_insert(0);
            assert!(e.ts >= *prev, "track ({}, {}) went backwards", e.pid, e.tid);
            *prev = e.ts;
        }
        // Both track families are present, and transfers carry values.
        assert!(rec
            .events()
            .iter()
            .any(|e| e.pid == PerfettoRecorder::PROCESS_TRACKS));
        assert!(rec
            .events()
            .iter()
            .any(|e| e.pid == PerfettoRecorder::CHANNEL_TRACKS && e.name == "xfer"));
        let json = rec.to_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("thread_name"));
        let doc = crate::json::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2 + 3 + 2 + rec.events().len());
    }
}
