//! The observability layer: a [`Recorder`] sink for execution events,
//! threaded through the op step (`crate::step`) and the rendezvous
//! engine ([`crate::coop`]).
//!
//! Every process on every executor runs through one op step
//! (`crate::step`), so its op effects have one instrumentation point and
//! one event vocabulary covers the whole runtime:
//!
//! - **transfers** — one event per completed channel rendezvous,
//!   carrying the virtual time, channel, value, both endpoint processes,
//!   and how long each endpoint waited parked on the channel (in rounds);
//! - **steps** — one event per process step of the rendezvous engine
//!   (the op step over one completed set), mirroring `RunStats.steps`;
//! - **vm ops** — one event per retired ProcIR op effect, classified by
//!   [`OpKind`] and by the canonical-program [`Phase`] it belongs to
//!   (load / soak / compute / drain / recover, plus host fringe and pure
//!   transport), which is what the soak-vs-compute makespan attribution
//!   is built from;
//! - **finishes** — one event per process termination.
//!
//! The hooks carry only what the run alone knows. A process's label is
//! the module's, and the final virtual time is `RunStats::rounds`, so a
//! recorder reads both after the run.
//!
//! Recorders are shared as [`SharedRecorder`] (`Arc<Mutex<dyn Recorder>>`)
//! so a caller keeps a handle on what the engine fills; the engine holds
//! each once and hands it to the op step and its own hooks alike. Every hook in the runtime is behind an "any recorder
//! attached?" branch: with no recorder the hot paths gain one predictable
//! branch and allocate nothing (the zero-cost-when-off contract: the
//! goldens of `tests/matrix.rs` pin the counts with and without a
//! recorder; the unobserved path is what `benchmark/` times, as
//! `interp.simulate.us.*` beside `bench.trace_overhead_pct`).
//!
//! Two recorders are provided:
//!
//! - [`EventLogRecorder`] — the one per-transfer stream: a transfer log,
//!   optionally with the step and finish marks interleaved. The
//!   schedule explorer and `crates/interp`'s space–time diagrams read its
//!   transfers; the Chrome `trace_event` document for
//!   <https://ui.perfetto.dev> ([`EventLogRecorder::perfetto_json`]) is a
//!   rendering of a log with marks;
//! - [`MetricsRecorder`] — aggregates everything into a [`MetricsReport`],
//!   whose stable document (`systolic-metrics-v1`) is a [`Json`] value.
//!
//! See `docs/observability.md` for the schema and a how-to.

use crate::coop::RunStats;
use crate::json::Json;
use crate::process::{ChanId, Value};
use crate::procir::ProcIrModule;
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
/// belongs to. The op step classifies `Pass` cycles positionally: before the
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
}

/// How recorders are shared with the engines. Constructed by
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

/// A process step, or a process's termination, as a log with marks
/// holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark {
    pub time: u64,
    pub pid: usize,
    /// Transfers logged before this mark, so a reader interleaves the
    /// two streams in the order the engine reported them.
    pub transfers: usize,
    /// A termination (`Recorder::finished`) rather than a step.
    pub finished: bool,
}

/// The append-only log of a run's transfers. [`EventLogRecorder::new`]
/// keeps transfers only, as the schedule explorer and the space–time
/// diagrams (`crates/interp/src/trace.rs`) need;
/// [`EventLogRecorder::with_marks`] keeps the step and finish marks too,
/// which the Perfetto document draws.
#[derive(Default)]
pub struct EventLogRecorder {
    transfers: Vec<Transfer>,
    marks: Vec<Mark>,
    marking: bool,
}

impl EventLogRecorder {
    /// Chrome pid hosting the per-process tracks.
    const PROCESS_TRACKS: u64 = 1;
    /// Chrome pid hosting the per-channel tracks.
    const CHANNEL_TRACKS: u64 = 2;
    /// Trace microseconds per unit of virtual time: stretches
    /// cooperative rounds so slices are visible.
    const TIME_SCALE: u64 = 10;

    /// A transfer log.
    pub fn new() -> EventLogRecorder {
        EventLogRecorder::default()
    }

    /// A transfer log that also keeps the step and finish marks.
    pub fn with_marks() -> EventLogRecorder {
        EventLogRecorder {
            marking: true,
            ..EventLogRecorder::default()
        }
    }

    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// The step and finish marks, in the order the engine reported them
    /// (empty unless the log was made [`EventLogRecorder::with_marks`]).
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    pub fn take_transfers(&mut self) -> Vec<Transfer> {
        std::mem::take(&mut self.transfers)
    }

    /// The Chrome `trace_event` document of the run this log recorded,
    /// loadable in <https://ui.perfetto.dev> (or `chrome://tracing`): one
    /// track per process of `module`, the one that ran (its steps and
    /// termination), and one per channel up to the highest that carried
    /// a transfer (its transfers, with value, endpoints and waits as
    /// args). `chan_names` names the channel tracks (index = [`ChanId`];
    /// `chan N` past its end) — the interp layer passes
    /// stream-and-coordinate names. One event per line: each is built and
    /// written on its own, so the document never exists as a tree.
    pub fn perfetto_json(&self, module: &ProcIrModule, chan_names: &[String]) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\"traceEvents\": [");
        let mut sep = "\n  ";
        let mut push = |event: Json| {
            let _ = write!(s, "{sep}{event:#}");
            sep = ",\n  ";
        };
        let meta = |name: &str, pid: u64, tid: Option<usize>, label: &str| {
            let mut fields = vec![
                ("ph", "M".into()),
                ("name", name.into()),
                ("pid", pid.into()),
            ];
            fields.extend(tid.map(|t| ("tid", t.into())));
            fields.push(("args", Json::obj([("name", label.into())])));
            Json::obj(fields)
        };
        let (procs, chans) = (Self::PROCESS_TRACKS, Self::CHANNEL_TRACKS);
        push(meta("process_name", procs, None, "processes"));
        push(meta("process_name", chans, None, "channels"));
        for (pid, p) in module.procs.iter().enumerate() {
            push(meta("thread_name", procs, Some(pid), &p.label));
        }
        let n_chans = self.transfers.iter().map(|t| t.chan + 1).max().unwrap_or(0);
        for chan in 0..n_chans {
            let name = match chan_names.get(chan) {
                Some(name) => name.clone(),
                None => format!("chan {chan}"),
            };
            push(meta("thread_name", chans, Some(chan), &name));
        }
        // A step and a transfer are complete slices; a termination is an
        // instant, which wants a scope instead of a duration.
        let slice =
            |name: &str, pid: u64, tid: usize, time: u64, dur: Option<u64>, args: Vec<_>| {
                Json::obj([
                    ("ph", if dur.is_some() { "X" } else { "i" }.into()),
                    ("name", name.into()),
                    ("cat", "systolic".into()),
                    ("pid", pid.into()),
                    ("tid", tid.into()),
                    ("ts", (time * Self::TIME_SCALE).into()),
                    match dur {
                        Some(dur) => ("dur", dur.into()),
                        None => ("s", "t".into()),
                    },
                    ("args", Json::obj(args)),
                ])
            };
        let xfer = |t: &Transfer| {
            let args = vec![
                ("value", t.value.into()),
                ("sender", t.sender.into()),
                ("receiver", t.receiver.into()),
                ("sender_wait", t.sender_wait.into()),
                ("receiver_wait", t.receiver_wait.into()),
            ];
            let dur = Some(Self::TIME_SCALE * 4 / 5);
            slice("xfer", chans, t.chan, t.time, dur, args)
        };
        let mark = |m: &Mark| {
            let (name, dur) = if m.finished {
                ("finished", None)
            } else {
                ("step", Some(Self::TIME_SCALE / 2))
            };
            slice(name, procs, m.pid, m.time, dur, Vec::new())
        };
        let mut logged = 0;
        for m in &self.marks {
            for t in &self.transfers[logged..m.transfers] {
                push(xfer(t));
            }
            logged = m.transfers;
            push(mark(m));
        }
        for t in &self.transfers[logged..] {
            push(xfer(t));
        }
        s.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        s
    }

    fn mark(&mut self, time: u64, pid: usize, finished: bool) {
        if self.marking {
            self.marks.push(Mark {
                time,
                pid,
                transfers: self.transfers.len(),
                finished,
            });
        }
    }
}

impl Recorder for EventLogRecorder {
    fn transfer(&mut self, ev: &Transfer) {
        self.transfers.push(*ev);
    }

    fn step(&mut self, time: u64, pid: usize) {
        self.mark(time, pid, false);
    }

    fn finished(&mut self, time: u64, pid: usize) {
        self.mark(time, pid, true);
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChanMetrics {
    pub transfers: u64,
    pub sender_wait: u64,
    pub receiver_wait: u64,
    pub max_receiver_wait: u64,
    pub first_time: u64,
    pub last_time: u64,
}

/// Everything [`MetricsRecorder`] aggregated over one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    /// The schema id of the metrics document.
    pub const SCHEMA: &'static str = "systolic-metrics-v1";

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
            ("schema", Self::SCHEMA.into()),
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

    /// Snapshot the aggregates of a completed run of `module`, which
    /// names the processes; its `stats` give the final virtual time.
    pub fn report(&self, module: &ProcIrModule, stats: &RunStats) -> MetricsReport {
        let mut hist: Vec<(u64, u64)> = self.wait_hist.iter().map(|(&k, &v)| (k, v)).collect();
        hist.sort_unstable();
        let mut per_tick: BTreeMap<u64, u64> = BTreeMap::new();
        for &msgs in self.time_msgs.values() {
            *per_tick.entry(msgs).or_default() += 1;
        }
        let mut processes = self.procs.clone();
        processes.resize_with(module.procs.len(), ProcMetrics::default);
        for (p, proc) in processes.iter_mut().zip(module.procs.iter()) {
            p.label = proc.label.clone();
        }
        MetricsReport {
            processes,
            channels: self.chans.clone(),
            transfers: self.transfers,
            end_time: stats.rounds,
            first_compute: self.first_compute,
            last_compute: self.last_compute,
            wait_hist: hist,
            msgs_per_time_hist: per_tick.into_iter().collect(),
        }
    }
}

impl Recorder for MetricsRecorder {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coop::Network;
    use crate::process::lock;
    use crate::procir::ProcIrBuilder;

    /// Run a builder's module under `rec`, which the caller reads back.
    fn run_recorded(b: ProcIrBuilder, rec: SharedRecorder) -> (Arc<ProcIrModule>, RunStats) {
        let module = b.build();
        let mut net = Network::of(&module);
        net.add_recorder(rec);
        let stats = net.run().unwrap();
        (module, stats)
    }

    /// Run a builder's module under a metrics recorder.
    fn run_metered(b: ProcIrBuilder) -> (MetricsReport, RunStats) {
        let (metrics, erased) = shared(MetricsRecorder::new());
        let (module, stats) = run_recorded(b, erased);
        let report = lock(&metrics).report(&module, &stats);
        (report, stats)
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

    /// Metrics totals reconcile with the step-count contract of
    /// docs/process-ir.md: source n+1, relay 2n+1, sink count+1.
    #[test]
    fn metrics_reconcile_with_step_count_contract() {
        let n = 5usize;
        let mut b = ProcIrBuilder::new();
        let values: Vec<Value> = (1..=n as i64).collect();
        b.source(0, &values, "src");
        b.relay(0, 1, n, "relay");
        b.sink(1, n, "sink");
        let (report, stats) = run_metered(b);

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
        // Labels are the module's.
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
        let (report, stats) = run_metered(b);
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
        let (report, stats) = run_metered(b);
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
        let report = run_metered(b).0;
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"systolic-metrics-v1\""));
        assert!(json.contains("\\\"quoted\\\""), "labels are escaped");
        assert_eq!(crate::json::parse(&json), Ok(report.json()));
    }

    #[test]
    fn perfetto_trace_is_valid_json_with_monotone_tracks() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3, 4], "src");
        b.relay(0, 1, 4, "relay");
        b.sink(1, 4, "sink");
        let (log, erased) = shared(EventLogRecorder::with_marks());
        let (module, stats) = run_recorded(b, erased);
        let json = lock(&log).perfetto_json(&module, &[]);
        let doc = crate::json::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let field = |e: &Json, k| e.get(k).and_then(Json::as_i64).unwrap_or(-1);
        // Two process tracks, three process labels, two channels, then
        // one slice per step, termination and transfer.
        let slices: Vec<&Json> = events.iter().filter(|e| field(e, "ts") >= 0).collect();
        assert_eq!(events.len() - slices.len(), 2 + 3 + 2);
        let (steps, ends) = (stats.steps as usize, stats.processes);
        assert_eq!(slices.len(), steps + ends + stats.messages as usize);
        assert!(json.contains("thread_name"));
        // Per-track timestamps are monotone non-decreasing.
        let mut last: BTreeMap<(i64, i64), i64> = BTreeMap::new();
        for e in slices {
            let (track, ts) = ((field(e, "pid"), field(e, "tid")), field(e, "ts"));
            let prev = last.entry(track).or_insert(0);
            assert!(ts >= *prev, "track {track:?} went backwards");
            *prev = ts;
        }
        // Both track families are present.
        assert!(last.keys().any(|&(pid, _)| pid == 1));
        assert!(last.keys().any(|&(pid, _)| pid == 2));
    }
}
