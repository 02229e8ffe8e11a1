//! The OS-thread rendezvous engine: virtual processes hosted in groups,
//! one worker thread per group.
//!
//! Sec. 8 lists the refinement "our programs must be refined to meet the
//! restrictions that actual machines impose: not enough processors ...
//! such limitations can be imposed with techniques of partitioning \[23\]".
//! This module supplies the runtime half of that refinement: each worker
//! hosts a *group* of virtual processes, multiplexing them cooperatively,
//! while groups communicate through one shared rendezvous matcher (a
//! mutex-protected table with a condvar per group). The paper's own
//! machine model — one asynchronous process per processor — is the
//! trivial partition, one process per group, and runs through the same
//! code: that is the `threaded` executor of `systolic_interp::simulate`.
//! Every process is stepped one rendezvous set at a time: the wavefront
//! and kernel rungs belong to the cooperative executor alone (a
//! ring-batched form of this engine kept every ring under one mutex,
//! measured slower than the cooperative fast rungs on every design and
//! size, and was deleted — `docs/scheduler.md` has the table).
//!
//! A process offers its whole communication set at once, so `par`
//! communications complete in any order, and a worker never blocks on a
//! single member's set: it registers offers non-blockingly, resumes
//! whichever member completed, and parks only when *every* member is
//! stuck — so intra-group rendezvous still make progress (they complete
//! inside the shared matcher the moment both sides are offered,
//! regardless of which thread hosts them). This is what makes the engine
//! deadlock-equivalent to the cooperative scheduler.
//!
//! As in [`crate::coop`], channel endpoints live in dense tables indexed
//! by [`ChanId`], worker loops reuse their request/receive buffers across
//! steps, and a malformed network (two processes on one endpoint) aborts
//! with a structured [`RunError`] diagnosis instead of panicking a worker.

use crate::coop::{ProtocolViolation, RunError, RunStats};
use crate::process::{lock, ChanId, CommReq, Process, Value};
use crate::record::{SharedRecorder, Transfer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stack of every group worker. A worker's stack holds one `step_into`
/// at a time whatever its group size, so one small
/// constant serves a two-worker partition and a thread-per-process run
/// of several thousand alike (4 000 workers reserve 0.5 GiB of address
/// space, not 8 GiB).
const WORKER_STACK: usize = 128 * 1024;

struct SetState {
    /// Requests of the current communication set not yet matched; 0
    /// between sets and once the process has finished.
    remaining: usize,
    inbox: Vec<Option<Value>>,
    /// Completed but not yet resumed by its worker.
    ready: bool,
}

struct EngineState {
    /// Dense endpoint tables by channel id, grown on first touch.
    sends: Vec<Option<(usize, usize, Value)>>,
    recvs: Vec<Option<(usize, usize)>>,
    sets: Vec<SetState>,
    messages: u64,
    /// First fatal diagnosis; preferred over secondary [`RunError::Aborted`].
    failure: Option<RunError>,
}

impl EngineState {
    fn ensure_chan(&mut self, chan: ChanId) {
        if chan >= self.sends.len() {
            self.sends.resize(chan + 1, None);
            self.recvs.resize(chan + 1, None);
        }
    }
}

struct Engine {
    state: Mutex<EngineState>,
    /// One wakeup per group.
    wakeups: Vec<Condvar>,
    group_of: Vec<usize>,
    /// Process labels captured before the workers were spawned, so
    /// diagnoses can name the offenders.
    labels: Vec<String>,
    aborted: AtomicBool,
    /// Attached observability sinks (see `crate::record`); every hook is
    /// behind an `is_empty` branch, so unobserved runs pay nothing.
    recorders: Vec<SharedRecorder>,
    /// Run start, for the microsecond virtual clock of recorded events.
    epoch: Instant,
}

impl Engine {
    fn new(
        labels: Vec<String>,
        group_of: Vec<usize>,
        n_groups: usize,
        recorders: Vec<SharedRecorder>,
    ) -> Engine {
        Engine {
            state: Mutex::new(EngineState {
                sends: Vec::new(),
                recvs: Vec::new(),
                sets: (0..labels.len())
                    .map(|_| SetState {
                        remaining: 0,
                        inbox: Vec::new(),
                        ready: false,
                    })
                    .collect(),
                messages: 0,
                failure: None,
            }),
            wakeups: (0..n_groups).map(|_| Condvar::new()).collect(),
            group_of,
            labels,
            aborted: AtomicBool::new(false),
            recorders,
            epoch: Instant::now(),
        }
    }

    /// Microseconds since run start — the virtual time of recorded events.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Report one completed transfer to every recorder (waits are a
    /// round-clock notion; this executor reports them as 0).
    fn record_transfer(&self, chan: ChanId, value: Value, sender: usize, receiver: usize) {
        if self.recorders.is_empty() {
            return;
        }
        let ev = Transfer {
            time: self.now(),
            chan,
            value,
            sender,
            receiver,
            sender_wait: 0,
            receiver_wait: 0,
        };
        for r in &self.recorders {
            lock(r).transfer(&ev);
        }
    }

    /// Report one scheduler step of `pid` (and its completion, when the
    /// step offered nothing more) to every recorder.
    fn record_step(&self, pid: usize, finished: bool) {
        if self.recorders.is_empty() {
            return;
        }
        let now = self.now();
        for r in &self.recorders {
            let mut r = lock(r);
            r.step(now, pid);
            if finished {
                r.finished(now, pid);
            }
        }
    }

    /// Record a fatal diagnosis (the first one is the root cause and
    /// stays), wake every group, and return the error.
    fn abort(&self, st: &mut EngineState, err: RunError) -> RunError {
        self.aborted.store(true, Ordering::Relaxed);
        st.failure.get_or_insert_with(|| err.clone());
        for w in &self.wakeups {
            w.notify_all();
        }
        err
    }

    fn violation(
        &self,
        chan: ChanId,
        endpoint: &'static str,
        first: usize,
        second: usize,
    ) -> RunError {
        RunError::Protocol(ProtocolViolation {
            chan,
            endpoint,
            first: self.labels[first].clone(),
            second: self.labels[second].clone(),
        })
    }

    /// Register a process's next (non-empty) communication set; complete
    /// any matches this enables. Caller holds no lock.
    fn register(&self, pid: usize, reqs: &[CommReq]) -> Result<(), RunError> {
        let mut st = lock(&self.state);
        st.sets[pid].remaining = reqs.len();
        st.sets[pid].inbox.clear();
        st.sets[pid].inbox.resize(reqs.len(), None);
        let mut to_wake = Vec::new();
        for (ri, req) in reqs.iter().enumerate() {
            match *req {
                CommReq::Send { chan, value } => {
                    st.ensure_chan(chan);
                    if let Some((rpid, rri)) = st.recvs[chan].take() {
                        st.sets[rpid].inbox[rri] = Some(value);
                        Self::complete(&mut st, rpid, &mut to_wake, &self.group_of);
                        Self::complete(&mut st, pid, &mut to_wake, &self.group_of);
                        st.messages += 1;
                        self.record_transfer(chan, value, pid, rpid);
                    } else {
                        if let Some((prev, _, _)) = st.sends[chan] {
                            let err = self.violation(chan, "sender", prev, pid);
                            return Err(self.abort(&mut st, err));
                        }
                        st.sends[chan] = Some((pid, ri, value));
                    }
                }
                CommReq::Recv { chan } => {
                    st.ensure_chan(chan);
                    if let Some((spid, _sri, value)) = st.sends[chan].take() {
                        st.sets[pid].inbox[ri] = Some(value);
                        Self::complete(&mut st, pid, &mut to_wake, &self.group_of);
                        Self::complete(&mut st, spid, &mut to_wake, &self.group_of);
                        st.messages += 1;
                        self.record_transfer(chan, value, spid, pid);
                    } else {
                        if let Some((prev, _)) = st.recvs[chan] {
                            let err = self.violation(chan, "receiver", prev, pid);
                            return Err(self.abort(&mut st, err));
                        }
                        st.recvs[chan] = Some((pid, ri));
                    }
                }
            }
        }
        drop(st);
        to_wake.sort_unstable();
        to_wake.dedup();
        for g in to_wake {
            self.wakeups[g].notify_one();
        }
        Ok(())
    }

    fn complete(st: &mut EngineState, pid: usize, to_wake: &mut Vec<usize>, group_of: &[usize]) {
        st.sets[pid].remaining -= 1;
        if st.sets[pid].remaining == 0 {
            st.sets[pid].ready = true;
            to_wake.push(group_of[pid]);
        }
    }

    /// Pop a ready member of group `gi`, filling `received` with its
    /// values, or park until one appears; returns the member's position
    /// in `members` (`shapes` — is_send per request index — is indexed
    /// the same way). `Err` on abort or timeout.
    fn next_ready(
        &self,
        gi: usize,
        members: &[usize],
        shapes: &[Vec<bool>],
        received: &mut Vec<Value>,
        timeout: Duration,
    ) -> Result<usize, RunError> {
        let mut st = lock(&self.state);
        loop {
            if let Some(i) = members.iter().position(|&m| st.sets[m].ready) {
                let set = &mut st.sets[members[i]];
                set.ready = false;
                received.clear();
                for (ri, is_send) in shapes[i].iter().enumerate() {
                    if !is_send {
                        received.push(set.inbox[ri].take().expect("recv completed without value"));
                    }
                }
                return Ok(i);
            }
            if self.aborted.load(Ordering::Relaxed) {
                return Err(st.failure.clone().unwrap_or(RunError::Aborted));
            }
            let (guard, wait) = self.wakeups[gi]
                .wait_timeout(st, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if wait.timed_out() {
                let err = RunError::Timeout {
                    scope: self.waiting_scope(&st, gi, members),
                };
                return Err(self.abort(&mut st, err));
            }
        }
    }

    /// Who a timed-out group was waiting on: `process {pid} ({label})`
    /// for each member with an unmatched set, prefixed by the group
    /// unless it hosts that process alone.
    fn waiting_scope(&self, st: &EngineState, gi: usize, members: &[usize]) -> String {
        let waiting: Vec<String> = members
            .iter()
            .filter(|&&m| st.sets[m].remaining > 0)
            .map(|&m| format!("process {m} ({})", self.labels[m]))
            .collect();
        match members.len() {
            1 => waiting.join(", "),
            _ => format!("group {gi}: {}", waiting.join(", ")),
        }
    }

    /// One group's worker: step every member once on no input, then
    /// resume whichever member's set completed until all have finished.
    /// Returns the steps taken.
    fn run_group(
        &self,
        gi: usize,
        members: &[usize],
        mut procs: Vec<Box<dyn Process>>,
        timeout: Duration,
    ) -> Result<u64, RunError> {
        // Buffers reused across every step of this group.
        let mut shapes: Vec<Vec<bool>> = vec![Vec::new(); members.len()];
        let mut reqs = Vec::new();
        let mut received = Vec::new();
        let mut steps = 0u64;
        let mut live = members.len();
        let mut unprimed = 0..members.len();
        while live > 0 {
            let i = match unprimed.next() {
                Some(i) => i,
                None => self.next_ready(gi, members, &shapes, &mut received, timeout)?,
            };
            reqs.clear();
            procs[i].step_into(&received, &mut reqs);
            steps += 1;
            self.record_step(members[i], reqs.is_empty());
            if reqs.is_empty() {
                live -= 1;
            } else {
                shapes[i].clear();
                shapes[i].extend(reqs.iter().map(|r| r.is_send()));
                self.register(members[i], &reqs)?;
            }
        }
        Ok(steps)
    }

    /// Start one small-stack worker per group with `spawn` and join them
    /// all, returning the steps they took. Thread creation fails on a
    /// request-reachable path (one process per group asks the OS for
    /// thousands of threads), so a failed spawn is not a panic: the
    /// [`RunError::Spawn`] aborts the workers already started, which are
    /// still joined before the error is returned.
    fn spawn_and_join(
        &self,
        mut spawn: impl FnMut(
            usize,
            std::thread::Builder,
        ) -> std::io::Result<JoinHandle<Result<u64, RunError>>>,
    ) -> Result<u64, RunError> {
        let mut handles = Vec::with_capacity(self.wakeups.len());
        let mut first_err = None;
        for gi in 0..self.wakeups.len() {
            let builder = std::thread::Builder::new()
                .name(format!("systolic-group-{gi}"))
                .stack_size(WORKER_STACK);
            match spawn(gi, builder) {
                Ok(h) => handles.push(h),
                Err(e) => {
                    let err = RunError::Spawn {
                        scope: format!("group {gi}: {e}"),
                    };
                    first_err = Some(self.abort(&mut lock(&self.state), err));
                    break;
                }
            }
        }
        let mut steps = 0;
        for (gi, h) in handles.into_iter().enumerate() {
            match h.join().map_err(|_| RunError::Panicked {
                scope: format!("group {gi}"),
            }) {
                Ok(Ok(s)) => steps += s,
                Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(steps), Err)
    }
}

/// Validate that `groups` is a partition of `0..n` and return its
/// inverse, the group of each process.
fn group_index(n: usize, groups: &[Vec<usize>]) -> Result<Vec<usize>, RunError> {
    let mut group_of = vec![usize::MAX; n];
    for (gi, g) in groups.iter().enumerate() {
        for &m in g {
            if m >= n {
                return Err(RunError::Partition {
                    reason: format!("group member {m} out of range (n = {n})"),
                });
            }
            if group_of[m] != usize::MAX {
                return Err(RunError::Partition {
                    reason: format!("process {m} in two groups"),
                });
            }
            group_of[m] = gi;
        }
    }
    if let Some(m) = group_of.iter().position(|&g| g == usize::MAX) {
        return Err(RunError::Partition {
            reason: format!("process {m} not in any group"),
        });
    }
    Ok(group_of)
}

/// Run processes partitioned into `groups` (a partition of process ids),
/// one OS thread per group; one process per group is the thread-per-
/// process machine of Sec. 4. `timeout` bounds any single wait of a
/// group whose members are all stuck — a blown timeout reports instead
/// of hanging (the cooperative scheduler is the deadlock oracle).
/// `recorders` are the attached observability sinks (see `crate::record`;
/// usually empty): event times are microseconds since run start and
/// transfer waits are reported as 0, as there is no round clock.
pub fn run_partitioned(
    procs: Vec<Box<dyn Process>>,
    mut groups: Vec<Vec<usize>>,
    timeout: Duration,
    recorders: Vec<SharedRecorder>,
) -> Result<RunStats, RunError> {
    let n = procs.len();
    let group_of = group_index(n, &groups)?;
    let labels: Vec<String> = procs.iter().map(|p| p.label()).collect();
    let engine = Arc::new(Engine::new(labels, group_of, groups.len(), recorders));
    for r in &engine.recorders {
        lock(r).start(&engine.labels);
    }

    // Distribute process ownership to the group threads.
    let mut slots: Vec<Option<Box<dyn Process>>> = procs.into_iter().map(Some).collect();
    let steps = engine.spawn_and_join(|gi, thread| {
        let members = std::mem::take(&mut groups[gi]);
        let owned = members
            .iter()
            .map(|&m| slots[m].take().expect("partition checked"))
            .collect();
        let engine = engine.clone();
        thread.spawn(move || engine.run_group(gi, &members, owned, timeout))
    });
    let st = lock(&engine.state);
    // The root cause, not whichever group's abort joined first.
    let steps = steps.map_err(|e| st.failure.clone().unwrap_or(e))?;
    let now = engine.now();
    for r in &engine.recorders {
        lock(r).end(now);
    }
    Ok(RunStats {
        rounds: 0,
        messages: st.messages,
        processes: n,
        steps,
    })
}

/// A simple block partition: processes in index order, `k` groups of
/// near-equal size. `k >= n_procs` is one process per group.
pub fn block_partition(n_procs: usize, k: usize) -> Vec<Vec<usize>> {
    let k = k.max(1).min(n_procs.max(1));
    let mut groups = vec![Vec::new(); k];
    for p in 0..n_procs {
        groups[p * k / n_procs.max(1)].push(p);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::SinkBuffer;
    use crate::procir::ProcIrBuilder;

    const T: Duration = Duration::from_secs(10);

    fn pipeline(len: usize, values: Vec<Value>) -> (Vec<Box<dyn Process>>, SinkBuffer) {
        let n = values.len();
        let mut b = ProcIrBuilder::new();
        b.source(0, &values, "src");
        for i in 0..len {
            b.relay(i, i + 1, n, format!("r{i}"));
        }
        b.sink(len, n, "sink");
        let inst = b.build().instantiate();
        let buf = inst.outputs[0].clone();
        (inst.procs, buf)
    }

    #[test]
    fn single_group_runs_everything_on_one_thread() {
        let (procs, buf) = pipeline(5, vec![1, 2, 3]);
        let n = procs.len();
        let stats = run_partitioned(procs, vec![(0..n).collect()], T, Vec::new()).unwrap();
        assert_eq!(*lock(&buf), vec![1, 2, 3]);
        assert_eq!(stats.processes, n);
    }

    #[test]
    fn two_groups_split_mid_pipeline() {
        let (procs, buf) = pipeline(6, (0..10).collect());
        let n = procs.len();
        let groups = vec![(0..n / 2).collect(), (n / 2..n).collect()];
        run_partitioned(procs, groups, T, Vec::new()).unwrap();
        assert_eq!(*lock(&buf), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn block_partition_shapes() {
        assert_eq!(block_partition(10, 3).len(), 3);
        assert_eq!(block_partition(10, 3).concat().len(), 10);
        assert_eq!(block_partition(2, 8).len(), 2, "no empty groups");
        assert_eq!(block_partition(7, 1), vec![(0..7).collect::<Vec<_>>()]);
        assert_eq!(
            block_partition(3, 3),
            vec![vec![0], vec![1], vec![2]],
            "as many workers as processes is the thread-per-process machine"
        );
    }

    #[test]
    fn every_partition_of_a_diamond_works() {
        // Fan-out/fan-in across group boundaries in all placements.
        for k in 1..=4 {
            let mut b = ProcIrBuilder::new();
            b.source(0, &[5, 6], "sa");
            b.source(1, &[7, 8], "sb");
            b.relay(0, 2, 2, "ra");
            b.relay(1, 3, 2, "rb");
            b.sink(2, 2, "ka");
            b.sink(3, 2, "kb");
            let inst = b.build().instantiate();
            let buf = inst.outputs[0].clone();
            let groups = block_partition(inst.procs.len(), k);
            run_partitioned(inst.procs, groups, T, Vec::new()).unwrap();
            assert_eq!(*lock(&buf), vec![5, 6], "k = {k}");
        }
    }

    #[test]
    fn timeout_names_the_waiting_processes() {
        let stuck = |groups: Vec<Vec<usize>>| {
            let mut b = ProcIrBuilder::new();
            b.sink(8, 1, "lonely-a");
            b.sink(9, 1, "lonely-b");
            let inst = b.build().instantiate();
            let wait = Duration::from_millis(50);
            let err = run_partitioned(inst.procs, groups, wait, Vec::new()).unwrap_err();
            let RunError::Timeout { scope } = &err else {
                panic!("expected a timeout, got {err}");
            };
            assert!(err.to_string().contains("timed out"), "{err}");
            scope.clone()
        };
        // A process alone in its group is named as the thread-per-process
        // engine named it; which of the two groups times out first is racy.
        let scope = stuck(block_partition(2, 2));
        assert!(
            scope == "process 0 (lonely-a)" || scope == "process 1 (lonely-b)",
            "{scope}"
        );
        assert_eq!(
            stuck(vec![vec![0, 1]]),
            "group 0: process 0 (lonely-a), process 1 (lonely-b)"
        );
    }

    #[test]
    fn bad_partitions_are_structured_errors() {
        let (procs, _) = pipeline(0, vec![1]);
        let err = run_partitioned(procs, vec![vec![0], vec![0, 1]], T, Vec::new()).unwrap_err();
        let RunError::Partition { reason } = err else {
            panic!("expected partition error, got {err}");
        };
        assert!(reason.contains("two groups"), "{reason}");

        let (procs, _) = pipeline(0, vec![1]);
        let err = run_partitioned(procs, vec![vec![0]], T, Vec::new()).unwrap_err();
        assert!(
            matches!(err, RunError::Partition { .. }),
            "uncovered process must be diagnosed: {err}"
        );
    }

    #[test]
    fn two_receivers_abort_with_diagnosis() {
        // Two sinks both claim the receive end of channel 0 with no sender
        // in the network, so both receives must park; whichever registers
        // second trips the violation, and the run reports it regardless of
        // which group observed the abort first.
        for k in 1..=2 {
            let mut b = ProcIrBuilder::new();
            b.sink(0, 2, "sink-a");
            b.sink(0, 2, "sink-b");
            let inst = b.build().instantiate();
            let groups = block_partition(inst.procs.len(), k);
            let err = run_partitioned(inst.procs, groups, T, Vec::new()).unwrap_err();
            let RunError::Protocol(v) = err else {
                panic!("expected protocol violation, got {err} (k = {k})");
            };
            assert_eq!(v.chan, 0);
            assert_eq!(v.endpoint, "receiver");
            let mut pair = [v.first.as_str(), v.second.as_str()];
            pair.sort_unstable();
            assert_eq!(pair, ["sink-a", "sink-b"], "k = {k}");
        }
    }

    #[test]
    fn two_senders_abort_with_diagnosis() {
        // No receiver exists, so both sources must park their sends on
        // channel 0; whichever registers second trips the violation, and
        // the run reports it (not a bare "aborted").
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2], "src-a");
        b.source(0, &[3, 4], "src-b");
        let inst = b.build().instantiate();
        let err = run_partitioned(inst.procs, block_partition(2, 2), T, Vec::new()).unwrap_err();
        let RunError::Protocol(v) = err else {
            panic!("expected protocol violation, got {err}");
        };
        assert_eq!((v.chan, v.endpoint), (0, "sender"));
        // Registration order is racy across threads, but both offenders
        // are named either way.
        let mut pair = [v.first.as_str(), v.second.as_str()];
        pair.sort_unstable();
        assert_eq!(pair, ["src-a", "src-b"]);
        assert!(v.to_string().contains("two senders"));
    }

    #[test]
    fn threaded_fanout_join() {
        // A hand-written `Process` (not a `ProcVm`) on its own thread.
        struct Join {
            out: SinkBuffer,
            rounds: usize,
        }
        impl Process for Join {
            fn step(&mut self, received: &[Value]) -> Vec<CommReq> {
                if received.len() == 2 {
                    lock(&self.out).push(received[0] * received[1]);
                }
                if self.rounds == 0 {
                    return vec![];
                }
                self.rounds -= 1;
                vec![CommReq::Recv { chan: 0 }, CommReq::Recv { chan: 1 }]
            }
        }
        let mut b = ProcIrBuilder::new();
        b.source(0, &[2, 3], "sa");
        b.source(1, &[10, 100], "sb");
        let mut procs = b.build().instantiate().procs;
        let buf = crate::process::sink_buffer();
        procs.push(Box::new(Join {
            out: buf.clone(),
            rounds: 2,
        }));
        run_partitioned(procs, block_partition(3, 3), T, Vec::new()).unwrap();
        assert_eq!(*lock(&buf), vec![20, 300]);
    }

    #[test]
    fn many_threads_small_stacks() {
        // 200 parallel one-shot pipelines, a thread per process.
        let mut b = ProcIrBuilder::new();
        for i in 0..200usize {
            b.source(i, &[i as Value], "s");
            b.sink(i, 1, "k");
        }
        let inst = b.build().instantiate();
        let stats = run_partitioned(inst.procs, block_partition(400, 400), T, Vec::new()).unwrap();
        assert_eq!((stats.processes, stats.messages), (400, 200));
        for (i, buf) in inst.outputs.iter().enumerate() {
            assert_eq!(*lock(buf), vec![i as Value]);
        }
    }

    #[test]
    fn a_refused_spawn_aborts_and_joins_the_started_workers() {
        // Group 0 starts and parks on a receive nobody will match; the
        // OS "refuses" group 1. The engine must wake and join group 0
        // long before its rendezvous timeout, and report the spawn.
        let group_of = group_index(2, &block_partition(2, 2)).unwrap();
        let labels = vec!["waiter".to_string(), "unborn".to_string()];
        let engine = Arc::new(Engine::new(labels, group_of, 2, Vec::new()));
        let started = Instant::now();
        let err = engine
            .spawn_and_join(|gi, thread| {
                if gi == 1 {
                    return Err(std::io::Error::other("no more threads"));
                }
                let engine = engine.clone();
                thread.spawn(move || {
                    engine.register(0, &[CommReq::Recv { chan: 0 }])?;
                    engine
                        .next_ready(0, &[0], &[vec![false]], &mut Vec::new(), T)
                        .map(|_| 0)
                })
            })
            .unwrap_err();
        assert!(started.elapsed() < T, "the parked worker was not woken");
        let RunError::Spawn { scope } = &err else {
            panic!("expected a spawn error, got {err}");
        };
        assert_eq!(scope, "group 1: no more threads");
        assert_eq!(err.kind(), "spawn");
        // The parked worker saw the same root cause, not a timeout.
        let failure = lock(&engine.state).failure.clone();
        assert!(
            matches!(failure, Some(RunError::Spawn { .. })),
            "{failure:?}"
        );
    }
}
