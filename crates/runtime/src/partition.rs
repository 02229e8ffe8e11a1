//! Partitioned execution: many virtual processes per worker thread.
//!
//! Sec. 8 lists the refinement "our programs must be refined to meet the
//! restrictions that actual machines impose: not enough processors ...
//! such limitations can be imposed with techniques of partitioning \[23\]".
//! This module supplies the runtime half of that refinement: a fixed
//! number of workers each hosts a *group* of virtual processes,
//! multiplexing them cooperatively, while groups communicate through the
//! same rendezvous engine as the one-thread-per-process executor.
//!
//! The crucial difference from [`crate::threaded`] is that a worker never
//! blocks on a single process's communication set: it registers offers
//! non-blockingly, resumes whichever member completed, and parks only
//! when *every* member is stuck — so intra-group rendezvous still make
//! progress (they complete inside the shared matcher the moment both
//! sides are offered, regardless of which thread hosts them).
//!
//! As in [`crate::coop`] and [`crate::threaded`], channel endpoints live
//! in dense tables indexed by [`ChanId`], worker loops reuse their
//! request/receive buffers across steps, and a malformed network (two
//! processes on one endpoint) aborts with a structured [`RunError`]
//! diagnosis instead of panicking a worker.

use crate::batch::{BatchPlan, Ring};
use crate::coop::{ProtocolViolation, RunError, RunStats};
use crate::process::{ChanId, CommReq, Process, SinkBuffer, Value};
use crate::procir::{ProcIrModule, ProcVm};
use crate::record::{SharedRecorder, Transfer};
use crate::schedule::YieldPlan;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct SetState {
    remaining: usize,
    inbox: Vec<Option<Value>>,
    /// Completed but not yet resumed by its worker.
    ready: bool,
    finished: bool,
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
    /// violation diagnoses can name both offenders.
    labels: Vec<String>,
    aborted: AtomicBool,
    /// Attached observability sinks (see `crate::record`); every hook is
    /// behind an `is_empty` branch, so unobserved runs pay nothing.
    recorders: Vec<SharedRecorder>,
    /// Run start, for the microsecond virtual clock of recorded events.
    epoch: Instant,
}

impl Engine {
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
            r.lock().transfer(&ev);
        }
    }

    /// Record a fatal diagnosis, wake every group, and return the error.
    fn abort(&self, st: &mut EngineState, err: RunError) -> RunError {
        self.aborted.store(true, Ordering::Relaxed);
        if st.failure.is_none() {
            st.failure = Some(err.clone());
        }
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

    /// Register a process's next communication set; complete any matches
    /// this enables. Caller holds no lock.
    fn register(&self, pid: usize, reqs: &[CommReq]) -> Result<(), RunError> {
        let mut st = self.state.lock();
        st.sets[pid].remaining = reqs.len();
        st.sets[pid].inbox.clear();
        st.sets[pid].inbox.resize(reqs.len(), None);
        st.sets[pid].ready = reqs.is_empty();
        st.sets[pid].finished = false;
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

    /// Pop a ready member of `group`, filling `received` with its values
    /// (request shapes come from `shapes`, indexed by pid); or park until
    /// one appears. `None` on abort/timeout or when every member finished.
    fn next_ready(
        &self,
        group_id: usize,
        members: &[usize],
        shapes: &[Vec<bool>], // is_send per request index, by pid
        received: &mut Vec<Value>,
        timeout: Duration,
    ) -> Result<Option<usize>, RunError> {
        let mut st = self.state.lock();
        loop {
            if members.iter().all(|&m| st.sets[m].finished) {
                return Ok(None);
            }
            if let Some(&m) = members
                .iter()
                .find(|&&m| st.sets[m].ready && !st.sets[m].finished)
            {
                st.sets[m].ready = false;
                received.clear();
                for (ri, is_send) in shapes[m].iter().enumerate() {
                    if !is_send {
                        received.push(
                            st.sets[m].inbox[ri]
                                .take()
                                .expect("recv completed without value"),
                        );
                    }
                }
                return Ok(Some(m));
            }
            if self.aborted.load(Ordering::Relaxed) {
                return Err(st.failure.clone().unwrap_or(RunError::Aborted));
            }
            if self.wakeups[group_id]
                .wait_for(&mut st, timeout)
                .timed_out()
            {
                let err = RunError::Timeout {
                    scope: format!("group {group_id}"),
                };
                return Err(self.abort(&mut st, err));
            }
        }
    }
}

/// Run processes partitioned into `groups` (a partition of process ids),
/// one OS thread per group. Returns the usual statistics.
pub fn run_partitioned(
    procs: Vec<Box<dyn Process>>,
    groups: Vec<Vec<usize>>,
    timeout: Duration,
) -> Result<RunStats, RunError> {
    run_partitioned_recorded(procs, groups, timeout, Vec::new())
}

/// [`run_partitioned`] with observability sinks attached (see
/// `crate::record`). Event times are microseconds since run start;
/// transfer waits are reported as 0 (no round clock). With an empty
/// recorder list this is exactly `run_partitioned`.
pub fn run_partitioned_recorded(
    procs: Vec<Box<dyn Process>>,
    groups: Vec<Vec<usize>>,
    timeout: Duration,
    recorders: Vec<SharedRecorder>,
) -> Result<RunStats, RunError> {
    run_partitioned_perturbed(procs, groups, timeout, recorders, None)
}

/// [`run_partitioned_recorded`] with seeded yield-point injection: each
/// group worker surrenders its timeslice at pseudo-random resume
/// boundaries drawn from `yields` (see [`YieldPlan`]), perturbing both
/// the OS schedule and the order in which a worker multiplexes its
/// members — rendezvous semantics are untouched. `None` is exactly
/// [`run_partitioned_recorded`].
pub fn run_partitioned_perturbed(
    procs: Vec<Box<dyn Process>>,
    groups: Vec<Vec<usize>>,
    timeout: Duration,
    recorders: Vec<SharedRecorder>,
    yields: Option<YieldPlan>,
) -> Result<RunStats, RunError> {
    let n = procs.len();
    check_partition(n, &groups)?;
    let mut group_of = vec![0usize; n];
    for (gi, g) in groups.iter().enumerate() {
        for &m in g {
            group_of[m] = gi;
        }
    }
    let labels: Vec<String> = procs.iter().map(|p| p.label()).collect();
    let engine = Arc::new(Engine {
        state: Mutex::new(EngineState {
            sends: Vec::new(),
            recvs: Vec::new(),
            sets: (0..n)
                .map(|_| SetState {
                    remaining: 0,
                    inbox: Vec::new(),
                    ready: true,
                    finished: false,
                })
                .collect(),
            messages: 0,
            failure: None,
        }),
        wakeups: (0..groups.len()).map(|_| Condvar::new()).collect(),
        group_of,
        labels,
        aborted: AtomicBool::new(false),
        recorders,
        epoch: Instant::now(),
    });
    for r in &engine.recorders {
        r.lock().start(&engine.labels);
    }

    // Distribute process ownership to the group threads.
    let mut slots: Vec<Option<Box<dyn Process>>> = procs.into_iter().map(Some).collect();
    let mut handles = Vec::new();
    let mut steps_total = 0u64;
    for (gi, members) in groups.iter().enumerate() {
        let mut owned: Vec<(usize, Box<dyn Process>)> = members
            .iter()
            .map(|&m| (m, slots[m].take().unwrap()))
            .collect();
        let engine = engine.clone();
        let members = members.clone();
        let h = std::thread::Builder::new()
            .name(format!("systolic-group-{gi}"))
            .spawn(move || -> Result<u64, RunError> {
                let mut steps = 0u64;
                let mut injector = yields.map(|y| y.injector(gi as u64));
                // Each member's current request shape (is_send per request
                // index), dense by pid; the per-member vectors and the
                // request/receive buffers are reused across every step.
                let mut shapes: Vec<Vec<bool>> = vec![Vec::new(); engine.group_of.len()];
                let mut reqs = Vec::new();
                let mut received = Vec::new();
                let recording = !engine.recorders.is_empty();
                // Prime every member.
                for (pid, proc) in owned.iter_mut() {
                    reqs.clear();
                    proc.step_into(&[], &mut reqs);
                    steps += 1;
                    if recording {
                        let now = engine.now();
                        for r in &engine.recorders {
                            let mut r = r.lock();
                            r.step(now, *pid);
                            if reqs.is_empty() {
                                r.finished(now, *pid);
                            }
                        }
                    }
                    if reqs.is_empty() {
                        engine.state.lock().sets[*pid].finished = true;
                        continue;
                    }
                    shapes[*pid].clear();
                    shapes[*pid].extend(reqs.iter().map(|r| r.is_send()));
                    engine.register(*pid, &reqs)?;
                }
                loop {
                    if let Some(inj) = injector.as_mut() {
                        inj.maybe_yield();
                    }
                    match engine.next_ready(gi, &members, &shapes, &mut received, timeout)? {
                        None => return Ok(steps),
                        Some(pid) => {
                            let proc = owned
                                .iter_mut()
                                .find(|(p, _)| *p == pid)
                                .map(|(_, pr)| pr)
                                .expect("ready member owned by this group");
                            reqs.clear();
                            proc.step_into(&received, &mut reqs);
                            steps += 1;
                            if recording {
                                let now = engine.now();
                                for r in &engine.recorders {
                                    let mut r = r.lock();
                                    r.step(now, pid);
                                    if reqs.is_empty() {
                                        r.finished(now, pid);
                                    }
                                }
                            }
                            if reqs.is_empty() {
                                engine.state.lock().sets[pid].finished = true;
                            } else {
                                shapes[pid].clear();
                                shapes[pid].extend(reqs.iter().map(|r| r.is_send()));
                                engine.register(pid, &reqs)?;
                            }
                        }
                    }
                }
            })
            .expect("spawn group thread");
        handles.push(h);
    }
    let mut first_err = None;
    for (gi, h) in handles.into_iter().enumerate() {
        match h.join().map_err(|_| RunError::Panicked {
            scope: format!("group {gi}"),
        }) {
            Ok(Ok(s)) => steps_total += s,
            Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    let st = engine.state.lock();
    if let Some(e) = first_err {
        // The root cause, not whichever group's abort joined first.
        return Err(st.failure.clone().unwrap_or(e));
    }
    let now = engine.now();
    for r in &engine.recorders {
        r.lock().end(now);
    }
    Ok(RunStats {
        rounds: 0,
        messages: st.messages,
        processes: n,
        steps: steps_total,
    })
}

/// Validate that `groups` is a partition of `0..n`; the shared
/// precondition of both partitioned executors.
fn check_partition(n: usize, groups: &[Vec<usize>]) -> Result<(), RunError> {
    let mut seen = vec![false; n];
    for g in groups {
        for &m in g {
            if m >= n {
                return Err(RunError::Partition {
                    reason: format!("group member {m} out of range (n = {n})"),
                });
            }
            if seen[m] {
                return Err(RunError::Partition {
                    reason: format!("process {m} in two groups"),
                });
            }
            seen[m] = true;
        }
    }
    if let Some(m) = seen.iter().position(|&s| !s) {
        return Err(RunError::Partition {
            reason: format!("process {m} not in any group"),
        });
    }
    Ok(())
}

/// Shared state of the batched partitioned executor: all rings under
/// one lock, taken once per macro-sweep of a worker's whole block.
struct BatchState {
    rings: Vec<Ring>,
    failure: Option<RunError>,
}

struct BatchEngine {
    state: Mutex<BatchState>,
    /// One wakeup per group.
    wakeups: Vec<Condvar>,
    aborted: AtomicBool,
}

/// Per-process neighbour sets from a plan's endpoint tables.
fn neighbour_sets(plan: &BatchPlan, n_procs: usize) -> Vec<Vec<usize>> {
    let mut neighbours: Vec<Vec<usize>> = vec![Vec::new(); n_procs];
    for c in 0..plan.widths.len() {
        if let (Some(p), Some(q)) = (plan.producer_of[c], plan.consumer_of[c]) {
            if p != q {
                neighbours[p].push(q);
                neighbours[q].push(p);
            }
        }
    }
    for nb in &mut neighbours {
        nb.sort_unstable();
        nb.dedup();
    }
    neighbours
}

/// The batched partitioned executor: the Sec. 8 refinement over
/// `ProcVm::macro_step`. Each worker round-robins its group's members
/// over the plan's shared rings until none progresses, then parks on the
/// group condvar; a member whose macro-step moved values wakes exactly
/// the *other* groups hosting its channel peers (intra-group unblocking
/// happens in the same sweep for free — the whole reason partitioning
/// multiplexes instead of blocking). Semantics pinned to the unbatched
/// executors by `tests/batching.rs`: stores bit-identical,
/// `messages`/`steps` logical counts, `rounds` 0.
pub fn run_partitioned_batched(
    module: &Arc<ProcIrModule>,
    plan: &BatchPlan,
    groups: Vec<Vec<usize>>,
    timeout: Duration,
) -> Result<(RunStats, Vec<SinkBuffer>), RunError> {
    debug_assert!(plan.batchable(), "caller checks BatchPlan::batchable");
    let (vms, outputs) = module.instantiate_vms(&[]);
    let n = vms.len();
    check_partition(n, &groups)?;
    let mut group_of = vec![0usize; n];
    for (gi, g) in groups.iter().enumerate() {
        for &m in g {
            group_of[m] = gi;
        }
    }
    // Which other groups to wake when a member's macro-step moves
    // values, dense by pid.
    let neighbours = neighbour_sets(plan, n);
    let neighbour_groups: Arc<Vec<Vec<usize>>> = Arc::new(
        (0..n)
            .map(|pid| {
                let mut gs: Vec<usize> = neighbours[pid]
                    .iter()
                    .map(|&q| group_of[q])
                    .filter(|&g| g != group_of[pid])
                    .collect();
                gs.sort_unstable();
                gs.dedup();
                gs
            })
            .collect(),
    );
    let engine = Arc::new(BatchEngine {
        state: Mutex::new(BatchState {
            rings: plan.rings(),
            failure: None,
        }),
        wakeups: (0..groups.len()).map(|_| Condvar::new()).collect(),
        aborted: AtomicBool::new(false),
    });

    let mut slots: Vec<Option<ProcVm>> = vms.into_iter().map(Some).collect();
    let mut handles = Vec::new();
    for (gi, members) in groups.iter().enumerate() {
        let mut owned: Vec<(usize, ProcVm, bool)> = members
            .iter()
            .map(|&m| (m, slots[m].take().unwrap(), false))
            .collect();
        let engine = engine.clone();
        let neighbour_groups = neighbour_groups.clone();
        let h = std::thread::Builder::new()
            .name(format!("systolic-batch-group-{gi}"))
            .spawn(move || -> Result<RunStats, RunError> {
                let mut stats = RunStats::default();
                let mut live = owned.len();
                let mut st = engine.state.lock();
                loop {
                    let mut progressed = false;
                    for (pid, vm, done) in owned.iter_mut() {
                        if *done {
                            continue;
                        }
                        let mut moved = 0u64;
                        let finished = vm.macro_step(&mut st.rings, &mut stats, &mut moved);
                        if moved > 0 {
                            progressed = true;
                            for &g in &neighbour_groups[*pid] {
                                engine.wakeups[g].notify_one();
                            }
                        }
                        if finished {
                            *done = true;
                            live -= 1;
                        }
                    }
                    if live == 0 {
                        return Ok(stats);
                    }
                    if progressed {
                        // A member may have unblocked a sibling; sweep
                        // again before parking.
                        continue;
                    }
                    if engine.aborted.load(Ordering::Relaxed) {
                        return Err(RunError::Aborted);
                    }
                    if engine.wakeups[gi].wait_for(&mut st, timeout).timed_out() {
                        let err = RunError::Timeout {
                            scope: format!("group {gi}"),
                        };
                        engine.aborted.store(true, Ordering::Relaxed);
                        if st.failure.is_none() {
                            st.failure = Some(err.clone());
                        }
                        for w in &engine.wakeups {
                            w.notify_all();
                        }
                        return Err(err);
                    }
                }
            })
            .expect("spawn batch group thread");
        handles.push(h);
    }
    let mut total = RunStats {
        rounds: 0,
        messages: 0,
        processes: n,
        steps: 0,
    };
    let mut first_err = None;
    for (gi, h) in handles.into_iter().enumerate() {
        match h.join().map_err(|_| RunError::Panicked {
            scope: format!("group {gi}"),
        }) {
            Ok(Ok(s)) => {
                total.messages += s.messages;
                total.steps += s.steps;
            }
            Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        // The root cause, not whichever group's abort joined first.
        let st = engine.state.lock();
        return Err(st.failure.clone().unwrap_or(e));
    }
    Ok((total, outputs))
}

/// A simple block partition: processes in index order, `k` groups of
/// near-equal size.
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
        let inst = b.build(None).instantiate();
        let buf = inst.outputs[0].clone();
        (inst.procs, buf)
    }

    #[test]
    fn single_group_runs_everything_on_one_thread() {
        let (procs, buf) = pipeline(5, vec![1, 2, 3]);
        let n = procs.len();
        let stats = run_partitioned(procs, vec![(0..n).collect()], T).unwrap();
        assert_eq!(*buf.lock(), vec![1, 2, 3]);
        assert_eq!(stats.processes, n);
    }

    #[test]
    fn two_groups_split_mid_pipeline() {
        let (procs, buf) = pipeline(6, (0..10).collect());
        let n = procs.len();
        let groups = vec![(0..n / 2).collect(), (n / 2..n).collect()];
        run_partitioned(procs, groups, T).unwrap();
        assert_eq!(*buf.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn block_partition_shapes() {
        assert_eq!(block_partition(10, 3).len(), 3);
        assert_eq!(block_partition(10, 3).concat().len(), 10);
        assert_eq!(block_partition(2, 8).len(), 2, "no empty groups");
        assert_eq!(block_partition(7, 1), vec![(0..7).collect::<Vec<_>>()]);
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
            let inst = b.build(None).instantiate();
            let buf = inst.outputs[0].clone();
            let groups = block_partition(inst.procs.len(), k);
            run_partitioned(inst.procs, groups, T).unwrap();
            assert_eq!(*buf.lock(), vec![5, 6], "k = {k}");
        }
    }

    #[test]
    fn yield_injection_perturbs_but_does_not_change_results() {
        for seed in [0u64, 5, 31] {
            let (procs, buf) = pipeline(4, (0..8).collect());
            let groups = block_partition(procs.len(), 3);
            let plan = YieldPlan {
                seed,
                yield_per_1024: 512,
            };
            run_partitioned_perturbed(procs, groups, T, Vec::new(), Some(plan)).unwrap();
            assert_eq!(*buf.lock(), (0..8).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn batched_partitions_match_unbatched_for_all_worker_counts() {
        let build = || {
            let mut b = ProcIrBuilder::new();
            b.source(0, &(0..20).collect::<Vec<_>>(), "src");
            for i in 0..4 {
                b.relay(i, i + 1, 20, format!("r{i}"));
            }
            b.sink(4, 20, "sink");
            b.build(None)
        };
        let module = build();
        let inst = module.instantiate();
        let nprocs = inst.procs.len();
        let base = run_partitioned(inst.procs, block_partition(nprocs, 2), T).unwrap();
        let base_out = inst.outputs[0].lock().clone();

        let plan = crate::batch::analyze(&module);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        for k in 1..=4 {
            let groups = block_partition(nprocs, k);
            let (stats, outs) = run_partitioned_batched(&module, &plan, groups, T).unwrap();
            assert_eq!(*outs[0].lock(), base_out, "k = {k}: store");
            assert_eq!(stats.messages, base.messages, "k = {k}: messages");
            assert_eq!(stats.steps, base.steps, "k = {k}: steps");
        }
    }

    #[test]
    fn batched_bad_partition_is_a_structured_error() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "src");
        b.sink(0, 1, "sink");
        let module = b.build(None);
        let plan = crate::batch::analyze(&module);
        let err = run_partitioned_batched(&module, &plan, vec![vec![0]], T).unwrap_err();
        assert!(matches!(err, RunError::Partition { .. }), "{err}");
    }

    #[test]
    fn timeout_on_stuck_group() {
        let mut b = ProcIrBuilder::new();
        b.sink(9, 1, "lonely");
        let inst = b.build(None).instantiate();
        let err =
            run_partitioned(inst.procs, vec![vec![0]], Duration::from_millis(50)).unwrap_err();
        assert!(
            matches!(err, RunError::Timeout { .. } | RunError::Aborted),
            "{err}"
        );
    }

    #[test]
    fn bad_partitions_are_structured_errors() {
        let (procs, _) = pipeline(0, vec![1]);
        let err = run_partitioned(procs, vec![vec![0], vec![0, 1]], T).unwrap_err();
        let RunError::Partition { reason } = err else {
            panic!("expected partition error, got {err}");
        };
        assert!(reason.contains("two groups"), "{reason}");

        let (procs, _) = pipeline(0, vec![1]);
        let err = run_partitioned(procs, vec![vec![0]], T).unwrap_err();
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
            let inst = b.build(None).instantiate();
            let groups = block_partition(inst.procs.len(), k);
            let err = run_partitioned(inst.procs, groups, T).unwrap_err();
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
}
