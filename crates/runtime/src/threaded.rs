//! The threaded executor: the same process networks on real OS threads
//! with blocking rendezvous — genuine asynchronous parallelism, used for
//! the speed-up experiments.
//!
//! The rendezvous engine is a single matcher protected by a mutex with one
//! condvar per process (the classic building block; cf. the guides'
//! "Rust Atomics and Locks" treatment of condition variables). A process
//! offers its whole communication set at once, so `par` communications
//! complete in any order without the thread having to block on one channel
//! at a time — this is what makes the executor deadlock-equivalent to the
//! cooperative scheduler.
//!
//! Like the cooperative scheduler, the matcher keeps its channel endpoints
//! in dense tables indexed by [`ChanId`] (no hashing under the lock), and
//! a malformed network — two processes claiming the same endpoint — aborts
//! the run with a structured [`RunError`] diagnosis instead of panicking
//! the offending thread.

use crate::coop::{ProtocolViolation, RunError, RunStats};
use crate::process::{ChanId, CommReq, Process, Value};
use crate::record::{SharedRecorder, Transfer};
use crate::schedule::YieldPlan;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct SetState {
    remaining: usize,
    inbox: Vec<Option<Value>>,
}

struct EngineState {
    /// Dense endpoint tables by channel id, grown on first touch.
    sends: Vec<Option<(usize, usize, Value)>>,
    recvs: Vec<Option<(usize, usize)>>,
    sets: Vec<SetState>,
    messages: u64,
    /// First fatal diagnosis (protocol violation or timeout); preferred
    /// over the secondary [`RunError::Aborted`] of the other threads.
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
    wakeups: Vec<Condvar>,
    /// Process labels captured before the threads were spawned, so
    /// violation diagnoses can name both offenders.
    labels: Vec<String>,
    aborted: AtomicBool,
    /// Attached observability sinks (see `crate::record`); every hook is
    /// behind an `is_empty` branch, so unobserved runs pay nothing.
    recorders: Vec<SharedRecorder>,
    /// Run start, for the microsecond virtual clock of recorded events
    /// (this executor has no round clock).
    epoch: Instant,
}

impl Engine {
    fn new(labels: Vec<String>, recorders: Vec<SharedRecorder>) -> Engine {
        let nprocs = labels.len();
        Engine {
            state: Mutex::new(EngineState {
                sends: Vec::new(),
                recvs: Vec::new(),
                sets: (0..nprocs)
                    .map(|_| SetState {
                        remaining: 0,
                        inbox: Vec::new(),
                    })
                    .collect(),
                messages: 0,
                failure: None,
            }),
            wakeups: (0..nprocs).map(|_| Condvar::new()).collect(),
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
            r.lock().transfer(&ev);
        }
    }

    /// Record a fatal diagnosis, wake everyone, and return the error.
    fn abort(&self, st: &mut EngineState, err: RunError) -> RunError {
        self.aborted.store(true, Ordering::Relaxed);
        if st.failure.is_none() {
            st.failure = Some(err.clone());
        }
        for w in &self.wakeups {
            w.notify_one();
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

    /// Offer a communication set and block until it completes, filling
    /// `received` with the received values in request order. `Err` on
    /// timeout, abort, or a protocol violation.
    fn offer_set(
        &self,
        pid: usize,
        reqs: &[CommReq],
        received: &mut Vec<Value>,
        timeout: Duration,
    ) -> Result<(), RunError> {
        let mut st = self.state.lock();
        st.sets[pid].remaining = reqs.len();
        st.sets[pid].inbox.clear();
        st.sets[pid].inbox.resize(reqs.len(), None);
        for (ri, req) in reqs.iter().enumerate() {
            match *req {
                CommReq::Send { chan, value } => {
                    st.ensure_chan(chan);
                    if let Some((rpid, rri)) = st.recvs[chan].take() {
                        st.sets[rpid].inbox[rri] = Some(value);
                        st.sets[rpid].remaining -= 1;
                        st.sets[pid].remaining -= 1;
                        st.messages += 1;
                        self.record_transfer(chan, value, pid, rpid);
                        if st.sets[rpid].remaining == 0 {
                            self.wakeups[rpid].notify_one();
                        }
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
                        st.sets[pid].remaining -= 1;
                        st.sets[spid].remaining -= 1;
                        st.messages += 1;
                        self.record_transfer(chan, value, spid, pid);
                        if st.sets[spid].remaining == 0 {
                            self.wakeups[spid].notify_one();
                        }
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
        while st.sets[pid].remaining > 0 {
            if self.aborted.load(Ordering::Relaxed) {
                return Err(RunError::Aborted);
            }
            if self.wakeups[pid].wait_for(&mut st, timeout).timed_out() {
                let err = RunError::Timeout {
                    scope: format!("process {pid} ({})", self.labels[pid]),
                };
                return Err(self.abort(&mut st, err));
            }
        }
        received.clear();
        for (ri, req) in reqs.iter().enumerate() {
            if !req.is_send() {
                received.push(st.sets[pid].inbox[ri].take().expect("recv without value"));
            }
        }
        Ok(())
    }
}

/// Run a set of processes on OS threads (one thread each, small stacks).
/// `timeout` bounds any single rendezvous wait — a blown timeout reports
/// instead of hanging (the cooperative scheduler is the deadlock oracle;
/// this executor is for wall-clock measurement).
pub fn run_threaded(procs: Vec<Box<dyn Process>>, timeout: Duration) -> Result<RunStats, RunError> {
    run_threaded_recorded(procs, timeout, Vec::new())
}

/// [`run_threaded`] with observability sinks attached (see
/// `crate::record`). Event times are microseconds since run start —
/// this executor has no round clock, so transfer waits are reported
/// as 0. With an empty recorder list this is exactly `run_threaded`.
pub fn run_threaded_recorded(
    procs: Vec<Box<dyn Process>>,
    timeout: Duration,
    recorders: Vec<SharedRecorder>,
) -> Result<RunStats, RunError> {
    run_threaded_perturbed(procs, timeout, recorders, None)
}

/// [`run_threaded_recorded`] with seeded yield-point injection: each
/// process thread surrenders its timeslice at pseudo-random step
/// boundaries drawn from `yields` (see [`YieldPlan`]), perturbing the OS
/// schedule without touching rendezvous semantics. The schedule-
/// independence harness (`crates/sim`) uses this to check that results
/// do not depend on thread interleaving. `None` is exactly
/// [`run_threaded_recorded`].
pub fn run_threaded_perturbed(
    procs: Vec<Box<dyn Process>>,
    timeout: Duration,
    recorders: Vec<SharedRecorder>,
    yields: Option<YieldPlan>,
) -> Result<RunStats, RunError> {
    let n = procs.len();
    let labels: Vec<String> = procs.iter().map(|p| p.label()).collect();
    let engine = Arc::new(Engine::new(labels, recorders));
    for r in &engine.recorders {
        r.lock().start(&engine.labels);
    }
    let mut handles = Vec::with_capacity(n);
    let mut steps_total = 0u64;
    for (pid, mut proc) in procs.into_iter().enumerate() {
        let engine = engine.clone();
        let h = std::thread::Builder::new()
            .name(format!("systolic-{pid}"))
            .stack_size(128 * 1024)
            .spawn(move || -> Result<u64, RunError> {
                // Buffers reused across every step of this process.
                let mut received = Vec::new();
                let mut reqs = Vec::new();
                let mut steps = 0u64;
                let recording = !engine.recorders.is_empty();
                let mut injector = yields.map(|y| y.injector(pid as u64));
                loop {
                    if let Some(inj) = injector.as_mut() {
                        inj.maybe_yield();
                    }
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
                        return Ok(steps);
                    }
                    engine.offer_set(pid, &reqs, &mut received, timeout)?;
                }
            })
            .expect("spawn systolic thread");
        handles.push(h);
    }
    let mut first_err = None;
    for (pid, h) in handles.into_iter().enumerate() {
        match h.join().map_err(|_| RunError::Panicked {
            scope: format!("process {pid}"),
        }) {
            Ok(Ok(s)) => steps_total += s,
            Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    let st = engine.state.lock();
    if let Some(e) = first_err {
        // The root cause, not whichever thread's abort joined first.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{sink_buffer, SinkBuffer};
    use crate::procir::ProcIrBuilder;

    const T: Duration = Duration::from_secs(10);

    /// Instantiate a builder's module, returning the processes and the
    /// output buffers in sink-declaration order.
    fn procs_of(b: ProcIrBuilder) -> (Vec<Box<dyn Process>>, Vec<SinkBuffer>) {
        let inst = b.build(None).instantiate();
        (inst.procs, inst.outputs)
    }

    #[test]
    fn threaded_pipeline_matches_cooperative() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2, 3, 4], "src");
        b.relay(0, 1, 4, "relay");
        b.sink(1, 4, "sink");
        let (procs, outs) = procs_of(b);
        let stats = run_threaded(procs, T).unwrap();
        assert_eq!(*outs[0].lock(), vec![1, 2, 3, 4]);
        assert_eq!(stats.messages, 8);
        assert_eq!(stats.processes, 3);
    }

    #[test]
    fn threaded_fanout_join() {
        struct Join {
            out: SinkBuffer,
            rounds: usize,
        }
        impl Process for Join {
            fn step(&mut self, received: &[Value]) -> Vec<CommReq> {
                if received.len() == 2 {
                    self.out.lock().push(received[0] * received[1]);
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
        let (mut procs, _) = procs_of(b);
        let buf = sink_buffer();
        procs.push(Box::new(Join {
            out: buf.clone(),
            rounds: 2,
        }));
        run_threaded(procs, T).unwrap();
        assert_eq!(*buf.lock(), vec![20, 300]);
    }

    #[test]
    fn timeout_reports_instead_of_hanging() {
        let mut b = ProcIrBuilder::new();
        b.sink(7, 1, "lonely");
        let (procs, _) = procs_of(b);
        let err = run_threaded(procs, Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, RunError::Timeout { .. }), "{err}");
        assert!(err.to_string().contains("timed out"), "{err}");
    }

    #[test]
    fn two_senders_abort_with_diagnosis() {
        // No receiver exists, so both sources must park their sends on
        // channel 0; whichever registers second trips the violation, and
        // the run reports it (not a bare "aborted").
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2], "src-a");
        b.source(0, &[3, 4], "src-b");
        let (procs, _) = procs_of(b);
        let err = run_threaded(procs, T).unwrap_err();
        let RunError::Protocol(v) = err else {
            panic!("expected protocol violation, got {err}");
        };
        assert_eq!(v.chan, 0);
        assert_eq!(v.endpoint, "sender");
        // Registration order is racy across threads, but both offenders
        // are named either way.
        let mut pair = [v.first.as_str(), v.second.as_str()];
        pair.sort_unstable();
        assert_eq!(pair, ["src-a", "src-b"]);
        assert!(v.to_string().contains("two senders"));
    }

    #[test]
    fn yield_injection_perturbs_but_does_not_change_results() {
        for seed in [0u64, 7, 99] {
            let mut b = ProcIrBuilder::new();
            b.source(0, &[1, 2, 3, 4], "src");
            b.relay(0, 1, 4, "relay");
            b.sink(1, 4, "sink");
            let (procs, outs) = procs_of(b);
            let plan = YieldPlan {
                seed,
                yield_per_1024: 512,
            };
            let stats = run_threaded_perturbed(procs, T, Vec::new(), Some(plan)).unwrap();
            assert_eq!(*outs[0].lock(), vec![1, 2, 3, 4], "seed {seed}");
            assert_eq!(stats.messages, 8, "seed {seed}");
        }
    }

    #[test]
    fn many_threads_small_stacks() {
        // 200 parallel one-shot pipelines.
        let mut b = ProcIrBuilder::new();
        for i in 0..200usize {
            b.source(i, &[i as Value], "s");
            b.sink(i, 1, "k");
        }
        let (procs, outs) = procs_of(b);
        run_threaded(procs, T).unwrap();
        for (i, buf) in outs.iter().enumerate() {
            assert_eq!(*buf.lock(), vec![i as Value]);
        }
    }
}
