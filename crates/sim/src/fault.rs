//! Fault injection: bounded rendezvous delays, stalled workers, and
//! aborted processes.
//!
//! Each fault has a precise contract against the paper's model:
//!
//! - **Delay** (coop engine): a channel's rendezvous is deferred a
//!   bounded number of rounds via the [`SchedulePolicy`] deferral hook.
//!   Rounds may grow; messages, steps, and the final store must not
//!   change (asynchronous semantics tolerates any finite slowdown).
//! - **Stall** (OS-thread executors): a worker sleeps briefly before
//!   each step. Wall-clock grows; results must not change.
//! - **Abort**: a process is replaced by one that blocks forever on a
//!   poison channel nobody serves. The run must fail *diagnosably*: the
//!   cooperative engine's exact deadlock report names the victim; the
//!   OS-thread engine converts the stuck rendezvous into a structured
//!   timeout.

use std::time::Duration;
use systolic_runtime::{ChanId, CommReq, Process, SchedulePolicy, Value};

/// One injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Replace process `victim` with a forever-blocked poison receive.
    Abort { victim: usize },
    /// Sleep `micros` before every step of process `victim`.
    Stall { victim: usize, micros: u64 },
    /// Defer channel `chan`'s rendezvous for its next `rounds` enabled
    /// rounds (cooperative engine only).
    Delay { chan: ChanId, rounds: u64 },
}

/// A set of faults to apply to one run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    pub fn abort(victim: usize) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault::Abort { victim }],
        }
    }

    pub fn stall(victim: usize, micros: u64) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault::Stall { victim, micros }],
        }
    }

    pub fn delay(chan: ChanId, rounds: u64) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault::Delay { chan, rounds }],
        }
    }

    /// Rewrite an instantiated process vector, applying the abort and
    /// stall faults. `poison_base` must be a channel range nobody uses
    /// (pass the module's `n_chans`): victim `i` blocks on
    /// `poison_base + i`, so even multiple aborts stay point-to-point.
    pub fn apply(
        &self,
        mut procs: Vec<Box<dyn Process>>,
        poison_base: ChanId,
    ) -> Vec<Box<dyn Process>> {
        for fault in &self.faults {
            match *fault {
                Fault::Abort { victim } if victim < procs.len() => {
                    let label = procs[victim].label();
                    procs[victim] = Box::new(AbortProc {
                        label,
                        poison: poison_base + victim,
                        started: false,
                    });
                }
                Fault::Stall { victim, micros } if victim < procs.len() => {
                    let inner = std::mem::replace(
                        &mut procs[victim],
                        Box::new(TombstoneProc) as Box<dyn Process>,
                    );
                    procs[victim] = Box::new(StallProc { inner, micros });
                }
                _ => {}
            }
        }
        procs
    }

    /// The schedule policy realizing this plan's delay faults (identity
    /// when there are none).
    pub fn delay_policy(&self) -> DelayPolicy {
        DelayPolicy {
            pending: self
                .faults
                .iter()
                .filter_map(|f| match *f {
                    Fault::Delay { chan, rounds } => Some((chan, rounds)),
                    _ => None,
                })
                .collect(),
        }
    }
}

/// The aborted process: asks once for a value nobody will ever send and
/// keeps its victim's label so deadlock reports stay attributable.
struct AbortProc {
    label: String,
    poison: ChanId,
    started: bool,
}

impl Process for AbortProc {
    fn step(&mut self, _received: &[Value]) -> Vec<CommReq> {
        if self.started {
            // Unreachable in a well-formed network (nobody sends on the
            // poison channel); terminate defensively if replayed oddly.
            return Vec::new();
        }
        self.started = true;
        vec![CommReq::Recv { chan: self.poison }]
    }

    fn label(&self) -> String {
        format!("{} (aborted)", self.label)
    }
}

/// The stalled process: delegates to the victim after a bounded sleep.
struct StallProc {
    inner: Box<dyn Process>,
    micros: u64,
}

impl Process for StallProc {
    fn step_into(&mut self, received: &[Value], out: &mut Vec<CommReq>) {
        std::thread::sleep(Duration::from_micros(self.micros));
        self.inner.step_into(received, out);
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Placeholder used mid-swap in [`FaultPlan::apply`]; never stepped.
struct TombstoneProc;

impl Process for TombstoneProc {
    fn step(&mut self, _received: &[Value]) -> Vec<CommReq> {
        Vec::new()
    }
}

/// Defers each faulted channel's rendezvous for its budgeted number of
/// enabled rounds, then lets it through — the bounded-delay fault. Pure
/// FIFO for every other channel.
pub struct DelayPolicy {
    /// (channel, remaining deferrals).
    pending: Vec<(ChanId, u64)>,
}

impl SchedulePolicy for DelayPolicy {
    fn schedule_round(&mut self, _round: u64, fire: &mut Vec<ChanId>, defer: &mut Vec<ChanId>) {
        if self.pending.iter().all(|&(_, n)| n == 0) {
            return;
        }
        let pending = &mut self.pending;
        fire.retain(|c| {
            if let Some(p) = pending.iter_mut().find(|(pc, n)| pc == c && *n > 0) {
                p.1 -= 1;
                defer.push(*c);
                false
            } else {
                true
            }
        });
    }

    fn label(&self) -> String {
        "delay-fault".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use systolic_runtime::{
        block_partition, lock, run_partitioned, Network, ProcIrBuilder, ProcIrModule, RunError,
    };

    /// source -> relay -> sink over 4 values; returns the sealed module.
    fn pipeline_module() -> Arc<ProcIrModule> {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[10, 20, 30, 40], "src");
        b.relay(0, 1, 4, "relay");
        b.sink(1, 4, "snk");
        b.build()
    }

    fn run_coop(
        module: &Arc<ProcIrModule>,
        plan: &FaultPlan,
        with_delay: bool,
    ) -> Result<(Vec<i64>, systolic_runtime::RunStats), RunError> {
        let inst = module.instantiate();
        let procs = plan.apply(inst.procs, module.n_chans);
        let mut net = Network::default();
        if with_delay {
            net.set_schedule_policy(Box::new(plan.delay_policy()));
        }
        for p in procs {
            net.add(p);
        }
        let stats = net.run()?;
        let values = lock(&inst.outputs[0]).clone();
        Ok((values, stats))
    }

    #[test]
    fn delay_fault_grows_rounds_but_not_results() {
        let module = pipeline_module();
        let clean = run_coop(&module, &FaultPlan::default(), false).unwrap();
        let delayed = run_coop(&module, &FaultPlan::delay(0, 3), true).unwrap();
        assert_eq!(delayed.0, clean.0, "store invariant under bounded delay");
        assert_eq!(delayed.1.messages, clean.1.messages);
        assert_eq!(delayed.1.steps, clean.1.steps);
        assert!(
            delayed.1.rounds > clean.1.rounds,
            "deferral must cost rounds: {} vs {}",
            delayed.1.rounds,
            clean.1.rounds
        );
    }

    #[test]
    fn abort_fault_deadlocks_the_coop_engine_naming_the_victim() {
        let module = pipeline_module();
        let err = run_coop(&module, &FaultPlan::abort(1), false).unwrap_err();
        let dl = err.as_deadlock().expect("abort must surface as deadlock");
        assert!(
            dl.blocked.iter().any(|b| b.contains("(aborted)")),
            "victim missing from report: {dl:?}"
        );
        assert!(
            dl.blocked.iter().any(|b| b.contains("relay")),
            "victim label lost: {dl:?}"
        );
    }

    #[test]
    fn abort_fault_times_out_the_os_thread_engine() {
        // One thread per process (the threaded executor), then two workers.
        for workers in [3, 2] {
            let module = pipeline_module();
            let inst = module.instantiate();
            let procs = FaultPlan::abort(1).apply(inst.procs, module.n_chans);
            let groups = block_partition(3, workers);
            let err =
                run_partitioned(procs, groups, Duration::from_millis(200), Vec::new()).unwrap_err();
            assert!(
                matches!(err, RunError::Timeout { .. }),
                "expected structured timeout, got {err:?} ({workers} workers)"
            );
        }
    }

    #[test]
    fn stall_fault_slows_but_does_not_change_threaded_results() {
        let module = pipeline_module();
        let inst = module.instantiate();
        let procs = FaultPlan::stall(1, 200).apply(inst.procs, module.n_chans);
        run_partitioned(
            procs,
            block_partition(3, 3),
            Duration::from_secs(30),
            Vec::new(),
        )
        .unwrap();
        assert_eq!(*lock(&inst.outputs[0]), vec![10, 20, 30, 40]);
    }

    #[test]
    fn multiple_aborts_block_on_distinct_poison_channels() {
        let module = pipeline_module();
        let inst = module.instantiate();
        let plan = FaultPlan {
            faults: vec![Fault::Abort { victim: 0 }, Fault::Abort { victim: 1 }],
        };
        let procs = plan.apply(inst.procs, module.n_chans);
        let mut net = Network::default();
        for p in procs {
            net.add(p);
        }
        let err = net.run().unwrap_err();
        let dl = err.as_deadlock().unwrap();
        // Both victims present, blocked on different channels.
        let aborted: Vec<&String> = dl
            .blocked
            .iter()
            .filter(|b| b.contains("(aborted)"))
            .collect();
        assert_eq!(aborted.len(), 2, "{dl:?}");
        assert_ne!(aborted[0], aborted[1]);
    }
}
