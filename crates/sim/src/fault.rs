//! Fault injection: bounded rendezvous delays and aborted processes.
//!
//! Each fault has a precise contract against the paper's model:
//!
//! - **Delay**: a channel's rendezvous is deferred a bounded number of
//!   rounds via the [`SchedulePolicy`] deferral hook. Rounds may grow;
//!   messages, steps, and the final store must not change (asynchronous
//!   semantics tolerates any finite slowdown).
//! - **Abort**: a process is replaced by one that blocks forever on a
//!   poison channel nobody serves. The run must fail *diagnosably*: the
//!   cooperative engine's exact deadlock report names the victim.

use std::sync::Arc;
use systolic_runtime::{ChanId, ProcIrModule, ProcOp, SchedulePolicy};

/// One injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Replace process `victim` with a forever-blocked poison receive.
    Abort { victim: usize },
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

    pub fn delay(chan: ChanId, rounds: u64) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault::Delay { chan, rounds }],
        }
    }

    /// `module` with this plan's abort faults applied: each victim's ops
    /// become one `Keep` on poison channel `n_chans + victim`, which
    /// nobody serves (so even multiple aborts stay point-to-point), under
    /// the label `{label} (aborted)`, so deadlock reports stay
    /// attributable. A victim the module does not have is refused.
    pub fn apply(&self, module: &ProcIrModule) -> Result<Arc<ProcIrModule>, String> {
        let n = module.procs.len();
        let (mut ops, mut procs) = (module.ops.to_vec(), module.procs.to_vec());
        let mut n_chans = module.n_chans;
        for fault in &self.faults {
            let Fault::Abort { victim } = *fault else {
                continue;
            };
            let Some(rec) = procs.get_mut(victim) else {
                return Err(format!(
                    "abort fault names process {victim}, but the module has {n} processes"
                ));
            };
            let (at, poison) = (ops.len() as u32, module.n_chans + victim);
            ops.push(ProcOp::Keep {
                chan: poison,
                slot: 0,
            });
            n_chans = n_chans.max(poison + 1);
            rec.label.push_str(" (aborted)");
            rec.ops = (at, at + 1);
            rec.n_locals = rec.n_locals.max(1);
        }
        Ok(Arc::new(ProcIrModule {
            ops: ops.into(),
            data: module.data.clone(),
            moving: module.moving.clone(),
            points: module.points.clone(),
            procs: procs.into(),
            n_chans,
            n_outputs: module.n_outputs,
            kernel: module.kernel.clone(),
        }))
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
    use systolic_runtime::{Network, ProcIrBuilder, RunError};

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
        let mut net = Network::of(&plan.apply(module).unwrap());
        if with_delay {
            net.set_schedule_policy(Box::new(plan.delay_policy()));
        }
        let (stats, mut outputs) = net.run_with_outputs()?;
        Ok((outputs.remove(0), stats))
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
    fn multiple_aborts_block_on_distinct_poison_channels() {
        let plan = FaultPlan {
            faults: vec![Fault::Abort { victim: 0 }, Fault::Abort { victim: 1 }],
        };
        let err = Network::of(&plan.apply(&pipeline_module()).unwrap())
            .run()
            .unwrap_err();
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

    #[test]
    fn an_abort_of_a_process_the_module_lacks_is_refused() {
        let err = FaultPlan::abort(3).apply(&pipeline_module()).err();
        assert_eq!(
            err.as_deref(),
            Some("abort fault names process 3, but the module has 3 processes")
        );
        assert!(FaultPlan::abort(2).apply(&pipeline_module()).is_ok());
    }

    #[test]
    fn an_aborted_victim_keeps_its_label_and_blocks_on_its_poison_channel() {
        let module = pipeline_module();
        let faulted = FaultPlan::abort(2).apply(&module).unwrap();
        assert_eq!(faulted.label_of(2), "snk (aborted)");
        assert_eq!(faulted.n_chans, module.n_chans + 3);
        let err = Network::of(&faulted).run().unwrap_err();
        let blocked = &err.as_deadlock().unwrap().blocked;
        let expected = ["src [send@0]", "relay [send@1]", "snk (aborted) [recv@4]"];
        assert_eq!(blocked, &expected);
    }
}
