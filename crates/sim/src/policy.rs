//! The adversarial schedule policies, and the record/replay pair that
//! turns any of them into a serializable, shrinkable decision log.
//!
//! Every policy here is a *pure permutation* of the engine's candidate
//! lists: none defers, so a network that satisfies the paper's
//! schedule-independence theorem (Sec. 4) must produce bit-identical
//! stores **and** bit-identical `RunStats` under all of them. Bounded
//! deferral (the delay fault) lives in [`crate::fault`], where the
//! invariant is weaker: rounds may grow, messages/steps/stores may not.

use std::sync::{Arc, Mutex};
use systolic_runtime::{lock, ChanId, FifoPolicy, Pcg32, SchedulePolicy};

/// PCG stream selectors: the channel-order and process-order decisions of
/// one seed must be decorrelated, so each hook draws from its own stream.
const STREAM_FIRE: u64 = 0x5eed_f17e;
const STREAM_READY: u64 = 0x5eed_4ead;

/// Fisher–Yates-shuffles both candidate lists each round from a seeded
/// PCG pair: the plain adversary of the seed matrix.
pub struct RandomPolicy {
    seed: u64,
    fire_rng: Pcg32,
    ready_rng: Pcg32,
}

impl RandomPolicy {
    pub fn new(seed: u64) -> RandomPolicy {
        RandomPolicy {
            seed,
            fire_rng: Pcg32::new(seed, STREAM_FIRE),
            ready_rng: Pcg32::new(seed, STREAM_READY),
        }
    }
}

impl SchedulePolicy for RandomPolicy {
    fn schedule_round(&mut self, _round: u64, fire: &mut Vec<ChanId>, _defer: &mut Vec<ChanId>) {
        self.fire_rng.shuffle(fire);
    }

    fn order_ready(&mut self, _round: u64, ready: &mut Vec<usize>) {
        self.ready_rng.shuffle(ready);
    }

    fn label(&self) -> String {
        format!("random:{}", self.seed)
    }
}

/// Reverses both candidate lists: the exact mirror of the canonical FIFO
/// order, and the cheapest interleaving that is maximally unlike it.
#[derive(Clone, Copy, Debug, Default)]
pub struct LifoPolicy;

impl SchedulePolicy for LifoPolicy {
    fn schedule_round(&mut self, _round: u64, fire: &mut Vec<ChanId>, _defer: &mut Vec<ChanId>) {
        fire.reverse();
    }

    fn order_ready(&mut self, _round: u64, ready: &mut Vec<usize>) {
        ready.reverse();
    }

    fn label(&self) -> String {
        "lifo".into()
    }
}

/// A structured adversary distinct from both shuffling and mirroring:
/// rotates the firing order by a seed- and round-dependent amount (so the
/// "highest-priority" channel keeps losing its turn) and reverses the
/// ready order. Catches code that accidentally depends on *who goes
/// first* rather than on any particular permutation.
pub struct PriorityInversionPolicy {
    seed: u64,
}

impl PriorityInversionPolicy {
    pub fn new(seed: u64) -> PriorityInversionPolicy {
        PriorityInversionPolicy { seed }
    }
}

impl SchedulePolicy for PriorityInversionPolicy {
    fn schedule_round(&mut self, round: u64, fire: &mut Vec<ChanId>, _defer: &mut Vec<ChanId>) {
        if fire.len() > 1 {
            let k = ((round.wrapping_add(self.seed)) % fire.len() as u64) as usize;
            fire.rotate_left(k);
        }
    }

    fn order_ready(&mut self, _round: u64, ready: &mut Vec<usize>) {
        ready.reverse();
    }

    fn label(&self) -> String {
        format!("prio-inv:{}", self.seed)
    }
}

/// The policy matrix the explorer sweeps; `fifo` is the identity anchor.
pub const POLICY_NAMES: [&str; 4] = ["fifo", "random", "lifo", "prio-inv"];

/// Construct a policy by name. Unknown names return `None` so callers
/// (CLI, schedule files) can diagnose instead of panicking.
pub fn policy_by_name(name: &str, seed: u64) -> Option<Box<dyn SchedulePolicy>> {
    match name {
        "fifo" => Some(Box::new(FifoPolicy)),
        "random" => Some(Box::new(RandomPolicy::new(seed))),
        "lifo" => Some(Box::new(LifoPolicy)),
        "prio-inv" => Some(Box::new(PriorityInversionPolicy::new(seed))),
        _ => None,
    }
}

/// One round's recorded decisions: the exact orders the policy returned.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleRound {
    pub round: u64,
    /// Channel firing order after the policy's permutation.
    pub fire: Vec<ChanId>,
    /// Channels the policy deferred to the next round.
    pub defer: Vec<ChanId>,
    /// Process re-step order after the policy's permutation.
    pub ready: Vec<usize>,
}

/// The complete decision log of one run: replaying it against the same
/// network reproduces the same trajectory (both hooks are pure functions
/// of the candidate list and the round number).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleLog {
    pub rounds: Vec<ScheduleRound>,
}

/// Shared handle to a log still being written by a [`RecordingPolicy`]
/// that the network owns.
pub type SharedLog = Arc<Mutex<ScheduleLog>>;

/// Wraps any policy and records every decision it makes into a shared
/// [`ScheduleLog`] — the raw material for shrinking and replay.
pub struct RecordingPolicy {
    inner: Box<dyn SchedulePolicy>,
    log: SharedLog,
}

impl RecordingPolicy {
    /// Wrap `inner`; the returned handle stays readable after the network
    /// consumes the boxed policy.
    pub fn new(inner: Box<dyn SchedulePolicy>) -> (RecordingPolicy, SharedLog) {
        let log = Arc::new(Mutex::new(ScheduleLog::default()));
        (
            RecordingPolicy {
                inner,
                log: log.clone(),
            },
            log,
        )
    }
}

impl SchedulePolicy for RecordingPolicy {
    fn schedule_round(&mut self, round: u64, fire: &mut Vec<ChanId>, defer: &mut Vec<ChanId>) {
        self.inner.schedule_round(round, fire, defer);
        lock(&self.log).rounds.push(ScheduleRound {
            round,
            fire: fire.clone(),
            defer: defer.clone(),
            ready: Vec::new(),
        });
    }

    fn order_ready(&mut self, round: u64, ready: &mut Vec<usize>) {
        self.inner.order_ready(round, ready);
        let mut log = lock(&self.log);
        if let Some(r) = log.rounds.iter_mut().rev().find(|r| r.round == round) {
            r.ready = ready.clone();
        }
    }

    fn label(&self) -> String {
        format!("recording({})", self.inner.label())
    }
}

/// Reorder `actual` to follow `recorded`: recorded entries that are
/// present come first in recorded order, everything unrecorded keeps its
/// canonical ascending order after them. Tolerant by construction — a
/// truncated or hand-edited log still yields a legal permutation.
fn apply_order(recorded: &[usize], actual: &mut Vec<usize>) {
    if recorded.is_empty() || actual.is_empty() {
        return;
    }
    // `actual` arrives sorted ascending (engine contract).
    let canonical = std::mem::take(actual);
    let mut used = vec![false; canonical.len()];
    for &r in recorded {
        if let Ok(i) = canonical.binary_search(&r) {
            if !used[i] {
                used[i] = true;
                actual.push(r);
            }
        }
    }
    for (i, &v) in canonical.iter().enumerate() {
        if !used[i] {
            actual.push(v);
        }
    }
}

/// Replays a [`ScheduleLog`]: each round applies the recorded firing
/// order, deferral set, and ready order; past the end of the log (the
/// shrunk case) it degrades to pure FIFO. Replaying a full log recorded
/// from policy P against the same network reproduces P's trajectory
/// decision for decision.
pub struct ReplayPolicy {
    log: ScheduleLog,
    cursor: usize,
}

impl ReplayPolicy {
    pub fn new(log: ScheduleLog) -> ReplayPolicy {
        ReplayPolicy { log, cursor: 0 }
    }

    /// The recorded entry for `round`, if any. Rounds are logged in
    /// increasing order, so a cursor walk suffices.
    fn entry(&mut self, round: u64) -> Option<&ScheduleRound> {
        while self.cursor < self.log.rounds.len() && self.log.rounds[self.cursor].round < round {
            self.cursor += 1;
        }
        match self.log.rounds.get(self.cursor) {
            Some(r) if r.round == round => Some(r),
            _ => None,
        }
    }
}

impl SchedulePolicy for ReplayPolicy {
    fn schedule_round(&mut self, round: u64, fire: &mut Vec<ChanId>, defer: &mut Vec<ChanId>) {
        let Some(entry) = self.entry(round) else {
            return; // beyond the (shrunk) log: FIFO
        };
        let rec_fire = entry.fire.clone();
        let rec_defer = entry.defer.clone();
        if !rec_defer.is_empty() {
            fire.retain(|c| {
                if rec_defer.contains(c) {
                    defer.push(*c);
                    false
                } else {
                    true
                }
            });
        }
        apply_order(&rec_fire, fire);
    }

    fn order_ready(&mut self, round: u64, ready: &mut Vec<usize>) {
        let Some(entry) = self.entry(round) else {
            return;
        };
        let rec = entry.ready.clone();
        apply_order(&rec, ready);
    }

    fn label(&self) -> String {
        format!("replay[{} rounds]", self.log.rounds.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_yields_a_permutation() {
        for name in POLICY_NAMES {
            let mut p = policy_by_name(name, 9).unwrap();
            let mut fire: Vec<usize> = (0..17).collect();
            let mut defer = Vec::new();
            p.schedule_round(3, &mut fire, &mut defer);
            fire.extend(defer);
            fire.sort_unstable();
            assert_eq!(fire, (0..17).collect::<Vec<_>>(), "{name} fire");
            let mut ready: Vec<usize> = (0..11).collect();
            p.order_ready(3, &mut ready);
            ready.sort_unstable();
            assert_eq!(ready, (0..11).collect::<Vec<_>>(), "{name} ready");
        }
        assert!(policy_by_name("nope", 0).is_none());
    }

    #[test]
    fn random_policy_is_reproducible_from_its_seed() {
        let run = |seed: u64| {
            let mut p = RandomPolicy::new(seed);
            let mut orders = Vec::new();
            for round in 0..6 {
                let mut fire: Vec<usize> = (0..9).collect();
                let mut defer = Vec::new();
                p.schedule_round(round, &mut fire, &mut defer);
                orders.push(fire);
            }
            orders
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn recording_then_replaying_reproduces_the_orders() {
        let (mut rec, log) = RecordingPolicy::new(Box::new(RandomPolicy::new(77)));
        let mut recorded_orders = Vec::new();
        for round in 0..5 {
            let mut fire: Vec<usize> = (0..8).collect();
            let mut defer = Vec::new();
            rec.schedule_round(round, &mut fire, &mut defer);
            let mut ready: Vec<usize> = (0..4).collect();
            rec.order_ready(round, &mut ready);
            recorded_orders.push((fire, ready));
        }
        let mut replay = ReplayPolicy::new(lock(&log).clone());
        for (round, (want_fire, want_ready)) in recorded_orders.iter().enumerate() {
            let mut fire: Vec<usize> = (0..8).collect();
            let mut defer = Vec::new();
            replay.schedule_round(round as u64, &mut fire, &mut defer);
            assert_eq!(&fire, want_fire, "round {round}");
            let mut ready: Vec<usize> = (0..4).collect();
            replay.order_ready(round as u64, &mut ready);
            assert_eq!(&ready, want_ready, "round {round}");
        }
    }

    #[test]
    fn replay_beyond_the_log_is_fifo_and_tolerates_foreign_candidates() {
        let log = ScheduleLog {
            rounds: vec![ScheduleRound {
                round: 0,
                fire: vec![5, 3],
                defer: vec![],
                ready: vec![],
            }],
        };
        let mut replay = ReplayPolicy::new(log);
        // Candidates the log never saw keep ascending order after the
        // recorded prefix.
        let mut fire = vec![1usize, 3, 4, 5];
        let mut defer = Vec::new();
        replay.schedule_round(0, &mut fire, &mut defer);
        assert_eq!(fire, vec![5, 3, 1, 4]);
        // Past the log: identity.
        let mut fire = vec![2usize, 6];
        replay.schedule_round(1, &mut fire, &mut defer);
        assert_eq!(fire, vec![2, 6]);
        assert!(defer.is_empty());
    }

    #[test]
    fn replay_applies_recorded_deferrals() {
        let log = ScheduleLog {
            rounds: vec![ScheduleRound {
                round: 2,
                fire: vec![0],
                defer: vec![7],
                ready: vec![],
            }],
        };
        let mut replay = ReplayPolicy::new(log);
        let mut fire = vec![0usize, 7];
        let mut defer = Vec::new();
        replay.schedule_round(2, &mut fire, &mut defer);
        assert_eq!(fire, vec![0]);
        assert_eq!(defer, vec![7]);
    }
}
