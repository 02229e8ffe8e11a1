//! Schedule policies: pluggable interleaving decisions for the
//! cooperative engine.
//!
//! Generated systolic programs must compute the same result under *any*
//! asynchronous interleaving that honours channel rendezvous (the Sec. 4
//! schedule-independence argument). The cooperative scheduler normally
//! picks one canonical interleaving — ascending channel order within a
//! round, ascending process order at the round boundary (see
//! `docs/scheduler.md`). A [`SchedulePolicy`] lets a test harness pick
//! *other* legal interleavings deterministically: the engine hands the
//! policy each round's candidate lists and fires in whatever order the
//! policy returns. The `systolic-sim` crate builds its adversarial
//! schedule exploration on this hook; see `docs/testing.md`.
//!
//! Two invariants keep the hook zero-cost and safe:
//!
//! - **No policy, no cost.** `Network` holds an `Option<Box<dyn
//!   SchedulePolicy>>` that is `None` by default; the round path tests
//!   one discriminant and otherwise runs the historical code unchanged.
//!   [`FifoPolicy`] (the explicit identity policy) is pinned bit-identical
//!   to the unhooked engine by the goldens of `tests/matrix.rs`.
//! - **Permutations only, deferral bounded.** A policy may reorder a
//!   round's candidates and may *defer* some of them to the next round
//!   (modelling bounded rendezvous delays), but it must not invent or
//!   drop channels, and it must not defer forever — the engine converts
//!   unbounded starvation into a deadlock report after
//!   [`STARVATION_LIMIT`] consecutive zero-transfer rounds.

use crate::process::ChanId;

/// How many consecutive rounds a policy may defer *every* enabled
/// rendezvous before the engine gives up and reports the deadlock it is
/// being starved into. Generous: real delay faults defer single channels
/// for a handful of rounds.
pub const STARVATION_LIMIT: u64 = 4096;

/// A schedule decision procedure for the cooperative engine. Attached
/// with `Network::set_schedule_policy`; called once per round at the two
/// points where the engine's canonical order is otherwise arbitrary.
///
/// Both hooks receive their list sorted ascending (the canonical FIFO
/// order), so a policy is a pure function of its inputs and the round
/// number — replaying the same policy against the same network is
/// deterministic by construction.
pub trait SchedulePolicy: Send {
    /// Decide this round's firing order. `fire` holds the channels whose
    /// rendezvous are enabled at the start of the round, sorted
    /// ascending; every channel left in `fire` completes this round, in
    /// the order given. Channels moved into `defer` stay parked and
    /// re-enter the candidate list next round (a bounded rendezvous
    /// delay). The policy must neither add nor drop channels — the union
    /// of `fire` and `defer` must be a permutation of the input.
    fn schedule_round(&mut self, round: u64, fire: &mut Vec<ChanId>, defer: &mut Vec<ChanId>);

    /// Decide the order in which processes whose communication sets
    /// completed this round are re-stepped. `ready` arrives sorted
    /// ascending; the policy may permute it freely (it must remain a
    /// permutation).
    fn order_ready(&mut self, round: u64, ready: &mut Vec<usize>) {
        let _ = (round, ready);
    }

    /// A short human-readable name for reports and schedule files.
    fn label(&self) -> String {
        "policy".into()
    }

    /// Whether this policy is observationally the canonical FIFO order
    /// (fires everything, defers nothing, never permutes). The batching
    /// fast path (`crate::batch`) only engages when this returns `true` —
    /// macro-stepping collapses the round structure the policy would
    /// otherwise get to reorder, so any policy that actually exercises its
    /// hooks must keep the unbatched engine. Defaults to `false`; only
    /// identity policies should override it.
    fn is_fifo(&self) -> bool {
        false
    }
}

/// The explicit identity policy: fires channels in ascending order,
/// re-steps processes in ascending order, defers nothing — bit-identical
/// to running with no policy attached (pinned by `tests/matrix.rs`).
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoPolicy;

impl SchedulePolicy for FifoPolicy {
    fn schedule_round(&mut self, _round: u64, _fire: &mut Vec<ChanId>, _defer: &mut Vec<ChanId>) {}

    fn label(&self) -> String {
        "fifo".into()
    }

    fn is_fifo(&self) -> bool {
        true
    }
}

/// A small permuted-congruential generator (PCG-XSH-RR 64/32,
/// O'Neill 2014). The schedule harness must be reproducible from a bare
/// seed with no `std`/external RNG dependency, and this is the standard
/// tiny generator for that job: 128 bits of state, excellent equidistribution
/// for test-input purposes, and a two-line advance.
#[derive(Clone, Debug)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Seed the generator; `stream` selects one of 2^63 independent
    /// sequences (used to decorrelate per-process/per-worker streams
    /// derived from one run seed).
    pub fn new(seed: u64, stream: u64) -> Pcg32 {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Uniform-ish value in `[0, n)`. Modulo bias is irrelevant at
    /// schedule-exploration scales.
    pub fn below(&mut self, n: u32) -> u32 {
        debug_assert!(n > 0);
        self.next_u32() % n
    }

    /// Fisher–Yates shuffle driven by this generator.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcg_is_deterministic_and_stream_separated() {
        let a: Vec<u32> = {
            let mut r = Pcg32::new(42, 1);
            (0..8).map(|_| r.next_u32()).collect()
        };
        let b: Vec<u32> = {
            let mut r = Pcg32::new(42, 1);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_eq!(a, b, "same seed+stream, same sequence");
        let c: Vec<u32> = {
            let mut r = Pcg32::new(42, 2);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_ne!(a, c, "different streams differ");
    }

    #[test]
    fn pcg_matches_reference_vector() {
        // PCG-XSH-RR 64/32 with seed=42, stream=54: the reference
        // `pcg32_srandom_r(42, 54)` sequence from the PCG paper's demo.
        let mut r = Pcg32::new(42, 54);
        let got: Vec<u32> = (0..6).map(|_| r.next_u32()).collect();
        assert_eq!(
            got,
            vec![
                0xa15c_02b7,
                0x7b47_f409,
                0xba1d_3330,
                0x83d2_f293,
                0xbfa4_784b,
                0xcbed_606e
            ]
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::new(7, 0);
        let mut xs: Vec<u32> = (0..40).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "40 elements almost surely move");
    }

    #[test]
    fn fifo_policy_is_the_identity() {
        let mut p = FifoPolicy;
        let mut fire = vec![0usize, 3, 5];
        let mut defer = Vec::new();
        p.schedule_round(9, &mut fire, &mut defer);
        assert_eq!(fire, vec![0, 3, 5]);
        assert!(defer.is_empty());
        let mut ready = vec![1usize, 2];
        p.order_ready(9, &mut ready);
        assert_eq!(ready, vec![1, 2]);
        assert_eq!(p.label(), "fifo");
        assert!(p.is_fifo(), "FIFO identity must admit batching");
    }
}
