//! The virtual-process abstraction.
//!
//! Sec. 4: "systolic programs specify a set of asynchronously composed
//! processes, each one an ordinary sequential process", communicating over
//! synchronous channels, where "multiple communications may be performed
//! concurrently" (`par` of sends/receives, Appendix C).
//!
//! A [`Process`] is a coroutine driven by the scheduler: each call to
//! [`Process::step`] runs local computation and returns the next set of
//! communication requests; the set completes when every request has
//! matched, in any order; the values received (in request order) are
//! passed to the next `step`. An empty set terminates the process.
//!
//! Every elaborated process is a [`crate::ProcVm`] interpreting the flat
//! [`crate::ProcIrModule`] bytecode; the trait exists so executors stay
//! decoupled from the bytecode and tests can script ad-hoc processes.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The scalar carried on channels.
pub type Value = i64;

/// Identifies a point-to-point channel. Each channel must have exactly one
/// sending and one receiving process over the run ("the channels are
/// mutually independent", Sec. 4).
pub type ChanId = usize;

/// One communication request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommReq {
    /// Offer `value` on the channel; completes when the receiver takes it.
    Send { chan: ChanId, value: Value },
    /// Take a value from the channel; completes when a sender offers one.
    Recv { chan: ChanId },
}

impl CommReq {
    pub fn chan(&self) -> ChanId {
        match self {
            CommReq::Send { chan, .. } | CommReq::Recv { chan } => *chan,
        }
    }

    pub fn is_send(&self) -> bool {
        matches!(self, CommReq::Send { .. })
    }
}

/// A cooperative sequential process.
///
/// `step` and `step_into` are the same operation; implement **at least
/// one** (each has a default in terms of the other). Hot-path processes
/// implement `step_into` so the scheduler's steady-state rounds stay
/// allocation-free; `step` remains the convenient form for tests and
/// one-off processes.
pub trait Process: Send {
    /// Advance the process. `received` holds the values of the previous
    /// set's `Recv` requests, in request order (empty on the first call).
    /// Return the next communication set; an empty set means the process
    /// has terminated.
    fn step(&mut self, received: &[Value]) -> Vec<CommReq> {
        let mut out = Vec::new();
        self.step_into(received, &mut out);
        out
    }

    /// Allocation-free form of [`Process::step`]: append the next
    /// communication set to `out` (handed in empty, with its previous
    /// capacity intact). Leaving `out` empty terminates the process.
    fn step_into(&mut self, received: &[Value], out: &mut Vec<CommReq>) {
        out.extend(self.step(received));
    }

    /// A short label for diagnostics (deadlock reports).
    fn label(&self) -> String {
        "process".into()
    }
}

/// Shared collection buffer for host-side extraction results.
pub type SinkBuffer = Arc<Mutex<Vec<Value>>>;

/// Build a fresh sink buffer.
pub fn sink_buffer() -> SinkBuffer {
    Arc::new(Mutex::new(Vec::new()))
}

/// Enter `mutex`, poisoned or not: a holder that panicked (a worker the
/// service's pool caught unwinding, say) must not wedge every later run
/// that shares the sink or recorder behind it. Sound because every
/// critical section over them leaves the data valid at each step (a
/// push, a counter bump).
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_req_accessors() {
        let s = CommReq::Send { chan: 4, value: 9 };
        let r = CommReq::Recv { chan: 7 };
        assert_eq!(s.chan(), 4);
        assert_eq!(r.chan(), 7);
        assert!(s.is_send());
        assert!(!r.is_send());
    }

    #[test]
    fn step_defaults_delegate_both_ways() {
        struct ViaStep(usize);
        impl Process for ViaStep {
            fn step(&mut self, _received: &[Value]) -> Vec<CommReq> {
                if self.0 == 0 {
                    return vec![];
                }
                self.0 -= 1;
                vec![CommReq::Recv { chan: 1 }]
            }
        }
        let mut p = ViaStep(1);
        let mut out = Vec::new();
        p.step_into(&[], &mut out);
        assert_eq!(out, vec![CommReq::Recv { chan: 1 }]);
        out.clear();
        p.step_into(&[5], &mut out);
        assert!(out.is_empty(), "empty set terminates");
        assert_eq!(p.label(), "process");
    }

    #[test]
    fn a_poisoned_lock_is_entered_not_a_panic() {
        let buf = sink_buffer();
        let held = buf.clone();
        let unwound = std::thread::spawn(move || {
            let _guard = lock(&held);
            panic!("a holder unwinds");
        })
        .join();
        assert!(unwound.is_err() && buf.is_poisoned());
        lock(&buf).push(7);
        assert_eq!(*lock(&buf), [7]);
    }
}
