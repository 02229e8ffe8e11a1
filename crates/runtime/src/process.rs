//! The channel vocabulary.
//!
//! Sec. 4: "systolic programs specify a set of asynchronously composed
//! processes, each one an ordinary sequential process", communicating over
//! synchronous channels, where "multiple communications may be performed
//! concurrently" (`par` of sends/receives, Appendix C).
//!
//! Every process is a [`crate::ProcIrModule`] process, stepped by the one
//! op step (`crate::step`). On the rendezvous engine (`crate::coop`) a
//! step ends blocked on a set of [`CommReq`]s; the set completes when
//! every request has matched, in any order, and the values received (in
//! request order) are what the next step consumes. A step that blocks on
//! nothing has terminated the process.

use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Enter `mutex`, poisoned or not: a holder that panicked (a worker the
/// service's pool caught unwinding, say) must not wedge every later run
/// that shares the recorder or cache behind it. Sound because every
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
    fn a_poisoned_lock_is_entered_not_a_panic() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::new()));
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
