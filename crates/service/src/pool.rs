//! The bounded worker pool every simulation runs on: fixed worker
//! threads fed by a `sync_channel` whose capacity is the explicit
//! backpressure queue. `try_send` on a full queue is an immediate
//! overload rejection (HTTP 429) — the pool never buffers unboundedly
//! and never blocks the accept path.
//!
//! Isolation contract: each job runs under `catch_unwind`, so a
//! panicking request degrades to a structured 500 for that one caller
//! while the worker thread survives for the next job. Panic payloads
//! are counted and *dropped* — raw panic text never crosses the wire.
//!
//! Deadline contract: the submitting caller waits on the job's reply
//! channel with `recv_timeout`. An expired deadline yields a structured
//! 504 immediately; the worker is not cancelled (the cooperative engine
//! has no preemption points) but its eventual result is discarded and
//! the in-flight gauge still drains.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::api::ApiError;

/// A finished job: HTTP status plus body.
pub type JobResult = (u16, String);

type Job = Box<dyn FnOnce() -> JobResult + Send + 'static>;

/// Monotone pool counters, exposed on `/stats`.
#[derive(Default)]
pub struct PoolStats {
    pub submitted: AtomicU64,
    pub rejected: AtomicU64,
    pub completed: AtomicU64,
    pub panics: AtomicU64,
    pub deadline_expired: AtomicU64,
    pub in_flight: AtomicU64,
    pub max_in_flight: AtomicU64,
}

impl PoolStats {
    fn enter(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_in_flight.fetch_max(now, Ordering::SeqCst);
    }

    fn exit(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The pool: `workers` threads over a `queue_cap`-deep submission
/// queue.
pub struct Pool {
    tx: SyncSender<(Job, std::sync::mpsc::SyncSender<JobResult>)>,
    pub stats: Arc<PoolStats>,
    workers: Vec<JoinHandle<()>>,
    pub queue_cap: usize,
    pub n_workers: usize,
}

impl Pool {
    pub fn new(workers: usize, queue_cap: usize) -> Pool {
        let workers = workers.max(1);
        let queue_cap = queue_cap.max(1);
        let (tx, rx) = sync_channel::<(Job, std::sync::mpsc::SyncSender<JobResult>)>(queue_cap);
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let stats = Arc::new(PoolStats::default());
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("sim-worker-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = rx.lock().unwrap();
                            guard.recv()
                        };
                        let Ok((job, reply)) = job else { return };
                        stats.enter();
                        let result = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|_| {
                            // The payload is deliberately dropped: the
                            // wire sees a structured 500, never the
                            // panic text.
                            stats.panics.fetch_add(1, Ordering::SeqCst);
                            let e = ApiError {
                                status: 500,
                                kind: "panic",
                                message: "worker panicked while serving the request".into(),
                                offenders: vec![format!("sim-worker-{i}")],
                            };
                            (e.status, e.to_json())
                        });
                        stats.completed.fetch_add(1, Ordering::SeqCst);
                        stats.exit();
                        // The caller may have given up on its deadline;
                        // a closed reply channel is not an error.
                        let _ = reply.send(result);
                    })
                    .expect("spawn sim worker")
            })
            .collect();
        Pool {
            tx,
            stats,
            workers: handles,
            queue_cap,
            n_workers: workers,
        }
    }

    /// Submit a job and wait up to `deadline` for its result.
    /// Full queue → 429 immediately; expired deadline → 504 immediately
    /// (the job may still complete; its result is discarded).
    pub fn run(&self, deadline: Duration, deadline_ms: u64, job: Job) -> JobResult {
        match self.submit(job) {
            Err(e) => (e.status, e.to_json()),
            Ok(rx) => match rx.recv_timeout(deadline) {
                Ok(r) => r,
                Err(RecvTimeoutError::Timeout) => {
                    self.stats.deadline_expired.fetch_add(1, Ordering::SeqCst);
                    let e = ApiError::deadline(deadline_ms);
                    (e.status, e.to_json())
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let e = ApiError::internal("worker pool shut down mid-request");
                    (e.status, e.to_json())
                }
            },
        }
    }

    /// Enqueue without waiting; the receiver resolves when a worker
    /// finishes.
    pub fn submit(&self, job: Job) -> Result<Receiver<JobResult>, ApiError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.stats.submitted.fetch_add(1, Ordering::SeqCst);
        match self.tx.try_send((job, reply_tx)) {
            Ok(()) => Ok(reply_rx),
            Err(TrySendError::Full(_)) => {
                self.stats.rejected.fetch_add(1, Ordering::SeqCst);
                Err(ApiError::overloaded(self.queue_cap))
            }
            Err(TrySendError::Disconnected(_)) => Err(ApiError::internal("worker pool shut down")),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing the submission channel lets every worker's `recv`
        // return Err and the thread exit.
        let (dead_tx, _) = sync_channel(1);
        drop(std::mem::replace(&mut self.tx, dead_tx));
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_degrades_to_a_structured_500_and_the_worker_survives() {
        let pool = Pool::new(1, 4);
        let (status, body) = pool.run(
            Duration::from_secs(5),
            5000,
            Box::new(|| panic!("secret internal detail")),
        );
        assert_eq!(status, 500);
        assert!(body.contains("\"kind\":\"panic\""), "{body}");
        assert!(
            !body.contains("secret internal detail"),
            "panic text must never cross the wire: {body}"
        );
        // Same worker still serves the next request.
        let (status, body) = pool.run(
            Duration::from_secs(5),
            5000,
            Box::new(|| (200, "ok".into())),
        );
        assert_eq!((status, body.as_str()), (200, "ok"));
        assert_eq!(pool.stats.panics.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_full_queue_rejects_with_429() {
        let pool = Pool::new(1, 1);
        // Occupy the single worker and fill the single queue slot.
        let (gate_tx, gate_rx) = sync_channel::<()>(0);
        let slow = pool
            .submit(Box::new(move || {
                let _ = gate_rx.recv();
                (200, "slow".into())
            }))
            .unwrap();
        // Wait until the worker has actually dequeued the slow job so
        // the queue slot is free again, then fill it.
        while pool.stats.in_flight.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let _queued = pool.submit(Box::new(|| (200, "queued".into()))).unwrap();
        let overflow = pool.submit(Box::new(|| (200, "never".into())));
        let e = overflow.unwrap_err();
        assert_eq!((e.status, e.kind), (429, "overloaded"));
        assert_eq!(pool.stats.rejected.load(Ordering::SeqCst), 1);
        gate_tx.send(()).unwrap();
        assert_eq!(slow.recv().unwrap().1, "slow");
    }

    #[test]
    fn an_expired_deadline_returns_504_and_the_gauge_drains() {
        let pool = Pool::new(1, 2);
        let (status, body) = pool.run(
            Duration::from_millis(20),
            20,
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(200));
                (200, "late".into())
            }),
        );
        assert_eq!(status, 504);
        assert!(body.contains("\"kind\":\"timeout\""), "{body}");
        assert!(body.contains("\"request\""), "{body}");
        // The worker eventually finishes and the in-flight gauge drains
        // even though the caller is long gone.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats.in_flight.load(Ordering::SeqCst) != 0 {
            assert!(std::time::Instant::now() < deadline, "gauge never drained");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.stats.deadline_expired.load(Ordering::SeqCst), 1);
    }
}
