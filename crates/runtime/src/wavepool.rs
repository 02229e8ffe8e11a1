//! The persistent wave-worker pool.
//!
//! `run_wavefront`'s parallel mode used to open a fresh
//! `std::thread::scope` per run — fine for a one-shot CLI run, but the
//! multi-tenant service executes thousands of warm requests per second,
//! and OS thread spawn/join on every one of them dominated the parallel
//! path's cost. This module keeps one process-wide pool of workers
//! ([`WavePool::global`]) that every wavefront run shares; a run submits
//! its wave's chunk tasks as a *scope* and blocks until all of them
//! retire, recovering the exact join-barrier semantics of
//! `thread::scope` without the per-run spawn.
//!
//! Only `std::sync` primitives are used (no crossbeam in the tree): a
//! mutex-guarded injector queue with a condvar for the workers, and a
//! per-scope latch for the caller. Borrowed (non-`'static`) tasks are
//! transmuted to `'static` before they enter the queue — sound because
//! [`WavePool::scope`] does not return until the latch counts every
//! task done, so no borrow outlives the call (the same argument
//! `thread::scope` makes). A panicking task is caught, counted, and
//! re-raised in the submitting thread once the scope completes, again
//! matching the scoped-thread contract.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

struct ScopeState {
    left: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// A fixed set of worker threads executing submitted task scopes. One
/// global instance serves every wavefront run; tests may build private
/// pools (dropped pools shut their workers down).
pub struct WavePool {
    shared: Arc<Shared>,
    workers: usize,
    /// Worker threads ever spawned by this pool — constant after
    /// construction; the warm-run regression pins exactly that.
    threads_spawned: AtomicU64,
    /// Tasks retired over the pool's lifetime.
    tasks_executed: Arc<AtomicU64>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WavePool {
    /// A pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> WavePool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let tasks_executed = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("wave-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn wave worker")
            })
            .collect();
        WavePool {
            shared,
            workers,
            threads_spawned: AtomicU64::new(workers as u64),
            tasks_executed,
            handles,
        }
    }

    /// The process-wide pool, sized to the machine, spawned on first
    /// use and kept for the life of the process.
    pub fn global() -> &'static WavePool {
        static GLOBAL: OnceLock<WavePool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            WavePool::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        })
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Worker threads spawned over the pool's lifetime. For the global
    /// pool this is paid exactly once — repeated warm runs must not move
    /// it, which the wavefront regression test asserts.
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned.load(Ordering::Relaxed)
    }

    /// Tasks retired over the pool's lifetime. A task is counted before
    /// its scope is released, so once [`WavePool::scope`] returns the
    /// count includes every task of that scope.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks_executed.load(Ordering::Relaxed)
    }

    /// Run the borrowed tasks on the pool and block until all complete
    /// — the `thread::scope` replacement. Panics in tasks are re-raised
    /// here after the scope fully drains.
    pub fn scope<'s>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 's>>) {
        if tasks.is_empty() {
            return;
        }
        let latch = Arc::new((
            Mutex::new(ScopeState {
                left: tasks.len(),
                panic: None,
            }),
            Condvar::new(),
            self.tasks_executed.clone(),
        ));
        {
            let mut q = self.shared.queue.lock().unwrap();
            for task in tasks {
                // SAFETY: the wait below blocks this call until the
                // latch has counted every task done, so no borrow in
                // `task` outlives the scope (see module docs).
                let task: Task = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 's>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(task)
                };
                let latch = latch.clone();
                q.tasks.push_back(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task));
                    let (state, cv, done) = &*latch;
                    done.fetch_add(1, Ordering::Relaxed);
                    let mut s = state.lock().unwrap();
                    s.left -= 1;
                    if let Err(p) = result {
                        s.panic.get_or_insert(p);
                    }
                    if s.left == 0 {
                        cv.notify_all();
                    }
                }));
            }
            self.shared.available.notify_all();
        }
        let (state, cv, _) = &*latch;
        let mut s = state.lock().unwrap();
        while s.left > 0 {
            s = cv.wait(s).unwrap();
        }
        if let Some(p) = s.panic.take() {
            drop(s);
            resume_unwind(p);
        }
    }
}

impl Drop for WavePool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_borrowed_tasks_to_completion() {
        let pool = WavePool::new(4);
        let mut cells = [0u64; 16];
        let hits = AtomicUsize::new(0);
        {
            let hits = &hits;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = cells
                .iter_mut()
                .map(|c| {
                    Box::new(move || {
                        *c += 7;
                        hits.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope(tasks);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        assert!(cells.iter().all(|&c| c == 7));
        assert_eq!(pool.tasks_executed(), 16);
        assert_eq!(pool.threads_spawned(), 4);
    }

    #[test]
    fn scopes_reuse_the_same_workers() {
        let pool = WavePool::new(2);
        for _ in 0..8 {
            let mut acc = 0u64;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                vec![Box::new(|| acc = 1) as Box<dyn FnOnce() + Send + '_>];
            pool.scope(tasks);
            assert_eq!(acc, 1);
        }
        assert_eq!(pool.threads_spawned(), 2, "no per-scope spawn");
        assert_eq!(pool.tasks_executed(), 8);
    }

    #[test]
    fn a_panicking_task_is_reraised_after_the_scope_drains() {
        let pool = WavePool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("lane exploded")) as Box<dyn FnOnce() + Send + '_>,
                Box::new(|| ()) as Box<dyn FnOnce() + Send + '_>,
            ];
            pool.scope(tasks);
        }));
        let msg = err.unwrap_err();
        let msg = msg.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("lane exploded"), "{msg:?}");
        // The pool survives the panic and keeps serving scopes.
        let mut ok = false;
        pool.scope(vec![Box::new(|| ok = true) as Box<dyn FnOnce() + Send + '_>]);
        assert!(ok);
    }
}
