//! `warm_kernel` and `warm_scalar`: one design, one data seed, one
//! module store — every run after the first is a module hit, so the
//! executor is all that is left to measure. The two differ only in the
//! design: gallery E.1 takes the compiled kernels, the array derived for
//! `programs/matmul.sys` has only cyclic chunks and runs scalar.

use std::time::Instant;

use systolic_interp::{simulate, ModuleStore, SimSpec};
use systolic_ir::HostStore;

use crate::designs::{stores_equal, Design};
use crate::measure::{timed_loop, with_setup, Budget, Op, Outcome};

/// The latency limits: twice each workload's 99th percentile over the
/// quiet pool on the seed commit (1.0 and 1.5 ms).
pub const KERNEL_LIMIT_MS: f64 = 2.0;
pub const SCALAR_LIMIT_MS: f64 = 3.0;

/// About 120 ms of `warm_kernel` and 230 ms of `warm_scalar`.
const BLOCK_OPS: usize = 200;

pub struct Warm {
    pub design: Design,
    pub ms: ModuleStore,
    pub store: HostStore,
    pub expected: HostStore,
}

impl Warm {
    /// Compile the design, make its data and oracle, and run once so the
    /// module and every plan memoised on it are in the store.
    pub fn setup(make: fn() -> Design, seed: u64) -> Warm {
        let design = make();
        let store = design.store(seed);
        let expected = design.oracle(&store);
        let warm = Warm {
            design,
            ms: ModuleStore::new(),
            store,
            expected,
        };
        assert!(
            warm.op().ok,
            "{}: the first run does not match the sequential oracle",
            warm.design.label
        );
        warm
    }

    pub fn op(&self) -> Op {
        let d = &self.design;
        let t = Instant::now();
        let run = simulate(&self.ms, &d.plan, &d.env, &self.store, SimSpec::default());
        let ns = t.elapsed().as_nanos() as u64;
        Op {
            ns,
            ok: run.is_ok_and(|r| stores_equal(&r.store, &self.expected)),
        }
    }
}

pub fn run(make: fn() -> Design, limit_ms: f64, seed: u64, budget: Budget) -> Outcome {
    let ((ops, stats), setup_s) = with_setup(
        budget,
        || Warm::setup(make, seed),
        |warm| (timed_loop(budget, |_| warm.op()), warm.ms.stats()),
    );
    Outcome {
        setup_s,
        ops,
        block_ops: BLOCK_OPS,
        limit_ms,
        span_rate: None,
        notes: vec![
            ("module_hits".into(), stats.module_hits as f64, "count"),
            ("module_misses".into(), stats.module_misses as f64, "count"),
        ],
    }
}
