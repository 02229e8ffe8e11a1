//! `fresh_data`: four designs in rotation, new input data on every run,
//! one module store at its default capacity. The skeleton is a hit, the
//! module a miss, and once the store is full every insertion evicts: the
//! planning layer (instantiate, analyze, optimize, wavefront and kernel
//! plans) is paid on every operation, as it is for any request whose
//! data the system has not seen.

use std::time::Instant;

use systolic_interp::{simulate, ModuleStore, SimSpec};

use crate::designs::{self, stores_equal, Design};
use crate::measure::{rotation_notes, timed_loop, with_setup, Budget, Op, Outcome, SplitMix64};

/// The oracle costs 7–25 runs, so it checks one operation in this many.
pub const CHECK_EVERY: u64 = 16;

/// Data seeds of consecutive operations lie this far apart, because
/// `Design::store` seeds the i-th input with `seed + i`.
const SEED_STRIDE: u64 = 16;

/// The latency limit: twice the 99th percentile over the quiet pool on
/// the seed commit (4.5 ms).
const LIMIT_MS: f64 = 10.0;

/// Twelve rotations of the four designs, about 150 ms.
const BLOCK_OPS: usize = 48;

pub struct Fresh {
    pub designs: Vec<Design>,
    pub ms: ModuleStore,
    base_seed: u64,
}

impl Fresh {
    pub fn setup(seed: u64) -> Fresh {
        let designs = vec![
            designs::e1_n24(),
            designs::mmsys_n24(),
            designs::e2_n16(),
            designs::d2_n64(),
        ];
        let ms = ModuleStore::new();
        let base_seed = SplitMix64::new(seed).next_u64();
        // One run per design on set-up-only data builds the skeletons,
        // so the timed runs start from "skeleton warm, module cold".
        for d in &designs {
            let store = d.store(base_seed.wrapping_sub(SEED_STRIDE));
            let run = simulate(&ms, &d.plan, &d.env, &store, SimSpec::default());
            assert!(
                run.is_ok_and(|r| stores_equal(&r.store, &d.oracle(&store))),
                "{}: the first run does not match the sequential oracle",
                d.label
            );
        }
        Fresh {
            designs,
            ms,
            base_seed,
        }
    }

    pub fn design(&self, i: u64) -> &Design {
        &self.designs[(i % self.designs.len() as u64) as usize]
    }

    pub fn data_seed(&self, i: u64) -> u64 {
        self.base_seed.wrapping_add(i.wrapping_mul(SEED_STRIDE))
    }

    /// Whether operation `i` is in the oracle-checked sample: one per
    /// block of `CHECK_EVERY`, at an offset that walks through the
    /// rotation so every design is checked.
    pub fn checked(&self, i: u64) -> bool {
        i % CHECK_EVERY == (i / CHECK_EVERY) % self.designs.len() as u64
    }

    pub fn op(&self, i: u64) -> Op {
        let d = self.design(i);
        let store = d.store(self.data_seed(i));
        let t = Instant::now();
        let run = simulate(&self.ms, &d.plan, &d.env, &store, SimSpec::default());
        let ns = t.elapsed().as_nanos() as u64;
        let ok = match run {
            Err(_) => false,
            Ok(r) => !self.checked(i) || stores_equal(&r.store, &d.oracle(&store)),
        };
        Op { ns, ok }
    }
}

pub fn run(seed: u64, budget: Budget) -> Outcome {
    let ((ops, notes), setup_s) = with_setup(
        budget,
        || Fresh::setup(seed),
        |fresh| {
            let before = fresh.ms.stats();
            let ops = timed_loop(budget, |i| fresh.op(i));
            let after = fresh.ms.stats();
            let checked = (0..ops.len() as u64).filter(|&i| fresh.checked(i)).count();
            let labels: Vec<&str> = fresh.designs.iter().map(|d| d.label).collect();
            let mut notes = rotation_notes(&ops, &labels);
            notes.extend([
                ("oracle_checked".into(), checked as f64, "count"),
                (
                    "module_misses".into(),
                    (after.module_misses - before.module_misses) as f64,
                    "count",
                ),
                (
                    "module_evictions".into(),
                    (after.module_evictions - before.module_evictions) as f64,
                    "count",
                ),
            ]);
            (ops, notes)
        },
    );
    Outcome {
        setup_s,
        ops,
        block_ops: BLOCK_OPS,
        limit_ms: LIMIT_MS,
        span_rate: None,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checked_sample_is_one_in_sixteen_and_reaches_every_design() {
        let fresh = Fresh {
            designs: vec![
                Design::gallery("a", "D.1", &[2]),
                Design::gallery("b", "D.2", &[2]),
                Design::gallery("c", "E.1", &[2]),
                Design::gallery("d", "E.2", &[2]),
            ],
            ms: ModuleStore::new(),
            base_seed: 1,
        };
        let checked: Vec<u64> = (0..640).filter(|&i| fresh.checked(i)).collect();
        assert_eq!(checked.len(), 40);
        for label in ["a", "b", "c", "d"] {
            let n = checked
                .iter()
                .filter(|&&i| fresh.design(i).label == label)
                .count();
            assert_eq!(n, 10, "{label}");
        }
        // New data every operation: no two seeds in a run collide.
        assert_ne!(fresh.data_seed(0), fresh.data_seed(1));
        assert!(fresh.op(0).ok && fresh.op(1).ok);
        assert_eq!(fresh.ms.stats().module_hits, 0);
    }
}
