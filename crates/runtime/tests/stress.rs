//! Randomized stress tests: the cooperative scheduler and the OS-thread
//! engine (one process per group, and block partitions) must agree on
//! arbitrary relay networks lowered to ProcIR.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use systolic_runtime::{
    block_partition, lock, run_partitioned, Network, ProcIrBuilder, ProcIrModule,
};

/// Build `k` independent pipelines with the given relay counts and
/// payload lengths as one ProcIR module. Returns (module, expected values
/// per pipeline, in sink order).
fn build(specs: &[(usize, usize)]) -> (Arc<ProcIrModule>, Vec<Vec<i64>>) {
    let mut b = ProcIrBuilder::new();
    let mut expected = Vec::new();
    let mut chan = 0usize;
    for (pipe, &(relays, len)) in specs.iter().enumerate() {
        let values: Vec<i64> = (0..len as i64).map(|v| v * 7 + pipe as i64).collect();
        b.source(chan, &values, format!("src{pipe}"));
        for r in 0..relays {
            b.relay(chan, chan + 1, len, format!("r{pipe}.{r}"));
            chan += 1;
        }
        b.sink(chan, len, format!("sink{pipe}"));
        chan += 1;
        expected.push(values);
    }
    (b.build(), expected)
}

/// Case count: default, overridable via PROPTEST_CASES for deep fuzzing.
fn env_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: env_cases(32), ..ProptestConfig::default() })]

    #[test]
    fn executors_agree_on_random_pipelines(
        specs in proptest::collection::vec((0usize..6, 0usize..12), 1..6),
        workers in 1usize..5,
    ) {
        // One elaboration, one module: each executor re-instantiates it.
        let (module, expected) = build(&specs);

        // Cooperative.
        let inst = module.instantiate();
        let mut net = Network::default();
        for p in inst.procs {
            net.add(p);
        }
        net.run().unwrap();
        for (b, e) in inst.outputs.iter().zip(&expected) {
            prop_assert_eq!(&*lock(b), e);
        }

        // One OS thread per process, then `workers` threads.
        let n = module.procs.len();
        for k in [n, workers] {
            let inst = module.instantiate();
            let groups = block_partition(n, k);
            run_partitioned(inst.procs, groups, Duration::from_secs(20), Vec::new()).unwrap();
            for (b, e) in inst.outputs.iter().zip(&expected) {
                prop_assert_eq!(&*lock(b), e);
            }
        }
    }

    /// Message conservation: total messages equals sum over pipes of
    /// values x hops.
    #[test]
    fn message_conservation(
        specs in proptest::collection::vec((0usize..5, 0usize..10), 1..5),
    ) {
        let (module, _expected) = build(&specs);
        let mut net = Network::default();
        for p in module.instantiate().procs {
            net.add(p);
        }
        let stats = net.run().unwrap();
        let expect: u64 = specs.iter().map(|&(r, l)| ((r + 1) * l) as u64).sum();
        prop_assert_eq!(stats.messages, expect);
    }
}
