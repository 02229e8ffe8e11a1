//! Randomized stress tests: the cooperative scheduler must deliver every
//! value of arbitrary relay networks lowered to ProcIR, in order, with
//! one message per value per hop.

use proptest::prelude::*;
use std::sync::Arc;
use systolic_runtime::{Network, ProcIrBuilder, ProcIrModule};

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

    /// Message conservation: every sink receives its pipe's values in
    /// order, and total messages equals sum over pipes of values x hops.
    #[test]
    fn message_conservation(
        specs in proptest::collection::vec((0usize..6, 0usize..12), 1..6),
    ) {
        let (module, expected) = build(&specs);
        let (stats, outputs) = Network::of(&module).run_with_outputs().unwrap();
        prop_assert_eq!(&outputs, &expected);
        let expect: u64 = specs.iter().map(|&(r, l)| ((r + 1) * l) as u64).sum();
        prop_assert_eq!(stats.messages, expect);
    }
}
