//! The kernel tape is the statement. Every engine executes the basic
//! statement only as its compiled tape (`Kernel::run`): one lane wide in
//! the rendezvous VM and the scalar macro-step, many lanes and
//! iterations in a wave batch. Over random statements
//! (`common::statements`) three things hold:
//!
//! - one lane of the tape equals `BasicStatement::execute`, the
//!   definition of the statement, on every input;
//! - a run of L lanes equals L one-lane runs;
//! - a wave batch — the tape split into its stream and carried sections
//!   (`TapeSplit`) and run over I iterations of L lanes (`WaveBatch`) —
//!   equals, lane by lane, I one-lane iterations that receive into the
//!   moving slots, run the tape and send the slots.
//!
//! CI runs it at `PROPTEST_CASES=2000`.

mod common;

use common::env_cases;
use common::statements::{pick, value, Statements};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use systolizer::interp::kernelize;
use systolizer::ir::Value;
use systolizer::runtime::{Kernel, TapeSplit, WaveBatch};

const SLOTS: usize = 4;
const DIMS: usize = 3;
const MAX_LANES: usize = 6;

/// Statements over the lanes' locals and index points.
const STATEMENTS: Statements = Statements {
    slots: SLOTS,
    dims: DIMS,
};

/// One to `MAX_LANES` lanes, each its locals and its index point.
struct Lanes;

impl Strategy for Lanes {
    type Value = Vec<(Vec<Value>, Vec<i64>)>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (0..1 + pick(rng, MAX_LANES))
            .map(|_| {
                let locals = (0..SLOTS).map(|_| value(rng)).collect();
                let x = (0..DIMS).map(|_| value(rng)).collect();
                (locals, x)
            })
            .collect()
    }
}

/// One lane of a wave batch: its locals, first index point, increment,
/// and the values each link receives, one per iteration.
#[derive(Clone, Debug)]
struct Lane {
    locals: Vec<Value>,
    x: Vec<i64>,
    incr: Vec<i64>,
    received: Vec<Vec<Value>>,
}

/// A batch: link `j` moves through local `slots[j]`.
#[derive(Clone, Debug)]
struct Batch {
    slots: Vec<u32>,
    iters: usize,
    lanes: Vec<Lane>,
}

/// A random non-empty subset of the slots in random order, now and then
/// with a second link into one of them; one to five iterations; one to
/// `MAX_LANES` lanes.
struct Batches;

impl Strategy for Batches {
    type Value = Batch;
    fn generate(&self, rng: &mut TestRng) -> Batch {
        let mut slots: Vec<u32> = (0..SLOTS as u32).filter(|_| pick(rng, 2) == 0).collect();
        if slots.is_empty() {
            slots.push(pick(rng, SLOTS) as u32);
        }
        for i in (1..slots.len()).rev() {
            slots.swap(i, pick(rng, i + 1));
        }
        if pick(rng, 4) == 0 {
            slots.push(slots[pick(rng, slots.len())]);
        }
        let iters = 1 + pick(rng, 5);
        let lanes = (0..1 + pick(rng, MAX_LANES))
            .map(|_| Lane {
                locals: (0..SLOTS).map(|_| value(rng)).collect(),
                x: (0..DIMS).map(|_| value(rng)).collect(),
                incr: (0..DIMS).map(|_| value(rng)).collect(),
                received: (0..slots.len())
                    .map(|_| (0..iters).map(|_| value(rng)).collect())
                    .collect(),
            })
            .collect();
        Batch {
            slots,
            iters,
            lanes,
        }
    }
}

/// `lane`'s iterations on the one-lane tape, as the scalar macro-step
/// runs them: receive into the moving slots, run, send the moving slots,
/// advance the point. The locals after, and what each link sent.
fn one_lane(kernel: &Kernel, slots: &[u32], lane: &Lane) -> (Vec<Value>, Vec<Vec<Value>>) {
    let (mut locals, mut x) = (lane.locals.clone(), lane.x.clone());
    let mut regs = vec![0; kernel.ops.len()];
    let mut sent = vec![Vec::new(); slots.len()];
    for it in 0..lane.received.first().map_or(0, Vec::len) {
        for (j, &s) in slots.iter().enumerate() {
            locals[s as usize] = lane.received[j][it];
        }
        kernel.run(&mut regs, &mut locals, &x, 1);
        for (j, &s) in slots.iter().enumerate() {
            sent[j].push(locals[s as usize]);
        }
        for (xv, &inc) in x.iter_mut().zip(&lane.incr) {
            *xv = xv.wrapping_add(inc);
        }
    }
    (locals, sent)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: env_cases(256), ..ProptestConfig::default() })]

    #[test]
    fn the_tape_is_the_statement(body in STATEMENTS, lanes in Lanes) {
        let kernel = kernelize(&body);
        let n = lanes.len();
        let mut regs = vec![0; kernel.ops.len() * n];
        let mut expected = Vec::with_capacity(n);
        for (locals, x) in &lanes {
            let mut via_statement = locals.clone();
            body.execute(&mut via_statement, x);
            let mut via_tape = locals.clone();
            kernel.run(&mut regs, &mut via_tape, x, 1);
            prop_assert_eq!(&via_tape, &via_statement, "{:?} on {:?} at {:?}", body, locals, x);
            expected.push(via_statement);
        }

        // The same lanes struct-of-arrays: `[slot][lane]`, `[dim][lane]`.
        let mut locals: Vec<Value> =
            (0..SLOTS).flat_map(|s| lanes.iter().map(move |(l, _)| l[s])).collect();
        let x: Vec<i64> = (0..DIMS).flat_map(|d| lanes.iter().map(move |(_, x)| x[d])).collect();
        kernel.run(&mut regs, &mut locals, &x, n);
        for (lane, want) in expected.iter().enumerate() {
            let got: Vec<Value> = (0..SLOTS).map(|s| locals[s * n + lane]).collect();
            prop_assert_eq!(&got, want, "{:?}, lane {} of {}", body, lane, n);
        }
    }

    #[test]
    fn the_split_batch_is_the_statement(body in STATEMENTS, batch in Batches) {
        let kernel = kernelize(&body);
        let split = TapeSplit::new(&kernel, &batch.slots);
        let mut wave = WaveBatch::default();
        wave.begin(&split, batch.lanes.len(), batch.iters);
        for (l, lane) in batch.lanes.iter().enumerate() {
            for s in 0..split.rows() {
                *wave.local(s, l) = lane.locals[s];
            }
            for d in 0..kernel.n_dims as usize {
                wave.set_point(d, l, lane.x[d], lane.incr[d]);
            }
            for (j, received) in lane.received.iter().enumerate() {
                wave.input(j, l).copy_from_slice(received);
            }
        }
        wave.run(&split);
        for (l, lane) in batch.lanes.iter().enumerate() {
            let (locals, sent) = one_lane(&kernel, &batch.slots, lane);
            for (s, &want) in locals.iter().enumerate().take(split.rows()) {
                prop_assert_eq!(*wave.local(s, l), want, "{:?} on {:?}: slot {} of lane {}", body, batch, s, l);
            }
            for (j, want) in sent.iter().enumerate() {
                let got = wave.sent(&split, j, l);
                prop_assert_eq!(got, &want[..], "{:?} on {:?}: link {} of lane {}", body, batch, j, l);
            }
        }
    }
}
