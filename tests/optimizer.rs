//! Differential suite for the ProcIR optimizer (`systolic_runtime::opt`,
//! see `docs/process-ir.md`): every fast run fuses relay chains into
//! delay rings and rewrites ops, but the recovered store must stay
//! bit-identical to the plain engine's, the exactness oracle, and the
//! counts must follow the optimizer's count law,
//! over random configurations of the design corpus (the whole-corpus
//! sweep is the ladder matrix in `tests/ladder.rs`).
//! A second proptest sweeps random synthetic transport networks through
//! the fusion legality check: multi-producer/consumer topologies must
//! reject chain fusion outright, and processes holding `Keep`/`Eject`
//! endpoints (stationary stream ends) are never fused away.

mod common;

use common::{assert_count_law, prepared, run};
use proptest::prelude::*;
use std::sync::Arc;
use systolizer::interp::{ElabOptions, SimSpec};
use systolizer::runtime::{optimize, ProcIrBuilder, ProcIrModule, ProcOp};

/// Case count override (see `tests/random_programs.rs`).
fn env_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: env_cases(16), ..ProptestConfig::default() })]

    /// Store bit-identity over random (design, size, seed).
    #[test]
    fn optimizer_is_store_invisible_on_random_configurations(
        design in 0usize..10,
        n in 1i64..=4,
        seed in 0u64..1000,
    ) {
        let d = prepared(design, n, seed);
        let oracle = run(&d, SimSpec::plain());
        let auto = run(&d, SimSpec::default());
        prop_assert_eq!(&auto.store, &oracle.store);
        assert_count_law(&format!("design {design} n={n}"), &oracle.stats, &auto);
    }
}

/// One process of a synthetic transport network.
#[derive(Clone, Debug)]
enum Node {
    /// Host source: `count` values onto `chan`.
    Emitter { chan: usize, count: usize },
    /// Pure relay — the only kind fusion may delete.
    Relay { inp: usize, out: usize, n: u64 },
    /// Host sink: `count` values off `chan`.
    Sink { chan: usize, count: usize },
    /// A stationary stream end: `Keep` and `Eject` with live slot
    /// (separated by a `Pass`, like a real load/recover pair around a
    /// computation). Must never be fused away.
    Stationary {
        inp: usize,
        thru: usize,
        out: usize,
        n: u64,
    },
}

const CHANS: usize = 6;

fn node() -> impl Strategy<Value = Node> {
    let c = 0..CHANS;
    prop_oneof![
        (c.clone(), 1usize..4).prop_map(|(chan, count)| Node::Emitter { chan, count }),
        (c.clone(), c.clone(), 1u64..4).prop_map(|(inp, out, n)| Node::Relay { inp, out, n }),
        (c.clone(), 1usize..4).prop_map(|(chan, count)| Node::Sink { chan, count }),
        (c.clone(), c.clone(), c.clone(), 1u64..4)
            .prop_map(|(inp, thru, out, n)| Node::Stationary { inp, thru, out, n }),
    ]
}

/// Assemble a [`ProcIrModule`] from node descriptors. The topology may
/// be nonsensical as a program (dangling channels, unbalanced traffic);
/// the optimizer's legality analysis must *reject* fusion there rather
/// than misbehave.
fn build(nodes: &[Node]) -> Arc<ProcIrModule> {
    let mut b = ProcIrBuilder::new();
    for (i, node) in nodes.iter().enumerate() {
        b.begin(format!("node{i}"));
        match *node {
            Node::Emitter { chan, count } => {
                for v in 0..count {
                    b.emit(chan, v as i64 + 1);
                }
            }
            Node::Relay { inp, out, n } => b.op(ProcOp::Pass { inp, out, n }),
            Node::Sink { chan, count } => {
                for _ in 0..count {
                    b.collect(chan);
                }
            }
            Node::Stationary { inp, thru, out, n } => {
                b.op(ProcOp::Keep { chan: inp, slot: 0 });
                b.op(ProcOp::Pass { inp, out: thru, n });
                b.op(ProcOp::Eject { chan: out, slot: 0 });
            }
        }
        b.finish();
    }
    b.build()
}

/// Per-channel (producer count, consumer count) in the pre-opt module.
fn fan(m: &ProcIrModule) -> Vec<(usize, usize)> {
    let mut fan = vec![(0usize, 0usize); m.n_chans];
    for pid in 0..m.procs.len() {
        for op in m.ops_of(pid) {
            match *op {
                ProcOp::Emit { chan } | ProcOp::Eject { chan, .. } => fan[chan].0 += 1,
                ProcOp::Collect { chan } | ProcOp::Keep { chan, .. } => fan[chan].1 += 1,
                ProcOp::Pass { inp, out, .. } => {
                    fan[inp].1 += 1;
                    fan[out].0 += 1;
                }
                ProcOp::Compute { .. } => {}
            }
        }
    }
    fan
}

proptest! {
    #![proptest_config(ProptestConfig { cases: env_cases(256), ..ProptestConfig::default() })]

    /// Fusion legality on arbitrary transport topologies: only pure
    /// relays are ever deleted, chains demand single-producer /
    /// single-consumer channels end to end, and a module with any
    /// multi-endpoint channel grows no chains at all.
    #[test]
    fn fusion_legality_on_random_transport_networks(
        nodes in proptest::collection::vec(node(), 1..12),
    ) {
        let module = build(&nodes);
        let fan = fan(&module);
        let multi = fan.iter().any(|&(p, c)| p > 1 || c > 1);
        let Some(o) = optimize(&module) else { return Ok(()) };
        let r = &o.report;
        if multi {
            // Endpoint analysis bails module-wide on any shared channel:
            // peephole rewrites may still fire, chains must not.
            prop_assert!(r.chains.is_empty(), "chains on a multi-endpoint module");
        }
        for (pid, mapped) in r.proc_map.iter().enumerate() {
            if mapped.is_none() {
                prop_assert!(
                    matches!(nodes[pid], Node::Relay { .. }),
                    "fused process {pid} was {:?}, not a pure relay",
                    nodes[pid]
                );
            }
        }
        for ch in &r.chains {
            prop_assert_eq!(fan[ch.entry], (1, 1), "chain entry channel is shared");
            prop_assert_eq!(fan[ch.exit], (1, 1), "chain exit channel is shared");
            prop_assert!(ch.capacity >= 1);
            for &pid in &ch.relays {
                prop_assert!(r.proc_map[pid].is_none(), "chain relay {pid} survives");
                let &Node::Relay { inp, out, .. } = &nodes[pid] else {
                    prop_assert!(false, "chain relay {} is {:?}", pid, nodes[pid]);
                    unreachable!()
                };
                prop_assert_eq!(fan[inp], (1, 1));
                prop_assert_eq!(fan[out], (1, 1));
            }
            // Balanced traffic along the chain.
            for &pid in &ch.relays {
                if let &Node::Relay { n, .. } = &nodes[pid] {
                    prop_assert_eq!(n, ch.traffic, "unbalanced relay fused");
                }
            }
        }
        // Bookkeeping is dense and consistent.
        prop_assert_eq!(r.processes_before, module.procs.len());
        prop_assert_eq!(r.processes_after, o.module.procs.len());
        prop_assert_eq!(r.channels_after, o.module.n_chans);
        let survivors = r.proc_map.iter().filter(|m| m.is_some()).count();
        prop_assert_eq!(survivors, r.processes_after);
    }
}

#[test]
fn mapping_report_round_trips_through_json() {
    use systolizer::runtime::json::{parse, Json};
    let (plan, env, store) = prepared(3, 4, 7); // E.2 fuses
    let el = systolizer::interp::elaborate::elaborate(&plan, &env, &store, &ElabOptions::default())
        .unwrap();
    let o = optimize(&el.module).expect("E.2 n=4 fuses");
    let j = o.report.to_json();
    assert!(j.contains("\"schema\": \"systolic-opt-v1\""));
    // The file parses with the one parser back to the value it was
    // rendered from, and that value carries the report's counts.
    let doc = parse(&j).expect("parseable report");
    assert_eq!(doc, o.report.json(), "report JSON must round-trip");
    let count = |k: &str| doc.get(k).and_then(Json::as_i64).map(|n| n as usize);
    assert_eq!(count("processes_before"), Some(o.report.processes_before));
    assert_eq!(count("processes_after"), Some(o.report.processes_after));
    assert_eq!(count("channels_after"), Some(o.report.channels_after));
    let chains = doc.get("chains").and_then(Json::as_arr).unwrap();
    assert_eq!(chains.len(), o.report.chains.len());
    let relays = |c: &Json| c.get("relays").and_then(Json::as_i64).unwrap() as usize;
    assert_eq!(
        chains.iter().map(relays).sum::<usize>(),
        o.report.fused_relays()
    );
}
