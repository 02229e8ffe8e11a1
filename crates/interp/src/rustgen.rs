//! A *runnable* back end: generate a standalone, self-checking Rust
//! program (std threads + `sync_channel`) from a compiled plan at a
//! concrete problem size.
//!
//! This mechanizes the paper's Sec. 8 experiment — "we have
//! hand-translated our example programs for execution on several
//! parallel computers" — end to end: the translation is generated, the
//! target language is real, and the generated program embeds its own
//! input data and the sequentially-computed expected results, asserting
//! equality at exit. It is the repo's one execution on real OS
//! threads; both simulated engines run on the calling thread.
//!
//! Channels use capacity-1 `sync_channel`s: the paper counts the
//! synchronous channel as "a buffer of size 1" (Sec. 7.6). A thread
//! cannot offer a `par` set, so it sends the set's members one after
//! another, and that one slot per channel is what keeps the
//! sequentialized sends from deadlocking. The slot is slack the plain
//! rendezvous engine does not have: `tests/generated_rust.rs` compiles
//! and runs the emitted program for the appendix designs and a guarded
//! body, each checking its sinks against the sequential result, and on
//! the lockstep program (n = 2, step bound 1) it pins that the emitted
//! program completes and verifies where the rendezvous engine
//! deadlocks.
//!
//! The generator is a [`ProcIrModule`] walker over the module a default
//! run executes (the cached module's fast plan: the optimizer's module
//! where it rewrote the elaboration): each bytecode op renders to the
//! corresponding thread code, so the emitted network is the simulated
//! network *by construction* — there is no second topology derivation to
//! keep in sync.
//!
//! [`ProcIrModule`]: systolic_runtime::ProcIrModule

use crate::cache::{CachedModule, ModuleStore};
use crate::elaborate::ElabOptions;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use systolic_core::SystolicProgram;
use systolic_ir::{seq, HostStore};
use systolic_math::Env;
use systolic_runtime::{Kernel, KernelOp, ProcOp};

/// Print the module's kernel tape — the statement every engine runs — as
/// a Rust block over locals `l0..` and the index point `x`: one
/// `let rN` per op, then the writebacks, with `Kernel::run`'s wrapping
/// arithmetic whatever profile the program is compiled under.
fn rust_tape(kernel: &Kernel, indent: &str, out: &mut String) {
    let _ = writeln!(out, "{indent}{{");
    for (i, op) in kernel.ops.iter().enumerate() {
        let method = |name: &str, a: u32, b: u32| format!("r{a}.{name}(r{b})");
        let test = |sym: &str, a: u32, b: u32| format!("(r{a} {sym} r{b}) as i64");
        let e = match *op {
            KernelOp::Slot(s) => format!("l{s}"),
            KernelOp::Index(d) => format!("x[{d}]"),
            KernelOp::Const(c) => format!("{c}i64"),
            KernelOp::Add(a, b) => method("wrapping_add", a, b),
            KernelOp::Sub(a, b) => method("wrapping_sub", a, b),
            KernelOp::Mul(a, b) => method("wrapping_mul", a, b),
            KernelOp::Min(a, b) => method("min", a, b),
            KernelOp::Max(a, b) => method("max", a, b),
            KernelOp::Neg(a) => format!("r{a}.wrapping_neg()"),
            KernelOp::Eq(a, b) => test("==", a, b),
            KernelOp::Lt(a, b) => test("<", a, b),
            KernelOp::Le(a, b) => test("<=", a, b),
            KernelOp::Select(c, a, b) => format!("if r{c} != 0 {{ r{a} }} else {{ r{b} }}"),
        };
        let _ = writeln!(out, "{indent}    let r{i}: i64 = {e};");
    }
    for &(slot, reg) in &kernel.writes {
        let _ = writeln!(out, "{indent}    l{slot} = r{reg};");
    }
    let _ = writeln!(out, "{indent}}}");
}

/// Generate the complete standalone Rust program of the module a default
/// run executes — the cached module's fast plan
/// ([`crate::cache::FastPlan`]). `seed` drives the embedded input data
/// (same LCG as [`HostStore::fill_random`]). Where the optimizer rewrote
/// the module, relay chains are channel capacity instead of threads: one
/// thread per surviving process and a `sync_channel` sized to each delay
/// ring. The mapping report is validated against the elaboration first
/// ([`crate::runtime_gen::agree_with_opt`]) so codegen never emits a
/// network that silently diverges from what was simulated, and its
/// summary is recorded in the generated header.
pub fn generate_rust(plan: &SystolicProgram, env: &Env, seed: u64) -> String {
    let (cm, expect_of) = prepared(plan, env, seed);
    let Some(optimized) = &cm.fast_plan().optimized else {
        return emit_program(plan, &cm.elab.module, &expect_of, None);
    };
    let o = &optimized.0;
    crate::runtime_gen::agree_with_opt(plan, env, &cm.elab, o)
        .expect("optimizer mapping report reconciles with the elaboration");
    let caps: Vec<u64> = o.ring_needs.iter().map(|&need| need.max(1)).collect();
    let mut out = emit_program(plan, &o.module, &expect_of, Some(&caps));
    let note = format!("//! Optimized: {}.\n", o.report.summary());
    let insert = out.find("use std::").expect("generated preamble");
    out.insert_str(insert, &note);
    out
}

/// Instantiate at the generation size and pair each output-buffer index
/// with its sequentially-computed expected values.
fn prepared(
    plan: &SystolicProgram,
    env: &Env,
    seed: u64,
) -> (Arc<CachedModule>, HashMap<u32, Vec<i64>>) {
    let mut store = HostStore::allocate(&plan.source, env);
    for (i, v) in plan.source.variables.iter().enumerate() {
        store.fill_random(&v.name, seed.wrapping_add(i as u64), -9, 9);
    }
    let mut expected = store.clone();
    seq::run(&plan.source, env, &mut expected);

    let cm = ModuleStore::new()
        .module(plan, env, &store, &ElabOptions::default())
        .expect("plan elaborates at the generation size");
    let el = &cm.elab;
    let expect_of: HashMap<u32, Vec<i64>> = el
        .outputs
        .iter()
        .map(|spec| {
            let raw = expected.get(&spec.variable).raw();
            let vals = el
                .words_of(spec)
                .iter()
                .map(|&at| raw[at as usize])
                .collect();
            (spec.output, vals)
        })
        .collect();
    (cm, expect_of)
}

/// Render one module as the standalone program. `caps` is the
/// per-channel buffer capacity (delay rings from the optimizer); `None`
/// means the paper's uniform "buffer of size 1".
fn emit_program(
    plan: &SystolicProgram,
    module: &systolic_runtime::ProcIrModule,
    expect_of: &HashMap<u32, Vec<i64>>,
    caps: Option<&[u64]>,
) -> String {
    let mut bodies: Vec<String> = Vec::new();
    for pid in 0..module.procs.len() {
        let rec = &module.procs[pid];
        let ops = module.ops_of(pid);
        let data = module.data_of(pid);
        let moving = module.moving_of(pid);

        // The channel handles this thread owns, from the ops themselves.
        let mut rx_chans = BTreeSet::new();
        let mut tx_chans = BTreeSet::new();
        for op in ops {
            match *op {
                ProcOp::Emit { chan } => {
                    tx_chans.insert(chan);
                }
                ProcOp::Collect { chan } | ProcOp::Keep { chan, .. } => {
                    rx_chans.insert(chan);
                }
                ProcOp::Pass { inp, out, .. } => {
                    rx_chans.insert(inp);
                    tx_chans.insert(out);
                }
                ProcOp::Eject { chan, .. } => {
                    tx_chans.insert(chan);
                }
                ProcOp::Compute { .. } => {
                    for l in moving {
                        rx_chans.insert(l.inp);
                        tx_chans.insert(l.out);
                    }
                }
            }
        }

        let is_sink = rec.output.is_some();
        let mut b = String::new();
        let _ = writeln!(b, "    // {}", module.label_of(pid));
        let _ = writeln!(b, "    {{");
        for &c in &rx_chans {
            let _ = writeln!(b, "        let rx{c} = receivers[{c}].take().unwrap();");
        }
        for &c in &tx_chans {
            let _ = writeln!(b, "        let tx{c} = senders[{c}].take().unwrap();");
        }
        if is_sink {
            let _ = writeln!(b, "        let h = thread::spawn(move || {{");
            let _ = writeln!(b, "            let mut out: Vec<i64> = Vec::new();");
        } else {
            let _ = writeln!(b, "        handles.push(thread::spawn(move || {{");
        }
        for k in 0..rec.n_locals {
            let _ = writeln!(b, "            let mut l{k}: i64 = 0;");
        }
        if ops.iter().any(|op| matches!(op, ProcOp::Compute { .. })) {
            let _ = writeln!(b, "            #[allow(unused_mut, unused_variables)]");
            let _ = writeln!(
                b,
                "            let mut x: [i64; {}] = {:?};",
                plan.r,
                module.first_of(pid)
            );
        }

        // Walk the bytecode; runs of `Emit` on one channel compress to a
        // data loop.
        let mut di = 0usize;
        let mut i = 0usize;
        while i < ops.len() {
            match ops[i] {
                ProcOp::Emit { chan } => {
                    let mut vals = vec![data[di]];
                    di += 1;
                    while matches!(ops.get(i + 1), Some(ProcOp::Emit { chan: c }) if *c == chan) {
                        i += 1;
                        vals.push(data[di]);
                        di += 1;
                    }
                    if vals.len() == 1 {
                        let _ = writeln!(b, "            tx{chan}.send({}i64).unwrap();", vals[0]);
                    } else {
                        let _ = writeln!(
                            b,
                            "            for v in {vals:?} {{ tx{chan}.send(v).unwrap(); }}"
                        );
                    }
                }
                ProcOp::Collect { chan } => {
                    let _ = writeln!(b, "            out.push(rx{chan}.recv().unwrap());");
                }
                ProcOp::Keep { chan, slot } => {
                    let _ = writeln!(b, "            l{slot} = rx{chan}.recv().unwrap();");
                }
                ProcOp::Pass { inp, out, n } => {
                    let _ = writeln!(
                        b,
                        "            for _ in 0..{n} {{ tx{out}.send(rx{inp}.recv().unwrap()).unwrap(); }}"
                    );
                }
                ProcOp::Eject { chan, slot } => {
                    let _ = writeln!(b, "            tx{chan}.send(l{slot}).unwrap();");
                }
                ProcOp::Compute { count } => {
                    let _ = writeln!(b, "            for _ in 0..{count} {{");
                    for l in moving {
                        let _ = writeln!(
                            b,
                            "                l{} = rx{}.recv().unwrap();",
                            l.slot, l.inp
                        );
                    }
                    rust_tape(&module.kernel, "                ", &mut b);
                    for l in moving {
                        let _ =
                            writeln!(b, "                tx{}.send(l{}).unwrap();", l.out, l.slot);
                    }
                    let _ = writeln!(
                        b,
                        "                for d in 0..{} {{ x[d] = x[d].wrapping_add({:?}[d]); }}",
                        plan.r,
                        module.increment_of(pid)
                    );
                    let _ = writeln!(b, "            }}");
                }
            }
            i += 1;
        }

        if let Some(oi) = rec.output {
            let expect = &expect_of[&oi];
            let _ = writeln!(b, "            out");
            let _ = writeln!(b, "        }});");
            let _ = writeln!(
                b,
                "        outputs.push(({:?}, h, vec!{expect:?}));",
                module.label_of(pid)
            );
        } else {
            let _ = writeln!(b, "        }}));");
        }
        let _ = writeln!(b, "    }}");
        bodies.push(b);
    }

    // Assemble the program.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "//! GENERATED by systolizer (rust back end) — do not edit."
    );
    let _ = writeln!(
        out,
        "//! Systolic program for `{}`; self-checking.",
        plan.source.name
    );
    let _ = writeln!(out, "use std::sync::mpsc::sync_channel;");
    let _ = writeln!(out, "use std::thread;");
    let _ = writeln!(out);
    let _ = writeln!(out, "fn main() {{");
    let _ = writeln!(out, "    const NCHAN: usize = {};", module.n_chans);
    let _ = writeln!(
        out,
        "    let mut senders: Vec<Option<std::sync::mpsc::SyncSender<i64>>> = Vec::new();"
    );
    let _ = writeln!(
        out,
        "    let mut receivers: Vec<Option<std::sync::mpsc::Receiver<i64>>> = Vec::new();"
    );
    match caps {
        None => {
            let _ = writeln!(out, "    for _ in 0..NCHAN {{");
            let _ = writeln!(out, "        let (s, r) = sync_channel::<i64>(1);");
            let _ = writeln!(out, "        senders.push(Some(s));");
            let _ = writeln!(out, "        receivers.push(Some(r));");
            let _ = writeln!(out, "    }}");
        }
        Some(caps) => {
            let caps: Vec<usize> = caps.iter().map(|&c| c as usize).collect();
            let _ = writeln!(out, "    // Delay-ring capacities from the optimizer.");
            let _ = writeln!(out, "    const CAPS: [usize; NCHAN] = {caps:?};");
            let _ = writeln!(out, "    for c in 0..NCHAN {{");
            let _ = writeln!(out, "        let (s, r) = sync_channel::<i64>(CAPS[c]);");
            let _ = writeln!(out, "        senders.push(Some(s));");
            let _ = writeln!(out, "        receivers.push(Some(r));");
            let _ = writeln!(out, "    }}");
        }
    }
    let _ = writeln!(out, "    let mut handles = Vec::new();");
    let _ = writeln!(
        out,
        "    let mut outputs: Vec<(&'static str, thread::JoinHandle<Vec<i64>>, Vec<i64>)> = Vec::new();"
    );
    for b in &bodies {
        out.push_str(b);
    }
    let _ = writeln!(out, "    for h in handles {{ h.join().unwrap(); }}");
    let _ = writeln!(out, "    for (label, h, expect) in outputs {{");
    let _ = writeln!(out, "        let got = h.join().unwrap();");
    let _ = writeln!(
        out,
        "        assert_eq!(got, expect, \"pipe {{label}} disagrees with the sequential reference\");"
    );
    let _ = writeln!(out, "    }}");
    let _ = writeln!(
        out,
        "    println!(\"systolic == sequential: all pipes verified\");"
    );
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use systolic_core::{compile, Options};
    use systolic_synthesis::placement::paper;

    #[test]
    fn generated_rust_is_plausible_source() {
        let (p, a) = paper::polyprod_d1();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 3);
        let src = generate_rust(&plan, &env, 7);
        assert!(src.contains("fn main()"));
        assert!(src.contains("sync_channel"));
        assert!(src.contains("// comp@"));
        // `c := c + a * b` is the tape `l2, l0, l1, mul, add`.
        assert!(src.contains("let r3: i64 = r1.wrapping_mul(r2);"));
        assert!(src.contains("let r4: i64 = r0.wrapping_add(r3);"));
        assert!(src.contains("l2 = r4;"));
        // Balanced braces.
        assert_eq!(src.matches('{').count(), src.matches('}').count());
    }

    #[test]
    fn optimized_generation_drops_relay_threads_and_sizes_the_rings() {
        let (p, a) = paper::matmul_e2();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 4);
        let store = HostStore::allocate(&p, &env);
        let el = elaborate(&plan, &env, &store, &ElabOptions::default()).unwrap();
        let (o, _) = systolic_runtime::optimize(&el.module, &el.channels)
            .expect("E.2 has relay chains to fuse");
        let src = generate_rust(&plan, &env, 7);
        assert!(src.contains("//! Optimized:"));
        assert!(src.contains("const CAPS: [usize; NCHAN]"));
        assert!(src.contains(&format!("const NCHAN: usize = {};", o.module.n_chans)));
        // One `thread::spawn` per surviving process — the fused relays
        // are gone from the generated program too.
        assert_eq!(src.matches("thread::spawn").count(), o.module.procs.len());
        assert!(o.module.procs.len() < el.module.procs.len());
        assert_eq!(src.matches('{').count(), src.matches('}').count());
    }
}
