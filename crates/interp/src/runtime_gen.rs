//! The run-time code-generation baseline (ablation B3d).
//!
//! Sec. 8 situates the paper on a spectrum: "generation at run time has
//! each process determine the identity and ordering of its statements
//! from the loop bounds specified in the source program and its
//! coordinates in the process space. This is done either as a separate
//! phase before execution or interleaved with it [3, 25]. At the other
//! end of the spectrum is our approach."
//!
//! This module implements the *other* end: given only the source program
//! and the array (no compiled plan), every per-process quantity — chord,
//! soak/drain counts, pipe contents — is recovered by scanning the index
//! space, once per process, exactly as a run-time generator would. The
//! outputs must agree with the compiled plan (tested), and the scan cost
//! is what the benchmark compares against plan evaluation.

use crate::elaborate::Elaborated;
use std::collections::{BTreeSet, HashMap};
use systolic_core::{StreamKind, SystolicProgram};
use systolic_math::{point, Env};
use systolic_runtime::{ChanId, OptimizedModule, ProcOp};

/// Everything one process needs, derived by brute-force scan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScannedProcess {
    /// The chord in step order (empty for null processes).
    pub chord: Vec<Vec<i64>>,
    /// Per stream: (soak, used, drain) counts along its pipe.
    pub propagation: Vec<(i64, i64, i64)>,
}

/// Scan the whole index space once and derive per-process data for every
/// process-space point — the run-time generator's "separate phase before
/// execution". Returns the map and the number of index points visited
/// (the work metric).
pub fn scan(plan: &SystolicProgram, env: &Env) -> (HashMap<Vec<i64>, ScannedProcess>, usize) {
    let mut out: HashMap<Vec<i64>, ScannedProcess> = HashMap::new();
    let n_streams = plan.streams.len();
    for y in plan.ps_points(env) {
        out.insert(
            y,
            ScannedProcess {
                chord: Vec::new(),
                propagation: vec![(0, 0, 0); n_streams],
            },
        );
    }
    // Pass 1: chords.
    let mut visited = 0usize;
    for x in plan.source.index_space_seq(env) {
        visited += 1;
        let y = plan.array.place_at(&x);
        out.get_mut(&y)
            .expect("place image inside PS")
            .chord
            .push(x);
    }
    for sp in out.values_mut() {
        let step = &plan.array.step;
        sp.chord.sort_by_key(|x| point::dot(step, x));
    }

    // Pass 2: per-stream pipe propagation. For each pipe (chain along the
    // stream's unit flow), order the pipe's elements by increment_s and
    // count, for each process, how many elements precede its first used
    // element and follow its last.
    let ps = plan.ps_box(env);
    let inside = |p: &[i64]| p.iter().zip(&ps).all(|(&x, &(lo, hi))| x >= lo && x <= hi);
    let ys: Vec<Vec<i64>> = out.keys().cloned().collect();
    for (k, spn) in plan.streams.iter().enumerate() {
        let m = &plan.source.stream(spn.id).index_map;
        for head in &ys {
            if inside(&point::sub(head, &spn.unit_flow)) {
                continue;
            }
            // Collect the chain and every element used along it.
            let mut chain = Vec::new();
            let mut z = head.clone();
            while inside(&z) {
                chain.push(z.clone());
                z = point::add(&z, &spn.unit_flow);
            }
            let mut elems: Vec<Vec<i64>> = Vec::new();
            for z in &chain {
                for x in &out[z].chord {
                    let e = m.apply_int(x);
                    if !elems.contains(&e) {
                        elems.push(e);
                    }
                }
            }
            // Order along increment_s.
            elems.sort_by_key(|e| point::dot(&spn.increment_s, e));
            let rank: HashMap<&Vec<i64>, i64> = elems
                .iter()
                .enumerate()
                .map(|(i, e)| (e, i as i64))
                .collect();
            let total = elems.len() as i64;
            for z in &chain {
                let used: Vec<i64> = out[z].chord.iter().map(|x| rank[&m.apply_int(x)]).collect();
                let prop = if used.is_empty() {
                    (0, 0, 0)
                } else {
                    let lo = *used.iter().min().unwrap();
                    let hi = *used.iter().max().unwrap();
                    let distinct = if matches!(spn.kind, StreamKind::Stationary { .. }) {
                        1
                    } else {
                        hi - lo + 1
                    };
                    (lo, distinct, total - 1 - hi)
                };
                out.get_mut(z).unwrap().propagation[k] = prop;
            }
        }
    }
    (out, visited)
}

/// Check the scan against the compiled plan at a size: chords, soak and
/// drain counts must agree everywhere. Returns the number of processes
/// compared.
pub fn agree_with_plan(plan: &SystolicProgram, env: &Env) -> Result<usize, String> {
    let (scanned, _) = scan(plan, env);
    let mut compared = 0;
    for (y, sp) in &scanned {
        let chord = plan.chord_at(env, y);
        if chord != sp.chord {
            return Err(format!(
                "chord mismatch at {y:?}: plan {chord:?} vs scan {:?}",
                sp.chord
            ));
        }
        for (k, spn) in plan.streams.iter().enumerate() {
            if chord.is_empty() {
                continue;
            }
            let soak = plan.stream_count_at(&spn.soak, env, y);
            let drain = plan.stream_count_at(&spn.drain, env, y);
            let (s, _, d) = sp.propagation[k];
            if (soak, drain) != (s, d) {
                return Err(format!(
                    "stream {} at {y:?}: plan soak/drain ({soak},{drain}) vs scan ({s},{d})",
                    spn.name
                ));
            }
        }
        compared += 1;
    }
    Ok(compared)
}

/// Check the scan against the *lowered bytecode*: for every computation
/// process, the repeater count and the per-stream pass totals encoded in
/// its [`ProcOp`] list must match what a run-time generator derives from
/// the index space alone. This closes the loop scan → plan → ProcIR: the
/// flat bytecode carries exactly the statically-determined trace.
/// Returns the number of computation processes compared.
pub fn agree_with_procir(
    plan: &SystolicProgram,
    env: &Env,
    el: &Elaborated,
) -> Result<usize, String> {
    let (scanned, _) = scan(plan, env);
    let module = &el.module;
    let mut compared = 0;
    for (y, pid) in el.comp_at() {
        let sp = scanned
            .get(y)
            .ok_or_else(|| format!("comp process at {y:?} missing from the scan"))?;
        let ops = module.ops_of(pid);
        let moving = module.moving_of(pid);
        // Decode the op list: pass totals per input channel, split at the
        // repeater, plus the keep channel of each stationary slot.
        let mut keep_chan: HashMap<u32, ChanId> = HashMap::new();
        let mut pre: HashMap<ChanId, i64> = HashMap::new();
        let mut post: HashMap<ChanId, i64> = HashMap::new();
        let mut count: Option<u64> = None;
        for op in ops {
            match *op {
                ProcOp::Keep { chan, slot } => {
                    keep_chan.insert(slot, chan);
                }
                ProcOp::Pass { inp, n, .. } => {
                    *if count.is_some() {
                        post.entry(inp)
                    } else {
                        pre.entry(inp)
                    }
                    .or_default() += n as i64;
                }
                ProcOp::Compute { count: c } => count = Some(c),
                ProcOp::Eject { .. } | ProcOp::Emit { .. } | ProcOp::Collect { .. } => {}
            }
        }
        let count = count.ok_or_else(|| format!("no repeater in the ops of comp at {y:?}"))?;
        if count as usize != sp.chord.len() {
            return Err(format!(
                "repeater count at {y:?}: bytecode {count} vs scanned chord {}",
                sp.chord.len()
            ));
        }
        for (k, spn) in plan.streams.iter().enumerate() {
            let (s, _, d) = sp.propagation[k];
            let at = |m: &HashMap<ChanId, i64>, c: ChanId| m.get(&c).copied().unwrap_or(0);
            match spn.kind {
                StreamKind::Moving => {
                    let link = moving.iter().find(|l| l.slot == k as u32).ok_or_else(|| {
                        format!("stream {} has no moving link at {y:?}", spn.name)
                    })?;
                    if (at(&pre, link.inp), at(&post, link.inp)) != (s, d) {
                        return Err(format!(
                            "stream {} at {y:?}: bytecode soak/drain ({},{}) vs scan ({s},{d})",
                            spn.name,
                            at(&pre, link.inp),
                            at(&post, link.inp)
                        ));
                    }
                }
                StreamKind::Stationary { .. } => {
                    // Load passes the `drain` later elements through; the
                    // recovery passes the `soak` earlier ones before the
                    // eject.
                    let chan = *keep_chan
                        .get(&(k as u32))
                        .ok_or_else(|| format!("stream {} has no keep at {y:?}", spn.name))?;
                    if (at(&pre, chan), at(&post, chan)) != (d, s) {
                        return Err(format!(
                            "stationary {} at {y:?}: bytecode load/recover passes ({},{}) vs scan ({d},{s})",
                            spn.name,
                            at(&pre, chan),
                            at(&post, chan)
                        ));
                    }
                }
            }
        }
        compared += 1;
    }
    Ok(compared)
}

/// Extend the agreement check to an *optimized* module: run
/// [`agree_with_procir`] on the pre-opt elaboration (the optimizer never
/// changes what was compiled, only how it executes), then reconcile the
/// `systolic-opt-v1` mapping report against both modules so codegen can
/// trust it. Verified here: shape counts, an injective+dense process
/// map that preserves labels, deleted processes being exactly the fused
/// relays (and transport-only: no `Compute`/`Emit`/`Collect`, no host
/// output), every computation process surviving with its repeater, and
/// each chain's entry channel surviving as the delay ring while its
/// exit channel is deleted. Returns the number of computation processes
/// compared by the base check.
pub fn agree_with_opt(
    plan: &SystolicProgram,
    env: &Env,
    el: &Elaborated,
    o: &OptimizedModule,
) -> Result<usize, String> {
    let compared = agree_with_procir(plan, env, el)?;
    let r = &o.report;
    let pre = &el.module;
    let post = &o.module;
    let shape = [
        ("processes_before", r.processes_before, pre.procs.len()),
        ("processes_after", r.processes_after, post.procs.len()),
        ("channels_before", r.channels_before, pre.n_chans),
        ("channels_after", r.channels_after, post.n_chans),
        ("proc_map length", r.proc_map.len(), pre.procs.len()),
        ("chan_map length", r.chan_map.len(), pre.n_chans),
    ];
    for (what, got, want) in shape {
        if got != want {
            return Err(format!("report {what}: {got} vs module {want}"));
        }
    }

    // The process map must be injective onto the post module, dense
    // (every surviving process has a preimage), and label-preserving.
    let mut preimage: Vec<Option<usize>> = vec![None; post.procs.len()];
    for (pid, m) in r.proc_map.iter().enumerate() {
        let Some(q) = *m else { continue };
        if q >= post.procs.len() {
            return Err(format!("proc_map[{pid}] = {q} out of range"));
        }
        if let Some(prev) = preimage[q] {
            return Err(format!("proc_map sends both {prev} and {pid} to {q}"));
        }
        preimage[q] = Some(pid);
        if pre.label_of(pid) != post.label_of(q) {
            return Err(format!(
                "label changed across the map: {:?} -> {:?}",
                pre.label_of(pid),
                post.label_of(q)
            ));
        }
    }
    if let Some(q) = preimage.iter().position(|p| p.is_none()) {
        return Err(format!("post process {q} has no preimage in proc_map"));
    }

    // Deleted processes are exactly the chains' relays, and each was
    // transport-only in the pre-opt module.
    let relays: BTreeSet<usize> = r.chains.iter().flat_map(|c| c.relays.clone()).collect();
    for (pid, m) in r.proc_map.iter().enumerate() {
        match (m.is_some(), relays.contains(&pid)) {
            (false, false) => {
                return Err(format!("process {pid} deleted but not in any chain"));
            }
            (true, true) => {
                return Err(format!("process {pid} is a chain relay yet survives"));
            }
            _ => {}
        }
        if m.is_none() {
            let transport = pre.ops_of(pid).iter().all(|op| {
                matches!(
                    op,
                    ProcOp::Pass { .. }
                        | ProcOp::Keep { .. }
                        | ProcOp::Eject { .. }
                        | ProcOp::Compute { count: 0 }
                )
            });
            if !transport || pre.procs[pid].output.is_some() {
                return Err(format!("fused process {pid} was not transport-only"));
            }
        }
    }

    // Every computation process survives, repeater intact.
    for (y, pid) in el.comp_at() {
        let q = r.proc_map[pid]
            .ok_or_else(|| format!("computation process at {y:?} was fused away"))?;
        let count = |ops: &[ProcOp]| {
            ops.iter()
                .filter_map(|op| match op {
                    ProcOp::Compute { count } => Some(*count),
                    _ => None,
                })
                .sum::<u64>()
        };
        let (a, b) = (count(pre.ops_of(pid)), count(post.ops_of(q)));
        if a != b {
            return Err(format!("comp at {y:?}: repeater {a} became {b}"));
        }
    }

    // Chain channel bookkeeping: entry survives as the ring, exit (and
    // everything interior) is gone, and the chain's need is the one the
    // wavefront plan will see.
    for (i, c) in r.chains.iter().enumerate() {
        if r.chan_map.get(c.entry).copied().flatten() != Some(c.surviving) {
            return Err(format!(
                "chain {i}: entry {} does not survive as {}",
                c.entry, c.surviving
            ));
        }
        if r.chan_map.get(c.exit).copied().flatten().is_some() {
            return Err(format!("chain {i}: exit channel {} survives", c.exit));
        }
        if c.capacity < 1 {
            return Err(format!("chain {i}: zero-capacity delay ring"));
        }
        if o.ring_needs.get(c.surviving).copied().unwrap_or(0) < c.capacity {
            return Err(format!(
                "chain {i}: ring_needs[{}] below the chain's need {}",
                c.surviving, c.capacity
            ));
        }
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::{elaborate, ElabOptions};
    use systolic_core::{compile, Options};
    use systolic_ir::HostStore;
    use systolic_synthesis::placement::paper;

    #[test]
    fn scan_agrees_with_the_lowered_bytecode_on_all_designs() {
        for (label, p, a) in paper::all() {
            let plan = compile(&p, &a, &Options::default()).unwrap();
            for n in [2i64, 4] {
                let mut env = Env::new();
                env.bind(p.sizes[0], n);
                let store = HostStore::allocate(&p, &env);
                let el = elaborate(&plan, &env, &store, &ElabOptions::default()).unwrap();
                let compared = agree_with_procir(&plan, &env, &el)
                    .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
                assert_eq!(compared, el.comp_at().len());
                assert!(compared > 0);
            }
        }
    }

    #[test]
    fn agreement_extends_to_optimized_modules_on_all_designs() {
        let mut optimized_somewhere = false;
        for (label, p, a) in paper::all() {
            let plan = compile(&p, &a, &Options::default()).unwrap();
            for n in [2i64, 4] {
                let mut env = Env::new();
                env.bind(p.sizes[0], n);
                let store = HostStore::allocate(&p, &env);
                let el = elaborate(&plan, &env, &store, &ElabOptions::default()).unwrap();
                let Some((o, _)) = systolic_runtime::optimize(&el.module, &el.channels) else {
                    continue;
                };
                optimized_somewhere = true;
                let compared = agree_with_opt(&plan, &env, &el, &o)
                    .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
                assert_eq!(compared, el.comp_at().len());
            }
        }
        assert!(
            optimized_somewhere,
            "no paper design produced an optimized module"
        );
    }

    #[test]
    fn a_corrupted_report_fails_the_agreement_check() {
        let (p, a) = paper::matmul_e2();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 4);
        let store = HostStore::allocate(&p, &env);
        let el = elaborate(&plan, &env, &store, &ElabOptions::default()).unwrap();
        let (mut o, _) =
            systolic_runtime::optimize(&el.module, &el.channels).expect("E.2 has relay chains");
        assert!(agree_with_opt(&plan, &env, &el, &o).is_ok());
        // Claim a computation process was fused away.
        let victim = el.comp_pids[0];
        std::sync::Arc::make_mut(&mut o.report).proc_map[victim] = None;
        let err = agree_with_opt(&plan, &env, &el, &o).unwrap_err();
        assert!(err.contains("has no preimage"), "{err}");
    }

    #[test]
    fn scan_agrees_with_the_compiled_plan_on_all_designs() {
        for (label, p, a) in paper::all() {
            let plan = compile(&p, &a, &Options::default()).unwrap();
            for n in [2i64, 4] {
                let mut env = Env::new();
                env.bind(p.sizes[0], n);
                let compared =
                    agree_with_plan(&plan, &env).unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
                assert!(compared > 0);
            }
        }
    }

    #[test]
    fn scan_work_grows_with_the_index_space() {
        let (p, a) = paper::matmul_e1();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 3);
        let (_, visited3) = scan(&plan, &env);
        env.bind(p.sizes[0], 6);
        let (_, visited6) = scan(&plan, &env);
        assert_eq!(visited3, 64);
        assert_eq!(visited6, 343);
    }
}
