//! Wave kernels: the one runtime form of the basic statement, and its
//! struct-of-arrays execution over homogeneous Compute ops.
//!
//! The wavefront executor (`crate::wavefront`) sweeps the array one
//! topological level at a time, but a Compute op retired one process at
//! a time pays per-value ring bookkeeping for a few ops of arithmetic.
//! This module removes that cost for the common case the paper's scheme
//! actually produces: every computation process runs the *same* basic
//! statement.
//!
//! - [`Kernel`] is the typed straight-line form of one basic statement:
//!   an SSA op tape over registers ([`KernelOp`]) plus a final list of
//!   local-slot writebacks. The compiler side (`systolic_interp`)
//!   lowers every `BasicStatement` into it once per skeleton — a guarded
//!   update `B -> s := e` becomes `s := select(B, e, s)`, sound because
//!   every op is total — and [`Kernel::run`] is the only code that
//!   executes a statement: `lanes` processes at once on the wave path,
//!   one lane wide on the scalar macro-step and in the rendezvous VM.
//! - [`analyze_kernels`] classifies every chunk of a [`WavefrontPlan`]
//!   once per module: a chunk is *kernel-eligible* when it is a single
//!   compute window — one process's repeater, which the plan has already
//!   cut from the load/soak ops before it and the drain/recover ops
//!   after it — moving values over pairwise-distinct rings: exactly the
//!   precondition of `macro_step`'s loop-summarized fast path, which the
//!   kernel path mirrors batch-wise. Everything else (transport windows,
//!   compute windows that sit on a genuine cycle, aliased rings) runs on
//!   the scalar macro-step, and the report counts what a reader counts:
//!   compute chunks and whole transport processes, each scalar one with
//!   its reason — the wavefront/batch reject-reason ladder one rung down.
//! - [`kernel_wave`] executes one wave's eligible chunks as a batch:
//!   ring heads are gathered out of the run arena's ring slab
//!   (`crate::arena`) into struct-of-arrays scratch buffers (lane =
//!   process, one bounds decision per wave instead of one per op), the
//!   op tape runs as lane-inner tight loops the compiler can
//!   auto-vectorize, and results scatter back into the slab in FIFO
//!   order. The
//!   per-lane logical accounting (`steps`, `messages`, ring `moved`)
//!   is identical to the loop-summarized macro path, so stores stay
//!   bit-identical and stats invariant — the same contract every other
//!   engine upholds.
//!
//! Safety of the gather/scatter: a lane only touches its own window's
//! rings — each its own span of the slab — every lane of a batch pops
//! all `m` iterations before any lane pushes, and `m` never exceeds the
//! input occupancy or output slack observed at the start of the batch.
//! That is stream-equivalent to the interleaved pop/push of the macro
//! path whoever holds a ring's other end — another lane of the same batch
//! (two compute windows of one wave can share a ring when their value
//! runs do not overlap), or the lane itself on a self-looped ring: only
//! values already queued are served, only slack already free is filled.
//! See `docs/kernels.md`.

use crate::arena::RunArena;
use crate::coop::RunStats;
use crate::json::Json;
use crate::process::Value;
use crate::procir::ProcIrModule;
use crate::wavefront::{ChunkState, WavefrontPlan, Window};

/// Whether a wavefront run may execute eligible waves through compiled
/// kernels. `Auto` engages them whenever the module compiled one and the
/// chunk qualifies; `Off` forces every chunk onto the scalar
/// `macro_step` path (`--kernel off`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelMode {
    #[default]
    Auto,
    Off,
}

impl KernelMode {
    /// The names `--kernel` and the service's `"kernel"` accept, default first.
    pub const NAMES: &'static [(&'static str, KernelMode)] =
        &[("auto", KernelMode::Auto), ("off", KernelMode::Off)];
}

/// The longest tape a wave batch takes: a batch holds `ops × lanes`
/// registers, so [`analyze_kernels`] leaves a module whose tape is longer
/// on the scalar path, where it runs one lane wide. The gallery's tapes
/// are 4–6 ops.
pub const KERNEL_MAX_OPS: usize = 256;

/// One op of the kernel tape. Ops form an SSA register file: op `i`
/// defines register `i`, and operand indices always point at earlier
/// ops, so the vector interpreter can split the register file at the
/// destination without aliasing. Every op is total (no division, and
/// arithmetic wraps), which is what lets a guard select between two
/// computed values instead of branching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelOp {
    /// Read local slot `s` as it stood before the statement (a slot an
    /// earlier update wrote is read from that update's register).
    Slot(u32),
    /// Read coordinate `d` of the repeater's current index point.
    Index(u32),
    Const(Value),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Min(u32, u32),
    Max(u32, u32),
    Neg(u32),
    /// `1` when the operands are equal, else `0`.
    Eq(u32, u32),
    /// `1` when the first operand is less than the second, else `0`.
    Lt(u32, u32),
    /// `1` when the first operand is at most the second, else `0`.
    Le(u32, u32),
    /// The second operand where the first is non-zero, else the third.
    Select(u32, u32, u32),
}

/// The compiled basic statement: straight-line ops over named local
/// slots. Produced once per skeleton by the compiler side and shared via
/// the module (`ProcIrModule::kernel`). The empty tape is the empty
/// statement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Kernel {
    pub ops: Vec<KernelOp>,
    /// Slot writebacks applied in order after the tape: `(slot, reg)`.
    pub writes: Vec<(u32, u32)>,
    /// One past the highest local slot the tape or writes touch.
    pub n_slots: u32,
    /// One past the highest index coordinate the tape reads.
    pub n_dims: u32,
}

impl Kernel {
    /// Execute the statement on `lanes` processes at once, laid out
    /// struct-of-arrays: `locals` is `[slot][lane]`, `x` is `[dim][lane]`
    /// and `regs`, scratch of at least `ops.len() × lanes` values,
    /// `[op][lane]`. The tape runs op-outer / lane-inner, then the
    /// writebacks land in `locals`. One lane is one process's locals at
    /// its index point. Arithmetic is two's-complement wrapping, the
    /// overflow law of `ScalarExpr::eval`.
    ///
    /// Always inlined: at the one-lane call sites `lanes` is the constant
    /// 1 and each op compiles to one scalar operation.
    #[inline(always)]
    pub fn run(&self, regs: &mut [Value], locals: &mut [Value], x: &[i64], lanes: usize) {
        let n = lanes;
        for (i, op) in self.ops.iter().enumerate() {
            let (head, tail) = regs.split_at_mut(i * n);
            let dst = &mut tail[..n];
            let reg = |r: u32| &head[r as usize * n..][..n];
            match *op {
                KernelOp::Slot(s) => dst.copy_from_slice(&locals[s as usize * n..][..n]),
                KernelOp::Index(d) => dst.copy_from_slice(&x[d as usize * n..][..n]),
                KernelOp::Const(c) => dst.fill(c),
                KernelOp::Add(a, b) => lanewise(dst, reg(a), reg(b), Value::wrapping_add),
                KernelOp::Sub(a, b) => lanewise(dst, reg(a), reg(b), Value::wrapping_sub),
                KernelOp::Mul(a, b) => lanewise(dst, reg(a), reg(b), Value::wrapping_mul),
                KernelOp::Min(a, b) => lanewise(dst, reg(a), reg(b), Value::min),
                KernelOp::Max(a, b) => lanewise(dst, reg(a), reg(b), Value::max),
                KernelOp::Eq(a, b) => lanewise(dst, reg(a), reg(b), |a, b| (a == b) as Value),
                KernelOp::Lt(a, b) => lanewise(dst, reg(a), reg(b), |a, b| (a < b) as Value),
                KernelOp::Le(a, b) => lanewise(dst, reg(a), reg(b), |a, b| (a <= b) as Value),
                KernelOp::Neg(a) => {
                    for (d, &a) in dst.iter_mut().zip(reg(a)) {
                        *d = a.wrapping_neg();
                    }
                }
                KernelOp::Select(c, a, b) => {
                    let (c, a, b) = (reg(c), reg(a), reg(b));
                    for l in 0..n {
                        dst[l] = if c[l] != 0 { a[l] } else { b[l] };
                    }
                }
            }
        }
        for &(slot, reg) in &self.writes {
            let (src, dst) = (reg as usize * n, slot as usize * n);
            locals[dst..dst + n].copy_from_slice(&regs[src..src + n]);
        }
    }
}

/// One binary op over a lane array.
#[inline(always)]
fn lanewise(dst: &mut [Value], a: &[Value], b: &[Value], f: impl Fn(Value, Value) -> Value) {
    for ((d, &a), &b) in dst.iter_mut().zip(a).zip(b) {
        *d = f(a, b);
    }
}

/// The per-module kernel classification: which wavefront chunks may run
/// through the compiled kernel, and why the rest cannot. Derived once
/// per (module, wavefront plan) and memoized on `CachedModule` beside
/// the batch and wavefront analyses.
///
/// The counts are in the units a reader counts: a chunk holding compute
/// windows is one unit (eligible, or scalar with a reason), a process
/// without a repeater is one unit (scalar, "transport process"); the
/// load and recover windows around a repeater are part of that process,
/// not a fallback of their own.
pub struct KernelPlan {
    /// Whether the module carries a statement (a non-empty tape).
    pub compiled: bool,
    /// Module-wide reject: no compute body, or a tape past
    /// [`KERNEL_MAX_OPS`].
    pub reject: Option<String>,
    /// Per chunk, wave-major (the executor's order): whether it is one
    /// kernel-eligible compute window — the form the executor's per-wave
    /// filter reads.
    pub chunk_ok: Vec<bool>,
    /// Chunks with `chunk_ok[k]`.
    pub eligible_chunks: usize,
    /// Compute chunks that are not eligible, plus transport processes.
    pub scalar_chunks: usize,
    /// Waves containing at least one eligible chunk.
    pub waves_fusable: usize,
    /// Scalar-fallback reasons with unit counts, sorted by descending
    /// count then reason (deterministic for reports).
    fallback_counts: Vec<(String, u64)>,
}

impl KernelPlan {
    pub fn any_eligible(&self) -> bool {
        self.eligible_chunks > 0
    }

    /// Scalar-fallback reasons aggregated over the units.
    pub fn fallbacks(&self) -> Vec<(String, u64)> {
        self.fallback_counts.clone()
    }

    /// The `kernels` section of the metrics report: the static
    /// eligibility split, with `reject` and `fallbacks` only when set.
    pub fn json(&self) -> Json {
        let mut fields = vec![
            ("compiled", self.compiled.into()),
            ("eligible_chunks", self.eligible_chunks.into()),
            ("scalar_chunks", self.scalar_chunks.into()),
            ("waves_fusable", self.waves_fusable.into()),
        ];
        if let Some(r) = &self.reject {
            fields.push(("reject", r.as_str().into()));
        }
        if !self.fallback_counts.is_empty() {
            let item = |(r, n): &(String, u64)| {
                Json::obj([("reason", r.as_str().into()), ("chunks", (*n).into())])
            };
            let fallbacks = self.fallback_counts.iter().map(item);
            fields.push(("fallbacks", Json::arr(fallbacks)));
        }
        Json::obj(fields)
    }

    /// A report seeded with the static analysis; the executor fills in
    /// the runtime counters.
    pub fn report(&self, enabled: bool) -> KernelReport {
        KernelReport {
            enabled,
            compiled: self.compiled,
            reject: self.reject.clone(),
            eligible_chunks: self.eligible_chunks as u64,
            scalar_chunks: self.scalar_chunks as u64,
            fallbacks: self.fallbacks(),
            ..KernelReport::default()
        }
    }
}

/// What the kernel layer did for one run: the static eligibility split
/// plus runtime fusion counters. Kept separate from `RunStats` — the
/// logical stats are equality-pinned across engines, while this report
/// legitimately differs between `--kernel auto` and `off`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelReport {
    /// The mode asked for kernels (`--kernel auto` on a wavefront run).
    pub enabled: bool,
    /// The module carries a statement (a non-empty tape).
    pub compiled: bool,
    /// Why not, when it does not.
    pub reject: Option<String>,
    pub eligible_chunks: u64,
    pub scalar_chunks: u64,
    /// Wave visits that retired at least one kernel batch.
    pub waves_fused: u64,
    /// Kernel batches executed (one gather/tape/scatter cycle).
    pub batches: u64,
    /// Lane-visits across those batches.
    pub lanes: u64,
    /// Compute iterations retired on the kernel path.
    pub iterations: u64,
    /// Scalar-fallback reasons with chunk counts.
    pub fallbacks: Vec<(String, u64)>,
}

/// Classify every chunk of a wavefront plan against the module's
/// compiled kernel. Pure structural analysis, O(windows); runs once
/// per module and is memoized upstream.
pub fn analyze_kernels(module: &ProcIrModule, plan: &WavefrontPlan) -> KernelPlan {
    let ops = module.kernel.ops.len();
    let module_reject = match ops {
        0 => Some("transport-only module (no compute body)".to_string()),
        1..=KERNEL_MAX_OPS => None,
        _ => Some(format!(
            "kernel tape of {ops} ops exceeds the {KERNEL_MAX_OPS}-op cap (runs one lane wide)"
        )),
    };
    let mut chunk_ok = vec![false; plan.n_chunks()];
    let mut fallback_counts: Vec<(String, u64)> = Vec::new();
    let mut fall_back =
        |reason: String, units: u64| match fallback_counts.iter_mut().find(|(r, _)| *r == reason) {
            Some((_, n)) => *n += units,
            None => fallback_counts.push((reason, units)),
        };
    let mut computes = vec![false; module.procs.len()];
    let (mut eligible, mut scalar, mut waves_fusable) = (0usize, 0usize, 0usize);
    for w in 0..plan.n_waves() {
        let before = eligible;
        for k in plan.wave(w) {
            let windows = plan.chunk(k);
            let mut n_compute = 0usize;
            for win in windows.iter().filter(|win| win.is_compute(module)) {
                computes[win.pid as usize] = true;
                n_compute += 1;
            }
            if n_compute == 0 {
                continue;
            }
            match chunk_eligibility(module, windows, n_compute, &module_reject) {
                None => {
                    chunk_ok[k] = true;
                    eligible += 1;
                }
                Some(reason) => {
                    scalar += 1;
                    fall_back(reason, 1);
                }
            }
        }
        waves_fusable += (eligible > before) as usize;
    }
    let transport = computes.iter().filter(|&&c| !c).count();
    if transport > 0 {
        let reason = module_reject.clone();
        let reason = reason.unwrap_or_else(|| "transport process (no compute op)".into());
        fall_back(reason, transport as u64);
    }
    fallback_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    KernelPlan {
        compiled: ops > 0,
        reject: module_reject,
        chunk_ok,
        eligible_chunks: eligible,
        scalar_chunks: scalar + transport,
        waves_fusable,
        fallback_counts,
    }
}

/// Why a chunk holding `n_compute` compute windows must stay scalar;
/// `None` when it is one window the kernel batch can take.
fn chunk_eligibility(
    module: &ProcIrModule,
    windows: &[Window],
    n_compute: usize,
    module_reject: &Option<String>,
) -> Option<String> {
    if let Some(r) = module_reject {
        return Some(r.clone());
    }
    if windows.len() != 1 {
        return Some(format!("cyclic chunk ({n_compute} compute windows)"));
    }
    let pid = windows[0].pid as usize;
    let links = module.moving_of(pid);
    if links.is_empty() {
        return Some("repeater without moving links".into());
    }
    let distinct = links
        .iter()
        .enumerate()
        .all(|(i, a)| links[..i].iter().all(|b| a.inp != b.inp && a.out != b.out));
    if !distinct {
        return Some("aliased moving rings".into());
    }
    if module.kernel.n_slots > module.procs[pid].n_locals {
        return Some("kernel slots exceed process locals".into());
    }
    if module.kernel.n_dims as usize > module.first_of(pid).len() {
        return Some("kernel index rank exceeds repeater rank".into());
    }
    None
}

/// Reusable struct-of-arrays scratch, part of the thread's `RunArena`:
/// every buffer is laid out lane-contiguous (`[field][lane]`, or
/// `[link][lane][iter]` for the ring payloads) so the tape's inner loops
/// run over dense arrays, and reused across batches and runs so the
/// steady state allocates nothing.
#[derive(Default)]
pub(crate) struct KernelScratch {
    locals: Vec<Value>,
    x: Vec<i64>,
    incr: Vec<i64>,
    /// The tape's registers, `[op][lane]` — also the one-lane register
    /// file of the scalar macro-step (`crate::arena`).
    pub(crate) regs: Vec<Value>,
    inb: Vec<Value>,
    outb: Vec<Value>,
    /// The batch's moving links (shared by every lane): the local slot,
    /// and the link's row of `outb` when the values sent differ from the
    /// values received — the tape writes the slot, or a later link loads
    /// over it.
    link_slots: Vec<(u32, Option<usize>)>,
    /// The runner indices batched this round.
    lanes: Vec<usize>,
    /// The candidates for the next round's phase 1.
    cand: Vec<usize>,
}

impl KernelScratch {
    /// Bytes held (capacities), for `RunArena::footprint_bytes`.
    pub(crate) fn footprint_bytes(&self) -> usize {
        let words = self.locals.capacity()
            + self.x.capacity()
            + self.incr.capacity()
            + self.regs.capacity()
            + self.inb.capacity()
            + self.outb.capacity();
        words * std::mem::size_of::<Value>()
            + self.link_slots.capacity() * std::mem::size_of::<(u32, Option<usize>)>()
            + (self.lanes.capacity() + self.cand.capacity()) * std::mem::size_of::<usize>()
    }
}

/// Execute one wave's kernel-eligible dirty chunks as struct-of-arrays
/// batches, then leave them for the ordinary chunk sweep (which steps
/// each process past its exhausted repeater and certifies the wave
/// fixpoint). Returns whether any batch retired work.
///
/// The loop alternates two phases until no lane can advance: find the
/// lanes standing at their kernel point — the compute window is
/// startable (its load window retired in an earlier wave) and at a fresh
/// iteration boundary — then batch them over the minimum number of
/// iterations every lane's rings can serve.
///
/// Two things are decided per batch from the tape, not per design. A
/// moving link whose slot the tape never writes sends exactly what it
/// received, so its output ring is filled from the gathered input and no
/// per-iteration snapshot is taken (`a` and `b` of every matmul). And a
/// tape that reads no index coordinate (`n_dims == 0`) leaves the index
/// points out of the batch altogether: each lane's point advances once,
/// by `iters × increment`.
pub(crate) fn kernel_wave(
    module: &ProcIrModule,
    plan: &WavefrontPlan,
    work: impl Iterator<Item = usize>,
    chunks: &mut [ChunkState],
    arena: &mut RunArena,
    stats: &mut RunStats,
    report: &mut KernelReport,
) -> bool {
    let mut ran = false;
    let kernel = &*module.kernel;
    let RunArena {
        regs: vm,
        locals: vm_locals,
        x: vm_x,
        rings,
        scratch,
        ..
    } = arena;
    let KernelScratch {
        locals,
        x,
        incr,
        regs,
        inb,
        outb,
        link_slots,
        lanes,
        cand,
    } = scratch;
    let pid_of = |k: usize| plan.chunk(k)[0].pid as usize;
    // Round 1 considers the whole worklist; later rounds revisit only the
    // lanes that just batched. Another lane of the wave advances with them
    // only if it shares a ring with one (their value runs do not overlap,
    // or an edge would have put them in different waves) and stood blocked
    // on it; the scalar sweep behind this call picks that lane up.
    cand.clear();
    cand.extend(work);
    loop {
        // Phase 1: the lanes at their kernel point, and the joint batch
        // size.
        lanes.clear();
        let mut iters = u64::MAX;
        for &k in cand.iter() {
            let window = plan.chunk(k)[0];
            let pid = window.pid as usize;
            let Some(remaining) = vm[pid].kernel_point(module, pid, window.start) else {
                continue;
            };
            let mut m = remaining;
            for mc in module.moving_of(pid) {
                m = m.min(rings.len(mc.inp) as u64);
                m = m.min(rings.free(mc.out) as u64);
            }
            if m == 0 {
                continue;
            }
            lanes.push(k);
            iters = iters.min(m);
        }
        if lanes.is_empty() {
            return ran;
        }

        // Defensive homogeneity check: every lane must share the moving
        // slot layout, local count, and index rank of the first (true by
        // construction — one basic statement, one stream set — but a
        // mismatch must degrade to scalar, not corrupt the batch).
        let first = pid_of(lanes[0]);
        let n_locals = module.procs[first].n_locals as usize;
        let dims = module.first_of(first).len();
        let links = module.moving_of(first);
        link_slots.clear();
        let mut n_changed = 0;
        link_slots.extend(links.iter().enumerate().map(|(j, mc)| {
            let written = kernel.writes.iter().any(|&(slot, _)| slot == mc.slot);
            let clobbered = links[j + 1..].iter().any(|later| later.slot == mc.slot);
            let row = (written || clobbered).then_some(n_changed);
            n_changed += row.is_some() as usize;
            (mc.slot, row)
        }));
        let n_links = link_slots.len();
        lanes.retain(|&k| {
            let pid = pid_of(k);
            let links = module.moving_of(pid);
            module.procs[pid].n_locals as usize == n_locals
                && module.first_of(pid).len() == dims
                && links.len() == n_links
                && links
                    .iter()
                    .zip(link_slots.iter())
                    .all(|(mc, &(slot, _))| mc.slot == slot)
        });
        let lane_n = lanes.len();
        let iters = iters as usize;
        // The index points ride along only when the tape reads them.
        let x_dims = if kernel.n_dims > 0 { dims } else { 0 };

        // Phase 2: gather — locals, index points, increments, and all
        // `iters` ring heads per link, popped in FIFO order. One
        // capacity decision for the whole batch was made above.
        locals.resize(n_locals * lane_n, 0);
        x.resize(x_dims * lane_n, 0);
        incr.resize(x_dims * lane_n, 0);
        regs.resize(kernel.ops.len() * lane_n, 0);
        inb.resize(n_links * lane_n * iters, 0);
        outb.resize(n_changed * lane_n * iters, 0);
        for (li, &k) in lanes.iter().enumerate() {
            chunks[k].moved += (n_links * iters) as u64;
            let pid = pid_of(k);
            let r = &vm[pid];
            if x_dims > 0 {
                for (d, &inc) in module.increment_of(pid).iter().enumerate() {
                    incr[d * lane_n + li] = inc;
                }
                for (d, &xv) in vm_x[r.x as usize..][..dims].iter().enumerate() {
                    x[d * lane_n + li] = xv;
                }
            }
            for (s, &v) in vm_locals[r.locals as usize..][..n_locals]
                .iter()
                .enumerate()
            {
                locals[s * lane_n + li] = v;
            }
            for (j, mc) in module.moving_of(pid).iter().enumerate() {
                let base = (j * lane_n + li) * iters;
                rings.pop_many(mc.inp, &mut inb[base..base + iters]);
            }
        }

        // Phase 3: the tape. Each iteration feeds the moving slots from
        // the gathered ring values, runs the tape over dense lane arrays,
        // snapshots the moving slots that changed for the scatter, and
        // advances the index points — exactly one loop-summarized macro
        // iteration, batched.
        for it in 0..iters {
            for (j, &(slot, _)) in link_slots.iter().enumerate() {
                let src = j * lane_n * iters;
                let dst = slot as usize * lane_n;
                for li in 0..lane_n {
                    locals[dst + li] = inb[src + li * iters + it];
                }
            }
            kernel.run(regs, locals, x, lane_n);
            for &(slot, row) in link_slots.iter() {
                let Some(row) = row else { continue };
                let dst = row * lane_n * iters;
                let src = slot as usize * lane_n;
                for li in 0..lane_n {
                    outb[dst + li * iters + it] = locals[src + li];
                }
            }
            for (xv, &inc) in x.iter_mut().zip(incr.iter()) {
                *xv = xv.wrapping_add(inc);
            }
        }

        // Phase 4: scatter — push the produced values in FIFO order (a
        // link that sends what it received, straight from its gathered
        // input), write the locals / index points / iteration counter
        // back, and account the batch exactly as `iters` loop-summarized
        // macro iterations would have (one step per par-set, one message
        // per pushed value, one `moved` tick per ring touch).
        for (li, &k) in lanes.iter().enumerate() {
            let pid = pid_of(k);
            for (j, mc) in module.moving_of(pid).iter().enumerate() {
                let sent = match link_slots[j].1 {
                    Some(row) => &outb[(row * lane_n + li) * iters..][..iters],
                    None => &inb[(j * lane_n + li) * iters..][..iters],
                };
                rings.push_many(mc.out, sent);
            }
            let r = &mut vm[pid];
            for (s, lv) in vm_locals[r.locals as usize..][..n_locals]
                .iter_mut()
                .enumerate()
            {
                *lv = locals[s * lane_n + li];
            }
            let increment = module.increment_of(pid);
            for (d, xv) in vm_x[r.x as usize..][..dims].iter_mut().enumerate() {
                *xv = match x_dims {
                    0 => xv.wrapping_add(increment[d].wrapping_mul(iters as i64)),
                    _ => x[d * lane_n + li],
                };
            }
            r.t += iters as i64;
            stats.steps += 2 * iters as u64;
            stats.messages += (n_links * iters) as u64;
            chunks[k].moved += (n_links * iters) as u64;
        }

        ran = true;
        report.batches += 1;
        report.lanes += lane_n as u64;
        report.iterations += (lane_n * iters) as u64;
        std::mem::swap(lanes, cand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use KernelOp::*;

    /// One lane of `k` on `locals` at `x`.
    fn run1(k: &Kernel, locals: &mut [Value], x: &[i64]) {
        k.run(&mut vec![0; k.ops.len()], locals, x, 1);
    }

    #[test]
    fn one_lane_matches_hand_evaluation() {
        // c := c + a*b, then a := -a  (sequential: the second update
        // sees the original a, the writeback order is the update order).
        let k = Kernel {
            ops: vec![Slot(2), Slot(0), Slot(1), Mul(1, 2), Add(0, 3), Neg(1)],
            writes: vec![(2, 4), (0, 5)],
            n_slots: 3,
            n_dims: 0,
        };
        let mut locals = vec![3, 5, 10];
        run1(&k, &mut locals, &[]);
        assert_eq!(locals, vec![-3, 5, 25]);
    }

    #[test]
    fn index_reads_see_the_current_point() {
        // out := x0 + x1
        let k = Kernel {
            ops: vec![Index(0), Index(1), Add(0, 1)],
            writes: vec![(0, 2)],
            n_slots: 1,
            n_dims: 2,
        };
        let mut locals = vec![0];
        run1(&k, &mut locals, &[7, 35]);
        assert_eq!(locals, vec![42]);
    }

    #[test]
    fn compares_are_zero_or_one_and_select_picks_per_lane() {
        // s1 := select(s0 <= x0, s0 == x0, s1 < s0) over three lanes.
        let k = Kernel {
            ops: vec![
                Slot(0),
                Index(0),
                Le(0, 1),
                Eq(0, 1),
                Slot(1),
                Lt(4, 0),
                Select(2, 3, 5),
            ],
            writes: vec![(1, 6)],
            n_slots: 2,
            n_dims: 1,
        };
        // `[slot][lane]`: s0 = 4, 5, 6; s1 = 9, -1, 7; x0 = 5 each.
        let mut locals = vec![4, 5, 6, 9, -1, 7];
        k.run(&mut [0; 21], &mut locals, &[5, 5, 5], 3);
        assert_eq!(locals, vec![4, 5, 6, 0, 1, 0]);
        // An empty tape is the empty statement.
        run1(&Kernel::default(), &mut locals, &[]);
        assert_eq!(locals, vec![4, 5, 6, 0, 1, 0]);
    }
}
