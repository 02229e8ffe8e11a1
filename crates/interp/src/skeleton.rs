//! Two-phase elaboration — the one place a [`SystolicProgram`] becomes
//! channels and processes: a size-parametric ProcIR skeleton compiled
//! once per (plan, options), instantiated at any concrete problem size
//! in near-linear time.
//!
//! The paper's derivation is symbolic in the problem size, and the only
//! per-size facts are integers: the PS box corners, the pipe contents,
//! and the soak/count/drain values at each point. Phase 1
//! ([`elaborate_skeleton`]) runs everything that does *not* depend on
//! the size bound: it partially evaluates every schedule quantity over
//! the **extended** dimension vector `coordinates ++ sizes`
//! (`systolic_math::speceval` keeps the listed variables symbolic as
//! integer coefficients), captures each stream's unit flow, relay
//! count, and element increment, and compiles the basic statement to its
//! kernel tape once.
//! Phase 2 ([`instantiate`]) binds the size values into the tail of one
//! evaluation vector and sweeps the now-concrete PS box with pure
//! integer arithmetic — no parsing, no rational solving, no symbolic
//! clause selection.
//!
//! The construction follows Appendix C's channel discipline — stream `s`
//! has a channel family along its flow, `s_chan[y]` connecting
//! `y - flow.s -> y` — realized as one FIFO pipe per equivalence class of
//! process-space points under translation by the stream's unit flow. Each
//! pipe gets an input process at its upstream end, `d - 1` relay buffers
//! ahead of every process for a flow of denominator `d` (Sec. 7.6,
//! "inserted in between each computation process ... for the sake of
//! regularity" also ahead of the first), and an output process downstream.
//!
//! Nothing mirrors this pass, so nothing is checked by comparing it with
//! a copy of itself. The independent references are
//! `crate::runtime_gen::scan` (a brute-force index-space scan the
//! lowered soak/count/drain must match), the plan's own rational
//! `Piecewise` evaluators (`first_at` / `count_at`), the sequential
//! evaluator `systolic_ir::seq` (every executor's stores), and
//! `systolic_math::speceval`'s unit test that size-parametric and
//! size-bound specialization agree; `tests/elaboration.rs` holds the
//! first two against every corpus design, size and options variant. The
//! channel tables the sweep records are held to the module's ops by
//! `systolic_runtime::check` (on every instantiation in debug builds, and
//! in `tests/batching.rs`).
//!
//! Skeletons are immutable and `Arc`-shared; the module cache
//! (`crate::cache`) sits in front of both phases, and
//! [`crate::elaborate::elaborate`] is their uncached composition.

use crate::elaborate::{
    Census, ChanAlloc, ElabError, ElabOptions, Elaborated, Endpoints, OutputSpec, PsIndex,
};
use std::sync::Arc;
use systolic_core::{StreamKind, SystolicProgram};
use systolic_ir::HostStore;
use systolic_math::speceval::{SpecCount, SpecPoint};
use systolic_math::{point, Env, Var};
use systolic_runtime::{ChanId, Kernel, MovingLink, ProcIrBuilder, ProcOp, MAX_MOVING_LINKS};

/// Everything phase 2 needs about one stream, with every schedule
/// quantity specialized over the extended dimension vector.
struct StreamSkeleton {
    /// `StreamId` index — the row of the endpoint tables.
    id: usize,
    name: String,
    kind: StreamKind,
    unit_flow: Vec<i64>,
    increment_s: Vec<i64>,
    /// Internal relay buffers per chain element (`denominator - 1`,
    /// already gated by [`ElabOptions::internal_buffers`]).
    relays: i64,
    first_s: SpecPoint,
    last_s: SpecPoint,
    soak: SpecCount,
    drain: SpecCount,
}

/// A size-parametric ProcIR skeleton: phase 1's output, consumed by
/// [`instantiate`] at each concrete size.
pub struct SkeletonModule {
    opts: ElabOptions,
    /// Process-space dimensionality (`r - 1`): the evaluation vector is
    /// `[y_0 .. y_{n_coords-1}, size_0 .. size_{k-1}]`.
    n_coords: usize,
    /// The size symbols, in `SourceProgram::sizes` order — the tail of
    /// the evaluation vector.
    size_vars: Vec<Var>,
    ps_min: Vec<systolic_math::speceval::SpecAffine>,
    ps_max: Vec<systolic_math::speceval::SpecAffine>,
    first: SpecPoint,
    count: SpecCount,
    increment: Vec<i64>,
    /// `plan.streams.len()`, the computation processes' local-slot count.
    n_slots: u32,
    /// `max(StreamId) + 1`, the endpoint-table row count.
    n_streams: usize,
    streams: Vec<StreamSkeleton>,
    /// The basic statement's kernel tape, compiled once per plan
    /// (size-independent), carried into every instantiated module.
    kernel: Arc<Kernel>,
    /// [`Elaborated::wide`], the same at every size.
    wide: Option<String>,
}

impl SkeletonModule {
    pub fn options(&self) -> &ElabOptions {
        &self.opts
    }
}

/// Phase 1: compile `plan` into a size-parametric skeleton. Everything
/// symbolic is partially evaluated here — over the extended dimension
/// vector `plan.coords ++ plan.source.sizes`, with an empty environment,
/// so a variable outside that vector panics now (at compile) rather than
/// at some instantiation later.
pub fn elaborate_skeleton(plan: &SystolicProgram, opts: &ElabOptions) -> Arc<SkeletonModule> {
    use systolic_math::speceval::SpecAffine;
    let mut dims: Vec<Var> = plan.coords.clone();
    dims.extend(plan.source.sizes.iter().copied());
    let env = Env::new();
    let moving = plan
        .streams
        .iter()
        .filter(|s| s.kind == StreamKind::Moving)
        .count();
    let wide = (moving > MAX_MOVING_LINKS).then(|| {
        format!(
            "{moving} moving streams exceed the {MAX_MOVING_LINKS}-link par-set mask \
             (runs on the rendezvous engine)"
        )
    });
    let streams = plan
        .streams
        .iter()
        .map(|sp| StreamSkeleton {
            id: sp.id.0,
            name: sp.name.clone(),
            kind: sp.kind.clone(),
            unit_flow: sp.unit_flow.clone(),
            increment_s: sp.increment_s.clone(),
            relays: if opts.internal_buffers {
                sp.denominator - 1
            } else {
                0
            },
            first_s: SpecPoint::of_points(&sp.first_s, &dims, &env),
            last_s: SpecPoint::of_points(&sp.last_s, &dims, &env),
            soak: SpecCount::of(&sp.soak, &dims, &env),
            drain: SpecCount::of(&sp.drain, &dims, &env),
        })
        .collect();
    Arc::new(SkeletonModule {
        opts: opts.clone(),
        n_coords: plan.coords.len(),
        size_vars: plan.source.sizes.clone(),
        ps_min: plan
            .ps_min
            .iter()
            .map(|a| SpecAffine::compile(a, &dims, &env))
            .collect(),
        ps_max: plan
            .ps_max
            .iter()
            .map(|a| SpecAffine::compile(a, &dims, &env))
            .collect(),
        first: SpecPoint::of_points(&plan.first, &dims, &env),
        count: SpecCount::of(&plan.count, &dims, &env),
        increment: plan.increment.clone(),
        n_slots: plan.streams.len() as u32,
        n_streams: plan.streams.iter().map(|s| s.id.0 + 1).max().unwrap_or(0),
        streams,
        kernel: Arc::new(crate::kernelize::kernelize(&plan.source.body)),
        wide,
    })
}

/// Phase 2: materialize channels, processes, and endpoint tables for the
/// concrete size bound in `env`, reading initial stream data from
/// `store` — and recording, in the same pass, where in `store` each word
/// came from ([`Elaborated::host_words`]), so that a later run reads its
/// own data into the same network, and each channel's ends and traffic
/// ([`Elaborated::channels`]). Every symbolic query is a prebaked
/// integer form evaluated at `[y ++ sizes]`, and the sweep walks the PS
/// box through scratch points: nothing is allocated per point but the
/// process labels.
///
/// The channel tables rest on one law, checked here on the values
/// emitted: every process on a pipe handles every element of it — a
/// relay all `n` (eq. 10), a computation process soak + count + drain
/// of a moving stream (eqs. 8–9) and 1 + drain + soak of a stationary
/// one. A point that breaks it is [`ElabError::UnbalancedPipe`].
pub fn instantiate(
    skel: &SkeletonModule,
    env: &Env,
    store: &HostStore,
) -> Result<Elaborated, ElabError> {
    let nc = skel.n_coords;
    // One evaluation vector for every query below: the size tail is
    // fixed for the whole sweep, the coordinate head is overwritten per
    // point.
    let mut yx = vec![0i64; nc + skel.size_vars.len()];
    for (slot, &v) in yx[nc..].iter_mut().zip(&skel.size_vars) {
        *slot = env.expect(v);
    }
    let ps: Vec<(i64, i64)> = skel
        .ps_min
        .iter()
        .zip(&skel.ps_max)
        .map(|(lo, hi)| (lo.eval_int(&yx), hi.eval_int(&yx)))
        .collect();
    let psidx = PsIndex::new(&ps);
    let volume = psidx.len();
    let opts = &skel.opts;

    let (mut b, n_chans) = builder_for(skel, store, &ps);
    let mut chans = ChanAlloc::with_capacity(n_chans);
    let mut outputs = Vec::new();
    let mut host_words: Vec<u32> = Vec::new();
    let mut census = Census::default();
    // [stream id * volume + PS offset] -> (in_chan, out_chan); every
    // in-PS point of every stream lies on exactly one pipe chain, so the
    // table is fully populated by the pipe walks below.
    let mut endpoint = vec![(ChanId::MAX, ChanId::MAX); skel.n_streams * volume];
    // [stream id * volume + PS offset] -> pipe element count
    let mut pipe_n = vec![0usize; skel.n_streams * volume];

    struct PipeIo {
        entry: ChanId,
        exit: ChanId,
        /// PS offsets of the pipe's first and last process.
        head: usize,
        tail: usize,
        /// The pipe's range of the stream's `words`.
        words: (usize, usize),
    }
    // Scratch, reused for every pipe of every stream: a PS point, a
    // stream element, the pipe's end elements, the flat offset into the
    // variable's array of each pipe element (pipe after pipe), and a
    // decoded point for labels.
    let mut z = vec![0i64; nc];
    let mut e: Vec<i64> = Vec::new();
    let (mut first_s, mut last_s) = (Vec::new(), Vec::new());
    let mut words: Vec<u32> = Vec::new();
    let mut pipe_ios: Vec<PipeIo> = Vec::new();
    let mut at_point = vec![0i64; nc];

    for sp in &skel.streams {
        let u = &sp.unit_flow;
        let var = store
            .try_get(&sp.name)
            .ok_or_else(|| ElabError::MissingVariable {
                variable: sp.name.clone(),
            })?;
        let row = sp.id * volume;
        words.clear();
        pipe_ios.clear();
        let mut walk = psidx.walk();
        while let Some((head_at, head)) = walk.next() {
            for ((x, &h), &d) in z.iter_mut().zip(head).zip(u) {
                *x = h - d;
            }
            if psidx.contains(&z) {
                continue; // not the upstream end of a pipe
            }
            yx[..nc].copy_from_slice(head);
            let from = words.len();
            if sp.first_s.point_into(&yx, &mut first_s) && sp.last_s.point_into(&yx, &mut last_s) {
                for (l, &f) in last_s.iter_mut().zip(&first_s) {
                    *l -= f;
                }
                let k = point::exact_div(&last_s, &sp.increment_s).ok_or_else(|| {
                    ElabError::MisalignedPipe {
                        stream: sp.name.clone(),
                        head: head.to_vec(),
                    }
                })?;
                if k < 0 {
                    return Err(ElabError::ReversedPipe {
                        stream: sp.name.clone(),
                        head: head.to_vec(),
                    });
                }
                e.clone_from(&first_s);
                for _ in 0..=k {
                    let at = var
                        .flat_offset(&e)
                        .ok_or_else(|| ElabError::ElementOutOfBounds {
                            variable: sp.name.clone(),
                            element: e.clone(),
                        })?;
                    words.push(at as u32);
                    for (x, &i) in e.iter_mut().zip(&sp.increment_s) {
                        *x += i;
                    }
                }
            }
            let n = words.len() - from;

            // Pipe entry channel and chain with relays ahead of every
            // process; every channel of the pipe carries all `n`.
            let entry = chans.next(n);
            let mut prev = entry;
            let mut tail = 0;
            z.copy_from_slice(head);
            while psidx.contains(&z) {
                tail = psidx.at(&z);
                pipe_n[row + tail] = n;
                for r in 0..sp.relays {
                    let nxt = chans.next(n);
                    let buf = label(format_args!("buf{r}:{}", sp.name), &z);
                    chans.link(b.relay(prev, nxt, n, buf), prev, nxt);
                    census.internal_buffers += 1;
                    prev = nxt;
                }
                let out = chans.next(n);
                endpoint[row + tail] = (prev, out);
                prev = out;
                for (x, &d) in z.iter_mut().zip(u) {
                    *x += d;
                }
            }
            pipe_ios.push(PipeIo {
                entry,
                exit: prev,
                head: head_at,
                tail,
                words: (from, words.len()),
            });
        }

        // Emit i/o processes: one per pipe (the paper's abstract layout)
        // or merged per stream (the deferred optimization). Either way
        // the words an input process sends are the words its output
        // process collects, in order: `host_words` grows in step with
        // the module's data segment.
        let raw = var.raw();
        let words_of = |p: &PipeIo| &words[p.words.0..p.words.1];
        if opts.merge_io {
            let max_len = pipe_ios
                .iter()
                .map(|p| words_of(p).len())
                .max()
                .unwrap_or(0);
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            let from = host_words.len() as u32;
            for t in 0..max_len {
                for p in &pipe_ios {
                    if let Some(&at) = words_of(p).get(t) {
                        sends.push((p.entry, raw[at as usize]));
                        recvs.push(p.exit);
                        host_words.push(at);
                    }
                }
            }
            let input = b.scripted_source(&sends, format!("in:{}", sp.name));
            let (output, out) = b.scripted_sink(&recvs, format!("out:{}", sp.name));
            for p in &pipe_ios {
                chans.send(input, p.entry);
                chans.recv(output, p.exit);
            }
            census.inputs += 1;
            census.outputs += 1;
            outputs.push(OutputSpec {
                variable: sp.name.clone(),
                output: out,
                words: (from, host_words.len() as u32),
            });
        } else {
            for p in &pipe_ios {
                let ws = words_of(p);
                psidx.point_of(p.head, &mut at_point);
                b.begin(label(format_args!("in:{}", sp.name), &at_point));
                for &at in ws {
                    b.emit(p.entry, raw[at as usize]);
                }
                chans.send(b.finish(), p.entry);
                census.inputs += 1;
                psidx.point_of(p.tail, &mut at_point);
                let out_label = label(format_args!("out:{}", sp.name), &at_point);
                let (output, out) = b.sink(p.exit, ws.len(), out_label);
                chans.recv(output, p.exit);
                census.outputs += 1;
                let from = host_words.len() as u32;
                host_words.extend_from_slice(ws);
                outputs.push(OutputSpec {
                    variable: sp.name.clone(),
                    output: out,
                    words: (from, host_words.len() as u32),
                });
            }
        }
    }

    // Processes at every PS point, querying the prebaked integer forms.
    let mut comp_coords = Vec::new();
    let mut comp_pids = Vec::new();
    let mut first = Vec::new();
    let mut moving: Vec<MovingLink> = Vec::new();
    let mut soaks: Vec<ProcOp> = Vec::new();
    // Per stream at the current point: (soak, drain), clamped.
    let mut passes: Vec<(usize, usize)> = Vec::with_capacity(skel.streams.len());
    let mut walk = psidx.walk();
    while let Some((yi, y)) = walk.next() {
        yx[..nc].copy_from_slice(y);
        let ends = |sp: &StreamSkeleton| endpoint[sp.id * volume + yi];
        if skel.first.point_into(&yx, &mut first) {
            // Computation process: the canonical load / soak / repeater /
            // drain / recover shape of Appendix C–E, less every pass of
            // count 0. The law first, on the clamped counts it emits.
            let count = skel.count.at(&yx).max(0) as usize;
            passes.clear();
            for sp in &skel.streams {
                let soak = sp.soak.at(&yx).max(0) as usize;
                let drain = sp.drain.at(&yx).max(0) as usize;
                let used = match sp.kind {
                    StreamKind::Moving => count,
                    StreamKind::Stationary { .. } => 1,
                };
                let (handled, pipe) = (soak + used + drain, pipe_n[sp.id * volume + yi]);
                if handled != pipe {
                    return Err(ElabError::UnbalancedPipe {
                        stream: sp.name.clone(),
                        point: y.to_vec(),
                        handled,
                        pipe,
                    });
                }
                passes.push((soak, drain));
            }
            // Pre-pass over the moving streams: split propagation's escort
            // relays are separate processes and lower before the
            // computation process opens; the paper protocol's soaks are
            // ops queued for it.
            moving.clear();
            soaks.clear();
            for (sp, &(soak, drain)) in skel.streams.iter().zip(&passes) {
                if sp.kind == StreamKind::Moving {
                    let (ic, oc) = ends(sp);
                    if opts.split_propagation {
                        let cs = chans.next(count); // splitter -> comp
                        let cm = chans.next(count); // comp -> merger
                        let sm = chans.next(soak + drain); // splitter -> merger
                        let split = b.segment_relay(
                            &[(ic, sm, soak), (ic, cs, count), (ic, sm, drain)],
                            label(format_args!("split:{}", sp.name), y),
                        );
                        chans.link(split, ic, cs);
                        chans.send(split, sm);
                        let merge = b.segment_relay(
                            &[(sm, oc, soak), (cm, oc, count), (sm, oc, drain)],
                            label(format_args!("merge:{}", sp.name), y),
                        );
                        chans.link(merge, sm, oc);
                        chans.recv(merge, cm);
                        census.escorts += 2;
                        moving.push(MovingLink {
                            slot: sp.id as u32,
                            inp: cs,
                            out: cm,
                        });
                    } else {
                        soaks.extend(pass(ic, oc, soak));
                        moving.push(MovingLink {
                            slot: sp.id as u32,
                            inp: ic,
                            out: oc,
                        });
                    }
                }
            }
            b.begin(label(format_args!("comp"), y));
            // Loads.
            for (sp, &(_, drain)) in skel.streams.iter().zip(&passes) {
                if let StreamKind::Stationary { .. } = sp.kind {
                    let (ic, oc) = ends(sp);
                    b.op(ProcOp::Keep {
                        chan: ic,
                        slot: sp.id as u32,
                    });
                    b.ops(pass(ic, oc, drain));
                }
            }
            // Soaks (paper protocol; escorts already handle them under
            // split propagation).
            b.ops(soaks.iter().copied());
            b.op(ProcOp::Compute {
                count: count as u64,
            });
            // Drains (paper protocol only; escorts already handle them).
            if !opts.split_propagation {
                for (sp, &(_, drain)) in skel.streams.iter().zip(&passes) {
                    if sp.kind == StreamKind::Moving {
                        let (ic, oc) = ends(sp);
                        b.ops(pass(ic, oc, drain));
                    }
                }
            }
            // Recoveries.
            for (sp, &(soak, _)) in skel.streams.iter().zip(&passes) {
                if let StreamKind::Stationary { .. } = sp.kind {
                    let (ic, oc) = ends(sp);
                    b.ops(pass(ic, oc, soak));
                    b.op(ProcOp::Eject {
                        chan: oc,
                        slot: sp.id as u32,
                    });
                }
            }
            b.repeater(&moving, &first, &skel.increment, skel.n_slots);
            let comp = b.finish();
            for mc in &moving {
                chans.link(comp, mc.inp, mc.out);
            }
            for sp in &skel.streams {
                if let StreamKind::Stationary { .. } = sp.kind {
                    let (ic, oc) = ends(sp);
                    chans.link(comp, ic, oc);
                }
            }
            comp_pids.push(comp);
            comp_coords.extend_from_slice(y);
            census.computation += 1;
        } else {
            // Null process: external buffer, one relay per stream
            // (the paper composes the passes in `par`; independent relay
            // processes are the same composition).
            for sp in &skel.streams {
                let (ic, oc) = ends(sp);
                let n = pipe_n[sp.id * volume + yi];
                let buf = label(format_args!("extbuf:{}", sp.name), y);
                chans.link(b.relay(ic, oc, n, buf), ic, oc);
                census.external_buffers += 1;
            }
        }
    }

    // Every channel allocated exists, even one no op names — a
    // zero-length pipe's, or an escort's that carries nothing: the
    // endpoint and channel tables hold it.
    b.declare_chans(chans.len());
    census.channels = chans.len();
    b.set_kernel(skel.kernel.clone());
    let module = b.build();
    debug_assert_eq!(host_words.len(), module.data.len());
    debug_assert_eq!(systolic_runtime::check(&module, &chans.0), Ok(()));
    Ok(Elaborated {
        module,
        outputs,
        host_words,
        census,
        endpoints: Endpoints {
            ps: psidx,
            streams: skel.streams.iter().map(|sp| sp.id).collect(),
            chans: endpoint,
        },
        channels: chans.0,
        wide: skel.wide.clone(),
        comp_coords,
        comp_pids,
    })
}

/// `pass s, n` — or nothing for `n = 0`, which has nothing to run (a
/// zero pass retires no communication set on any engine).
fn pass(inp: ChanId, out: ChanId, n: usize) -> Option<ProcOp> {
    (n > 0).then_some(ProcOp::Pass {
        inp,
        out,
        n: n as u64,
    })
}

/// A process label, `{head}@{y}`, written into one string.
fn label(head: std::fmt::Arguments<'_>, y: &[i64]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(24);
    let _ = s.write_fmt(head);
    s.push('@');
    point::write_point(&mut s, y);
    s
}

/// A builder sized from what is known before the sweep: every PS point
/// holds a process (a computation process, or an external buffer per
/// stream) behind its internal relays, every pipe has a source and a
/// sink, and every word of a stream's array travels once — emitted,
/// then collected.
fn builder_for(
    skel: &SkeletonModule,
    store: &HostStore,
    ps: &[(i64, i64)],
) -> (ProcIrBuilder, usize) {
    let len = |(lo, hi): (i64, i64)| (hi - lo + 1).max(0) as usize;
    let volume: usize = ps.iter().map(|&d| len(d)).product();
    // Points whose upstream neighbour along `u` leaves the box head a pipe.
    let heads = |u: &[i64]| {
        let inner = ps
            .iter()
            .zip(u)
            .map(|(&(lo, hi), &d)| len((lo, hi - d.abs())));
        volume - inner.product::<usize>()
    };
    let (mut procs, mut ops, mut data, mut chans) = (volume, 0, 0, 0);
    for sp in &skel.streams {
        let words = store.try_get(&sp.name).map_or(0, |v| v.raw().len());
        let relays = volume * sp.relays.max(0) as usize;
        procs += relays + 2 * heads(&sp.unit_flow);
        ops += relays + 2 * words + 2 * volume;
        data += words;
        chans += relays + volume + heads(&sp.unit_flow);
    }
    let b = ProcIrBuilder::with_capacity(procs, ops + volume, data);
    (b, chans)
}
