//! Every call the benchmark makes *below* the facade, each under a span.
//!
//! The end-to-end workloads use only what a caller of the system uses
//! (`simulate`, the service, the binary). The traced pass also needs the
//! stages inside one `simulate`, and until the crates record spans
//! themselves (ROADMAP item 1) the only way to time them is to make the
//! same calls from here, in the order `systolic_interp::exec` makes them.
//! A change that reorders or removes a stage there edits this file and
//! no other file of the benchmark.

use std::sync::Arc;
use std::time::Duration;

use systolic_interp::{elaborate_skeleton, ElabOptions, ExecError, ModuleStore, OptMode};
use systolic_ir::{seq, HostStore};
use systolic_runtime::{ChannelPolicy, KernelReport, Network, RunStats};
use systolic_service::api::{self, ProgramRef};
use systolic_service::Service;

use crate::designs::Design;
use crate::trace::Tracer;

/// What the staged replica of one `simulate` found on its way.
pub struct Staged {
    pub stats: RunStats,
    /// Processes of the instantiated module, before the optimizer.
    pub module_processes: usize,
    /// Relay processes the optimizer fused away (0 when it declined).
    pub fused_relays: usize,
    /// The kernel engagement report, when the wavefront executor ran.
    pub kernel: Option<KernelReport>,
}

/// `run_plan_batch_kernel_in` for `SimSpec::default()` — module lookup,
/// batch plan, optimizer, wavefront plan, kernel plan, execute — minus
/// the write-back of the sinks into a store, which is private to the
/// crate. On a module hit the four plan spans time a memo lookup; on a
/// miss they time `analyze`, `optimize` (+ re-analysis), `analyze_wavefront`
/// and `analyze_kernels`.
pub fn staged_simulate(
    tr: &mut Tracer,
    ms: &ModuleStore,
    d: &Design,
    store: &HostStore,
) -> Result<Staged, ExecError> {
    let whole = tr.begin("interp.staged_simulate");
    let result = staged_ladder(tr, ms, d, store);
    tr.end(whole);
    result
}

fn staged_ladder(
    tr: &mut Tracer,
    ms: &ModuleStore,
    d: &Design,
    store: &HostStore,
) -> Result<Staged, ExecError> {
    let s = tr.begin("interp.module");
    let cm = ms.module(&d.plan, &d.env, store, &ElabOptions::default());
    tr.end(s);
    let cm = cm?;
    let module = &cm.elab.module;
    let module_processes = module.procs.len();

    let s = tr.begin("runtime.analyze");
    let bplan = cm.batch_plan();
    tr.end(s);
    if !bplan.batchable() {
        let s = tr.begin("runtime.run_plain");
        let inst = module.instantiate();
        let mut net = Network::new(ChannelPolicy::Rendezvous);
        for p in inst.procs {
            net.add(p);
        }
        let stats = net.run();
        tr.end(s);
        return Ok(Staged {
            stats: stats?,
            module_processes,
            fused_relays: 0,
            kernel: None,
        });
    }

    let s = tr.begin("runtime.optimize");
    let optimized = cm.optimized(OptMode::Auto);
    tr.end(s);
    let fused_relays = optimized.as_ref().map_or(0, |o| o.0.report.fused_relays());

    let s = tr.begin("runtime.analyze_wavefront");
    let wplan = match &optimized {
        Some(_) => cm.wavefront_plan_opt(OptMode::Auto),
        None => Some(Arc::clone(cm.wavefront_plan())),
    };
    tr.end(s);
    let run_module = optimized.as_ref().map_or(module, |o| &o.0.module);

    if let Some(wplan) = wplan.filter(|w| w.eligible()) {
        let s = tr.begin("runtime.analyze_kernels");
        let kplan = match &optimized {
            Some(_) => cm.kernel_plan_opt(OptMode::Auto),
            None => Some(Arc::clone(cm.kernel_plan())),
        };
        tr.end(s);
        let s = tr.begin("runtime.run_wavefront");
        let ran = systolic_runtime::run_wavefront(run_module, &wplan, kplan.as_deref(), false);
        tr.end(s);
        let (stats, _sinks, report) = ran?;
        return Ok(Staged {
            stats,
            module_processes,
            fused_relays,
            kernel: Some(report),
        });
    }

    let s = tr.begin("runtime.run_coop_batched");
    let ran =
        systolic_runtime::run_coop_batched(run_module, optimized.as_ref().map_or(bplan, |o| &o.1));
    tr.end(s);
    let (stats, _sinks) = ran?;
    Ok(Staged {
        stats,
        module_processes,
        fused_relays,
        kernel: None,
    })
}

/// The front end on one shipped program: parse, derive an array, compile.
pub fn front_end(tr: &mut Tracer, src: &str) {
    let s = tr.begin("lang.parse");
    let program = systolic_lang::parse(src);
    tr.end(s);
    let program = program.expect("shipped programs parse");
    let s = tr.begin("synthesis.derive_array");
    let array = systolic_synthesis::derive_array(&program, 2, 4);
    tr.end(s);
    let array = array.expect("shipped programs have an array within the search bound");
    let options = systolic_core::Options {
        sample_size: 4,
        ..Default::default()
    };
    let s = tr.begin("core.compile");
    let plan = systolic_core::compile(&program, &array, &options);
    tr.end(s);
    plan.expect("shipped programs compile");
}

/// Phase 1 of elaboration alone: the size-parametric skeleton.
pub fn skeleton_build(tr: &mut Tracer, d: &Design) {
    let s = tr.begin("interp.skeleton_build");
    let skeleton = elaborate_skeleton(&d.plan, &ElabOptions::default());
    tr.end(s);
    drop(skeleton);
}

/// The oracle's two costs: making the data, and the sequential run.
pub fn oracle(tr: &mut Tracer, d: &Design, seed: u64) {
    let s = tr.begin("ir.alloc_fill");
    let store = d.store(seed);
    tr.end(s);
    let mut expected = store.clone();
    let s = tr.begin("ir.seq_run");
    seq::run(&d.plan.source, &d.env, &mut expected);
    tr.end(s);
}

/// The service's request path, stage by stage and without sockets, for
/// one request body: parse; plan-cache lookup of a compiled design; a
/// no-op job through the worker pool; and the whole of `handle_run`,
/// whose 200 body is returned.
pub fn service_request(
    tr: &mut Tracer,
    service: &Arc<Service>,
    design_key: &str,
    body: &str,
) -> String {
    let s = tr.begin("service.parse_run_request");
    let parsed = api::parse_run_request(body);
    tr.end(s);
    parsed.expect("the benchmark's own request parses");

    let program = ProgramRef::Design(design_key.to_string());
    let s = tr.begin("service.resolve_hit");
    let resolved = service.resolve(&program);
    tr.end(s);
    resolved.expect("a gallery design resolves");

    let s = tr.begin("service.pool_roundtrip");
    let (status, _) = service.pool.run(
        Duration::from_secs(10),
        10_000,
        Box::new(|| (200, String::new())),
    );
    tr.end(s);
    assert_eq!(status, 200, "the pool refused a no-op job");

    let s = tr.begin("service.handle_run");
    let (status, response) = service.handle_run(body);
    tr.end(s);
    assert_eq!(status, 200, "handle_run: {response}");
    response
}

/// Rendering one finished run as the `stores` response body.
pub fn render_stores(tr: &mut Tracer, d: &Design, run: &systolic_interp::SystolicRun) -> usize {
    let s = tr.begin("service.render_stores");
    let body = api::render_stores(d.label, "coop", run, false);
    tr.end(s);
    body.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_interp::{simulate, SimSpec};

    /// The replica is only worth timing while it does what `simulate`
    /// does: same engine, same logical counts, cold and warm.
    #[test]
    fn the_staged_replica_agrees_with_simulate() {
        for d in [
            Design::gallery("e1_n6", "E.1", &[6]),
            Design::gallery("e2_n5", "E.2", &[5]),
            Design::gallery("d2_n9", "D.2", &[9]),
            Design::from_sys(
                "mm_n5",
                "program m; size n; var a[0..n,0..n], b[0..n,0..n], c[0..n,0..n];\n\
                 for i = 0 <- 1 -> n for j = 0 <- 1 -> n for k = 0 <- 1 -> n {\n\
                 c[i,j] = c[i,j] + a[i,k] * b[k,j]; }",
                &[5],
            ),
        ] {
            let store = d.store(21);
            let real = simulate(
                &ModuleStore::new(),
                &d.plan,
                &d.env,
                &store,
                SimSpec::default(),
            )
            .unwrap();
            let ms = ModuleStore::new();
            let mut tr = Tracer::new();
            tr.context("test", d.label);
            for round in ["cold", "warm"] {
                tr.next_op();
                let staged = staged_simulate(&mut tr, &ms, &d, &store).unwrap();
                assert_eq!(
                    staged.stats.messages, real.stats.messages,
                    "{} {round}",
                    d.label
                );
                assert_eq!(staged.stats.steps, real.stats.steps, "{} {round}", d.label);
                assert_eq!(
                    staged.stats.processes, real.stats.processes,
                    "{} {round}",
                    d.label
                );
                assert_eq!(
                    staged.kernel.is_some(),
                    real.wavefront,
                    "{} {round}",
                    d.label
                );
                assert_eq!(
                    staged.kernel.map(|k| k.waves_fused),
                    real.kernel.as_ref().map(|k| k.waves_fused),
                    "{} {round}",
                    d.label
                );
                assert_eq!(
                    staged.fused_relays,
                    real.opt.as_ref().map_or(0, |o| o.fused_relays()),
                    "{} {round}",
                    d.label
                );
            }
            assert_eq!(ms.stats().module_misses, 1);
            assert_eq!(ms.stats().module_hits, 1);
            // Every stage span sits under the replica's own span.
            let spans = tr.spans();
            assert!(spans
                .iter()
                .all(|s| s.name == "interp.staged_simulate" || s.parent.is_some()));
        }
    }
}
