//! Plan-level observability: map what the runtime's recorders saw in a
//! run back to source-level names.
//!
//! The runtime's `record` module speaks in process ids and dense channel
//! ids; this module adds what only the elaboration knows — which stream
//! and which process-space point each channel belongs to — so the
//! [`MetricsReport`] and the Perfetto trace read in the paper's
//! vocabulary (`a@(3):in` instead of `chan 17`).
//!
//! An observer is a recorder in the [`SimSpec`](crate::SimSpec) of the
//! run that answers the request, attached only when its output is asked
//! for:
//!
//! - a `MetricsRecorder` gives the [`MetricsReport`], which
//!   [`metrics_json`] makes the `systolic-metrics-v1` document:
//!   per-process op and phase counts, per-channel transfer/wait
//!   statistics, soak/compute/drain makespan attribution, wait and
//!   occupancy histograms, and the sections of the module that ran;
//! - a `PerfettoRecorder` gives a Chrome `trace_event` document for
//!   <https://ui.perfetto.dev>, which [`trace_json`] renders with one
//!   track per process and one per channel, named after the stream and
//!   process-space point it serves.
//!
//! The CLI exposes both as `run --metrics PATH --trace-out PATH`; see
//! `docs/observability.md`.

use crate::cache::ModuleStore;
use crate::elaborate::Elaborated;
use crate::exec::SystolicRun;
use systolic_core::SystolicProgram;
use systolic_runtime::{MetricsReport, PerfettoRecorder};

/// What `run --metrics PATH` writes: the metrics `report` of `run`, then
/// one section per plan of its module's fast plan, each the owning type's
/// own value — `optimizer` (the `systolic-opt-v1` mapping report; absent
/// when the optimizer leaves the module untouched), `elab_cache`,
/// `wavefront` (staging shape, or why the fast engine never runs the
/// program) and `kernels` (eligibility split and scalar-fallback
/// reasons, or the same why). An observed run is the plain engine, so
/// the fast plan is what an unobserved default run of the module
/// executes. The `elab_cache` counters of `ms` are read after the fast
/// plan is built, so `fast_plan_ns` counts it.
pub fn metrics_json(report: &MetricsReport, run: &SystolicRun, ms: &ModuleStore) -> String {
    let cm = &run.module;
    let mut doc = report.json();
    if let Some(report) = cm.fast_plan().opt_report() {
        doc.push("optimizer", report.json());
    }
    doc.push("elab_cache", ms.stats().json());
    doc.push("wavefront", cm.wavefront_json());
    doc.push("kernels", cm.kernels_json());
    doc.pretty()
}

/// What `run --trace-out PATH` writes: the Perfetto document of `run`,
/// its channel tracks named by the module that ran.
pub fn trace_json(
    perfetto: &PerfettoRecorder,
    plan: &SystolicProgram,
    run: &SystolicRun,
) -> String {
    perfetto.to_json(&channel_names(plan, &run.module.elab))
}

/// Display names for every channel of an elaborated module, indexed by
/// `ChanId`: `stream@(coords):in` / `:out` for the endpoints recorded in
/// [`Elaborated::endpoints`], `chan N` for everything else (host fringe
/// wires, inserted buffers).
fn channel_names(plan: &SystolicProgram, el: &Elaborated) -> Vec<String> {
    let mut names = vec![String::new(); el.module.n_chans];
    el.endpoints.for_each(|sid, y, ic, oc| {
        let stream = &plan.streams[sid].name;
        let coord = y
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        if names[ic].is_empty() {
            names[ic] = format!("{stream}@({coord}):in");
        }
        if names[oc].is_empty() {
            names[oc] = format!("{stream}@({coord}):out");
        }
    });
    for (i, n) in names.iter_mut().enumerate() {
        if n.is_empty() {
            *n = format!("chan {i}");
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::ElabOptions;
    use crate::exec::{simulate, SimSpec};
    use systolic_core::{compile, Options};
    use systolic_ir::{seq, HostStore};
    use systolic_math::Env;
    use systolic_runtime::{lock, shared, MetricsRecorder, PerfettoRecorder};
    use systolic_synthesis::placement::paper;

    fn setup(n: i64) -> (SystolicProgram, Env, HostStore) {
        let (p, a) = paper::polyprod_d1();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], n);
        let mut store = HostStore::allocate(&p, &env);
        store.fill_random("a", 1, -9, 9);
        store.fill_random("b", 2, -9, 9);
        (plan, env, store)
    }

    /// The default spec with a metrics recorder attached, and its report.
    fn metered(
        (plan, env, store): &(SystolicProgram, Env, HostStore),
    ) -> (SystolicRun, MetricsReport) {
        let (metrics, recorder) = shared(MetricsRecorder::new());
        let spec = SimSpec {
            recorders: vec![recorder],
            ..SimSpec::default()
        };
        let run = simulate(ModuleStore::global(), plan, env, store, spec).unwrap();
        let report = lock(&metrics).report();
        (run, report)
    }

    #[test]
    fn observation_does_not_perturb_the_run() {
        let problem = setup(4);
        let (plan, env, store) = &problem;
        let ms = ModuleStore::global();
        let plain = simulate(ms, plan, env, store, SimSpec::plain()).unwrap();
        let (run, _) = metered(&problem);
        assert!(!run.wavefront, "a recorder closes the gate");
        assert_eq!(run.stats, plain.stats);
        for name in plain.store.names() {
            assert_eq!(run.store.get(name), plain.store.get(name), "{name}");
        }
        // And the run is actually correct.
        let mut expected = store.clone();
        seq::run(&plan.source, env, &mut expected);
        assert_eq!(run.store.get("c"), expected.get("c"));
    }

    #[test]
    fn report_reconciles_with_run_stats() {
        let (run, report) = metered(&setup(5));
        let stats = &run.stats;
        assert_eq!(report.transfers, stats.messages);
        assert_eq!(report.end_time, stats.rounds);
        assert_eq!(report.processes.len(), stats.processes);
        let steps: u64 = report.processes.iter().map(|p| p.steps).sum();
        assert_eq!(steps, stats.steps);
        // Makespan attribution partitions the rounds.
        assert_eq!(
            report.soak_lead_in() + report.compute_window() + report.drain_tail(),
            stats.rounds
        );
        // The compute plateau is where the basic statements run.
        let ops = report.op_totals();
        assert!(ops[systolic_runtime::OpKind::Compute as usize] > 0);
    }

    #[test]
    fn channel_names_cover_every_endpoint() {
        let (plan, env, store) = setup(3);
        let el = crate::elaborate::elaborate(&plan, &env, &store, &ElabOptions::default()).unwrap();
        let names = channel_names(&plan, &el);
        assert_eq!(names.len(), el.module.n_chans);
        el.endpoints.for_each(|sid, _, ic, oc| {
            let stream = &plan.streams[sid].name;
            assert!(names[ic].starts_with(stream.as_str()), "{}", names[ic]);
            assert!(names[oc].starts_with(stream.as_str()), "{}", names[oc]);
        });
        // Stream-and-coordinate names reach the Perfetto document of a
        // traced run, read off the module that ran.
        let (perfetto, recorder) = shared(PerfettoRecorder::new());
        let spec = SimSpec {
            recorders: vec![recorder],
            ..SimSpec::default()
        };
        let run = simulate(ModuleStore::global(), &plan, &env, &store, spec).unwrap();
        let trace = trace_json(&lock(&perfetto), &plan, &run);
        assert!(trace.contains("a@("), "{trace}");
        assert!(trace.contains("\"traceEvents\""));
    }
}
