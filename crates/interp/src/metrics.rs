//! Plan-level observability: map what the runtime's recorders saw in a
//! run back to source-level names.
//!
//! The runtime's `record` module speaks in process ids and dense channel
//! ids; this module adds what only the elaboration knows — which stream
//! and which process-space point each channel belongs to — so the
//! [`MetricsReport`] and the Perfetto trace read in the paper's
//! vocabulary (`a@(3):in` instead of `chan 17`).
//!
//! Two documents are named this way:
//!
//! - the `systolic-metrics-v1` document, which [`metrics_json`] builds
//!   from a cached module alone: its rendezvous profile
//!   ([`CachedModule::profile`], a
//!   [`MetricsReport`]: per-process op and phase counts, per-channel
//!   transfer/wait statistics, soak/compute/drain makespan attribution,
//!   wait and occupancy histograms) and the sections of its fast plan.
//!   No recorder rides on the run that answers, so asking for the
//!   document leaves that run as it would be unasked;
//! - a Chrome `trace_event` document for <https://ui.perfetto.dev>: a
//!   rendering of the event log (an `EventLogRecorder` with marks) in
//!   the [`SimSpec`](crate::SimSpec) of the run that answers, attached
//!   only when the trace is asked for. [`trace_json`] renders it with one
//!   track per process of the module that ran and one per channel, named
//!   after the stream and process-space point it serves.
//!
//! The CLI exposes both as `run --metrics PATH --trace-out PATH`; see
//! `docs/observability.md`.

use crate::cache::{CachedModule, ModuleStore};
use crate::elaborate::Elaborated;
use crate::exec::SystolicRun;
use systolic_core::SystolicProgram;
use systolic_runtime::{EventLogRecorder, Json, MetricsReport};

/// What `run --metrics PATH` writes, all of it a fact of the module `cm`:
/// the module's rendezvous profile ([`CachedModule::profile`]), then one
/// section per plan of its fast plan, each the owning type's own value —
/// `optimizer` (the `systolic-opt-v1` mapping report; absent when the
/// optimizer leaves the module untouched), `elab_cache`, `wavefront`
/// (staging shape, or why the fast engine never runs the program) and
/// `kernels` (eligibility split and scalar-fallback reasons, or the same
/// why). When the profile's rendezvous run stops early, one `deadlock`
/// member holding its error text stands for the profile's members. The
/// `elab_cache` counters of `ms` are read after the fast plan is built,
/// so `fast_plan_ns` counts it.
pub fn metrics_json(cm: &CachedModule, ms: &ModuleStore) -> String {
    let mut doc = match cm.profile() {
        Ok(report) => report.json(),
        Err(e) => Json::obj([
            ("schema", MetricsReport::SCHEMA.into()),
            ("deadlock", e.to_string().into()),
        ]),
    };
    if let Some(report) = cm.fast_plan().opt_report() {
        doc.push("optimizer", report.json());
    }
    doc.push("elab_cache", ms.stats().json());
    doc.push("wavefront", cm.wavefront_json());
    doc.push("kernels", cm.kernels_json());
    doc.pretty()
}

/// What `run --trace-out PATH` writes: the Perfetto document of `run`,
/// rendered from its event log (made [`EventLogRecorder::with_marks`]),
/// its process and channel tracks named by the module that ran.
pub fn trace_json(log: &EventLogRecorder, plan: &SystolicProgram, run: &SystolicRun) -> String {
    let el = &run.module.elab;
    log.perfetto_json(&el.module, &channel_names(plan, el))
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
    use systolic_runtime::{lock, shared};
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

    /// The profile is the plain engine's run of the module: its
    /// transfers, clock, processes and steps are that run's stats, over
    /// any data the module is run on.
    #[test]
    fn the_profile_is_the_plain_run_of_the_module() {
        let (plan, env, store) = setup(5);
        let ms = ModuleStore::new();
        let plain = simulate(&ms, &plan, &env, &store, SimSpec::plain()).unwrap();
        let report = plain.module.profile().as_ref().unwrap();
        let stats = &plain.stats;
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
        // Built once: a second request reads the same report.
        assert!(std::ptr::eq(
            report,
            plain.module.profile().as_ref().unwrap()
        ));
    }

    /// Asking for the document leaves the run that answers as it would be
    /// unasked: the default run keeps the fast path, and the document
    /// still reports the rendezvous clock.
    #[test]
    fn the_document_does_not_perturb_the_run() {
        let (plan, env, store) = setup(4);
        let ms = ModuleStore::new();
        let run = simulate(&ms, &plan, &env, &store, SimSpec::default()).unwrap();
        assert!(run.wavefront, "no recorder, the gate stays open");
        let doc = systolic_runtime::json::parse(&metrics_json(&run.module, &ms)).unwrap();
        let profile = run.module.profile().as_ref().unwrap();
        let end_time = doc.get("end_time").and_then(Json::as_i64);
        assert_eq!(end_time, Some(profile.end_time as i64));
        assert!(doc.get("wavefront").is_some());
        // And the run is actually correct.
        let mut expected = store.clone();
        seq::run(&plan.source, &env, &mut expected);
        assert_eq!(run.store.get("c"), expected.get("c"));
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
        let (log, recorder) = shared(EventLogRecorder::with_marks());
        let spec = SimSpec {
            recorders: vec![recorder],
            ..SimSpec::default()
        };
        let run = simulate(ModuleStore::global(), &plan, &env, &store, spec).unwrap();
        let trace = trace_json(&lock(&log), &plan, &run);
        assert!(trace.contains("a@("), "{trace}");
        assert!(trace.contains("\"traceEvents\""));
    }
}
