//! Plan-level observability: run an elaborated plan with the runtime's
//! recorders attached and map the results back to source-level names.
//!
//! The runtime's `record` module speaks in process ids and dense channel
//! ids; this module adds what only the elaboration knows — which stream
//! and which process-space point each channel belongs to — so the
//! [`MetricsReport`] and the Perfetto trace read in the paper's
//! vocabulary (`a@(3):in` instead of `chan 17`).
//!
//! Two artifacts come out of one observed run:
//!
//! - a [`MetricsReport`] (`systolic-metrics-v1` JSON): per-process op and
//!   phase counts, per-channel transfer/wait statistics, soak/compute/
//!   drain makespan attribution, wait and occupancy histograms;
//! - a Chrome `trace_event` JSON document for <https://ui.perfetto.dev>:
//!   one track per process, one per channel.
//!
//! The CLI exposes both as `run --metrics PATH --trace-out PATH`; see
//! `docs/observability.md`.

use crate::cache::{CacheStats, CachedModule, ModuleStore};
use crate::elaborate::Elaborated;
use crate::exec::{simulate, ExecError, SimSpec, SystolicRun};
use std::sync::Arc;
use systolic_core::SystolicProgram;
use systolic_ir::HostStore;
use systolic_math::Env;
use systolic_runtime::{lock, shared, MetricsRecorder, MetricsReport, PerfettoRecorder};

/// One observed run: the ordinary execution outcome plus the two
/// observability artifacts.
pub struct Observed {
    pub run: SystolicRun,
    /// The aggregated metrics (render with [`MetricsReport::to_json`]).
    pub report: MetricsReport,
    /// The rendered Chrome `trace_event` document.
    pub perfetto_json: String,
    /// Snapshot of the module-store counters ([`ModuleStore::stats`])
    /// taken right after this run's elaboration, so the report shows
    /// whether it was served warm.
    pub cache: CacheStats,
    /// The module that ran, with its memoized plans. Observed runs
    /// always *execute* the exact rendezvous engine (recorders close the
    /// fast-path gate), so the metrics above describe the elaborated
    /// module; the fast plan is what an unobserved default run of it
    /// executes, and [`Observed::metrics_json`] reports it beside the
    /// metrics.
    pub module: Arc<CachedModule>,
}

impl Observed {
    /// What `run --metrics PATH` writes: the metrics document, then one
    /// section per plan of the module's fast plan, each the owning type's
    /// own value — `optimizer` (the `systolic-opt-v1` mapping report;
    /// absent when the optimizer leaves the module untouched),
    /// `elab_cache`, `wavefront` (staging shape, or why the fast engine
    /// never runs the program) and `kernels` (eligibility split and
    /// scalar-fallback reasons, or the same why).
    pub fn metrics_json(&self) -> String {
        let fast = self.module.fast_plan();
        let mut doc = self.report.json();
        if let Some(report) = fast.opt_report() {
            doc.push("optimizer", report.json());
        }
        doc.push("elab_cache", self.cache.json());
        doc.push("wavefront", self.module.wavefront_json());
        doc.push("kernels", self.module.kernels_json());
        doc.pretty()
    }
}

/// Display names for every channel of an elaborated module, indexed by
/// `ChanId`: `stream@(coords):in` / `:out` for the endpoints recorded in
/// [`Elaborated::endpoints`], `chan N` for everything else (host fringe
/// wires, inserted buffers).
pub fn channel_names(plan: &SystolicProgram, el: &Elaborated) -> Vec<String> {
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

/// Run the plan with a [`MetricsRecorder`] and a [`PerfettoRecorder`]
/// attached — [`simulate`] with the two recorders added to `spec` —
/// returning the run outcome and both artifacts. Recorders close the
/// fast-path gate, so this is the plain engine;
/// timing differs from an unobserved plain run only in wall clock —
/// rounds, messages, steps, and the result store are identical. The
/// cache counters describe `ms`.
pub fn observe_plan_in(
    ms: &ModuleStore,
    plan: &SystolicProgram,
    env: &Env,
    store: &HostStore,
    mut spec: SimSpec,
) -> Result<Observed, ExecError> {
    let cm = ms.module(plan, env, store, &spec.elab)?;
    let cache = ms.stats();
    let el = &cm.elab;
    let (metrics, m_erased) = shared(MetricsRecorder::new());
    let (perfetto, p_erased) =
        shared(PerfettoRecorder::new().with_channel_names(channel_names(plan, el)));
    spec.recorders.extend([m_erased, p_erased]);
    let run = simulate(ms, plan, env, store, spec)?;
    let report = lock(&metrics).report();
    let perfetto_json = lock(&perfetto).to_json();
    Ok(Observed {
        run,
        report,
        perfetto_json,
        cache,
        module: cm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::ElabOptions;
    use systolic_core::{compile, Options};
    use systolic_ir::seq;
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

    #[test]
    fn observation_does_not_perturb_the_run() {
        let (plan, env, store) = setup(4);
        let ms = ModuleStore::global();
        let plain = simulate(ms, &plan, &env, &store, SimSpec::plain()).unwrap();
        let obs = observe_plan_in(ms, &plan, &env, &store, SimSpec::default()).unwrap();
        assert_eq!(obs.run.stats, plain.stats);
        for name in plain.store.names() {
            assert_eq!(obs.run.store.get(name), plain.store.get(name), "{name}");
        }
        // And the run is actually correct.
        let mut expected = store.clone();
        seq::run(&plan.source, &env, &mut expected);
        assert_eq!(obs.run.store.get("c"), expected.get("c"));
    }

    #[test]
    fn report_reconciles_with_run_stats() {
        let (plan, env, store) = setup(5);
        let obs = observe_plan_in(
            ModuleStore::global(),
            &plan,
            &env,
            &store,
            SimSpec::default(),
        )
        .unwrap();
        let stats = &obs.run.stats;
        assert_eq!(obs.report.transfers, stats.messages);
        assert_eq!(obs.report.end_time, stats.rounds);
        assert_eq!(obs.report.processes.len(), stats.processes);
        let steps: u64 = obs.report.processes.iter().map(|p| p.steps).sum();
        assert_eq!(steps, stats.steps);
        // Makespan attribution partitions the rounds.
        assert_eq!(
            obs.report.soak_lead_in() + obs.report.compute_window() + obs.report.drain_tail(),
            stats.rounds
        );
        // The compute plateau is where the basic statements run.
        let ops = obs.report.op_totals();
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
        // Stream-and-coordinate names reach the Perfetto document.
        let obs = observe_plan_in(
            ModuleStore::global(),
            &plan,
            &env,
            &store,
            SimSpec::default(),
        )
        .unwrap();
        assert!(obs.perfetto_json.contains("a@("), "{}", obs.perfetto_json);
        assert!(obs.perfetto_json.contains("\"traceEvents\""));
    }
}
