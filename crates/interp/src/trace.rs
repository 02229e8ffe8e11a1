//! Space–time tracing: the classic systolic-array diagram.
//!
//! The hardware literature depicts systolic designs as space–time plots:
//! which cell touches which stream at which clock tick. The simulated
//! machine records every channel transfer with its rendezvous round;
//! this module maps transfers back to process coordinates and renders an
//! ASCII space–time diagram for 1-dimensional arrays (Appendix D's
//! designs) and per-round activity summaries for higher dimensions.

use crate::cache::ModuleStore;
use crate::exec::{simulate, ExecError, SimSpec};
use std::collections::HashMap;
use systolic_core::SystolicProgram;
use systolic_ir::HostStore;
use systolic_math::Env;
use systolic_runtime::{lock, shared, EventLogRecorder};

/// One located transfer: stream, receiving process coordinates, round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocatedEvent {
    pub round: u64,
    pub stream: String,
    /// Coordinates of the process the value arrived at.
    pub at: Vec<i64>,
    pub value: i64,
}

/// Run the plan with tracing; returns the located arrival events at
/// computation/buffer processes (i/o fringe and relay hops are omitted:
/// the diagram shows cell activity, as the hardware figures do).
///
/// The events are sourced from the runtime's one event log (an
/// [`EventLogRecorder`] attached to the network, transfers only) — the
/// log the Perfetto document renders, with step marks added.
pub fn run_traced(
    plan: &SystolicProgram,
    env: &Env,
    store: &HostStore,
) -> Result<(Vec<LocatedEvent>, u64), ExecError> {
    let (log, erased) = shared(EventLogRecorder::new());
    let spec = SimSpec {
        recorders: vec![erased],
        ..SimSpec::plain()
    };
    let run = simulate(ModuleStore::global(), plan, env, store, spec)?;
    // chan -> (stream name, coords) for the *incoming* channel of each
    // process.
    let mut incoming: HashMap<usize, (String, Vec<i64>)> = HashMap::new();
    run.module.elab.endpoints.for_each(|sid, y, ic, _| {
        incoming.insert(ic, (plan.streams[sid].name.clone(), y.to_vec()));
    });
    let located = lock(&log)
        .transfers()
        .iter()
        .filter_map(|t| {
            incoming.get(&t.chan).map(|(stream, at)| LocatedEvent {
                round: t.time,
                stream: stream.clone(),
                at: at.clone(),
                value: t.value,
            })
        })
        .collect();
    Ok((located, run.stats.rounds))
}

/// Render an ASCII space–time diagram for a 1-D process space: one row
/// per round, one column per process, cells showing the initials of the
/// streams arriving there in that round.
pub fn render_1d(plan: &SystolicProgram, events: &[LocatedEvent], env: &Env) -> String {
    assert_eq!(plan.coords.len(), 1, "render_1d needs a 1-D process space");
    let (lo, hi) = plan.ps_box(env)[0];
    let width = plan.streams.len() + 1;
    let max_round = events.iter().map(|e| e.round).max().unwrap_or(0);
    let mut grid: HashMap<(u64, i64), String> = HashMap::new();
    for e in events {
        grid.entry((e.round, e.at[0]))
            .or_default()
            .push_str(&e.stream[0..1]);
    }
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = write!(out, "{:>6} |", "round");
    for col in lo..=hi {
        let _ = write!(out, "{col:^width$}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{}+{}",
        "-".repeat(7),
        "-".repeat(((hi - lo + 1) as usize) * width)
    );
    for round in 0..=max_round {
        // Skip silent rounds for compactness.
        if (lo..=hi).all(|c| !grid.contains_key(&(round, c))) {
            continue;
        }
        let _ = write!(out, "{round:>6} |");
        for col in lo..=hi {
            let cell = grid.get(&(round, col)).cloned().unwrap_or_default();
            let _ = write!(out, "{cell:^width$}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Per-round activity counts for any dimensionality: (round, transfers).
pub fn activity_profile(events: &[LocatedEvent]) -> Vec<(u64, usize)> {
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for e in events {
        *counts.entry(e.round).or_default() += 1;
    }
    let mut out: Vec<(u64, usize)> = counts.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::{compile, Options};
    use systolic_synthesis::placement::paper;

    #[test]
    fn d1_trace_produces_a_diagram() {
        let (p, a) = paper::polyprod_d1();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let n = 3i64;
        let mut env = Env::new();
        env.bind(p.sizes[0], n);
        let mut store = HostStore::allocate(&p, &env);
        store.fill_random("a", 1, -5, 5);
        store.fill_random("b", 2, -5, 5);
        let (events, rounds) = run_traced(&plan, &env, &store).unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.round < rounds));
        let diagram = render_1d(&plan, &events, &env);
        assert!(diagram.contains("round"));
        // Every stream appears somewhere in the diagram body.
        for s in ["a", "b", "c"] {
            assert!(diagram.contains(s), "{s} missing:\n{diagram}");
        }
    }

    #[test]
    fn activity_rises_and_falls() {
        // Systolic wavefront: activity ramps up, plateaus, drains.
        let (p, a) = paper::matmul_e2();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 3);
        let mut store = HostStore::allocate(&p, &env);
        store.fill_random("a", 1, -5, 5);
        store.fill_random("b", 2, -5, 5);
        let (events, _) = run_traced(&plan, &env, &store).unwrap();
        let profile = activity_profile(&events);
        assert!(profile.len() > 3);
        let peak = profile.iter().map(|&(_, c)| c).max().unwrap();
        assert!(peak > profile[0].1, "activity grows from the first round");
        assert!(peak > profile.last().unwrap().1, "and drains at the end");
    }

    #[test]
    fn event_counts_match_message_flow_through_cells() {
        let (p, a) = paper::polyprod_d2();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 2);
        let store = HostStore::allocate(&p, &env);
        let (events, _) = run_traced(&plan, &env, &store).unwrap();
        // Each PS process receives pipe-N values per stream; total events
        // = sum over (stream, process) of N.
        let mut expect = 0i64;
        for y in plan.ps_points(&env) {
            for sp in &plan.streams {
                // Walk to head for N.
                let ps = plan.ps_box(&env);
                let inside =
                    |pt: &Vec<i64>| pt.iter().zip(&ps).all(|(&x, &(lo, hi))| x >= lo && x <= hi);
                let mut head = y.clone();
                loop {
                    let prev = systolic_math::point::sub(&head, &sp.unit_flow);
                    if !inside(&prev) {
                        break;
                    }
                    head = prev;
                }
                let f = plan.stream_point_at(&sp.first_s, &env, &head);
                let l = plan.stream_point_at(&sp.last_s, &env, &head);
                if let (Some(f), Some(l)) = (f, l) {
                    expect += systolic_math::point::exact_div(
                        &systolic_math::point::sub(&l, &f),
                        &sp.increment_s,
                    )
                    .unwrap()
                        + 1;
                }
            }
        }
        assert_eq!(events.len() as i64, expect);
    }
}
