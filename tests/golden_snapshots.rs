//! Byte-exact snapshot tests for the generated programs of the four
//! appendix designs. Unlike `codegen_golden.rs` (which checks structural
//! content against the paper's text), these pin our *own* output so that
//! codegen changes are always deliberate.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test golden_snapshots`

mod common;

use common::{check_golden as check, golden_dir};
use std::fmt::Write as _;
use systolizer::interp::{elaborate, seeded_store};
use systolizer::synthesis::placement::paper;
use systolizer::{systolize, PlaceChoice, SystolizeOptions};

fn design(idx: usize) -> systolizer::Systolized {
    let (_, p, a) = paper::all().into_iter().nth(idx).unwrap();
    systolize(
        &p,
        &SystolizeOptions {
            place: PlaceChoice::Explicit(a),
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn paper_code_snapshots() {
    for (idx, name) in [
        (0usize, "d1_paper.txt"),
        (1, "d2_paper.txt"),
        (2, "e1_paper.txt"),
        (3, "e2_paper.txt"),
    ] {
        check(name, &design(idx).paper_code());
    }
}

#[test]
fn occam_code_snapshots() {
    check("d1_occam.txt", &design(0).occam_code());
    check("e2_occam.txt", &design(3).occam_code());
}

#[test]
fn c_code_snapshots() {
    check("d1_c.txt", &design(0).c_code());
    check("e2_c.txt", &design(3).c_code());
}

/// One run of polyprod D.1 at n=4 with seeded inputs and an event log
/// with marks attached, and its module's rendezvous profile — the fixture
/// behind the observability snapshots below: the metrics report and the
/// rendered trace. Everything in them is virtual-time-based, so the
/// bytes are deterministic.
fn observed_d1() -> (String, String) {
    use systolizer::interp::{seeded_store, simulate, trace_json, ModuleStore, SimSpec};
    use systolizer::runtime::{lock, shared, EventLogRecorder};
    let sys = design(0);
    let env = sys.size_env(&[4]).unwrap();
    let store = seeded_store(&sys.plan, &env, &["a", "b"], 11);
    let (log, p) = shared(EventLogRecorder::with_marks());
    let spec = SimSpec {
        recorders: vec![p],
        ..SimSpec::default()
    };
    let run = simulate(ModuleStore::global(), &sys.plan, &env, &store, spec).unwrap();
    let report = run.module.profile().as_ref().unwrap().to_json();
    let trace = trace_json(&lock(&log), &sys.plan, &run);
    (report, trace)
}

/// Pins the `systolic-metrics-v1` JSON for D.1: schema drift (renamed
/// keys, reordered sections, changed histograms) must be deliberate,
/// because downstream tooling parses this document.
#[test]
fn metrics_json_snapshot() {
    check("d1_metrics.json", &observed_d1().0);
}

/// Pins the whole Perfetto document for D.1: event order, timestamps,
/// durations and args, byte for byte.
#[test]
fn perfetto_trace_snapshot() {
    check("d1_perfetto.json", &observed_d1().1);
}

/// Pins the Perfetto track names (the `thread_name`/`process_name`
/// metadata) for D.1: the stream-and-coordinate naming (`a@(3):in`) is
/// the contract that makes traces readable in the paper's vocabulary.
/// The whole document, slices included, is `d1_perfetto.json`.
#[test]
fn perfetto_track_names_snapshot() {
    let mut tracks: String = observed_d1()
        .1
        .lines()
        .filter(|l| l.contains("\"process_name\"") || l.contains("\"thread_name\""))
        .map(|l| l.trim().trim_end_matches(','))
        .collect::<Vec<_>>()
        .join("\n");
    tracks.push('\n');
    check("d1_perfetto_tracks.txt", &tracks);
}

#[test]
fn report_snapshots() {
    for (idx, name) in [
        (0usize, "d1_report.txt"),
        (1, "d2_report.txt"),
        (2, "e1_report.txt"),
        (3, "e2_report.txt"),
    ] {
        check(name, &design(idx).report());
    }
}

/// The DST file contract: the shrunk `systolic-schedule-v1`
/// counterexample the explorer writes for the race-sink canary at k = 6
/// is pinned byte for byte, and the binary replays the committed file.
#[test]
fn race_sink_counterexample_file() {
    use systolizer::sim::{explore, ExploreConfig, RaceSubject};
    let ce = explore(&RaceSubject { k: 6 }, &ExploreConfig::matrix(4))
        .unwrap()
        .counterexample
        .expect("the seeded race is caught");
    check("race_sink_k6.json", &ce.schedule.to_json());
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_systolizer"))
        .arg("replay")
        .arg("--schedule")
        .arg(golden_dir().join("race_sink_k6.json"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let reproduced = "REPRODUCED: design race-sink diverges";
    assert!(stdout.starts_with(reproduced), "{stdout}");
}

/// The hit path's contract: the module the fast engine runs and every
/// plan a run of it reads (`common::matrix::digest_line`), for each
/// corpus design and shipped program at n ∈ {0, 1, 2, 3, 5}. A change to
/// how a module is elaborated or optimized must leave these bytes alone
/// unless it means to move them. (The `digests` column of
/// `tests/matrix.rs` holds every other default-options row to them too.)
#[test]
fn fast_plan_digests() {
    let rows = common::matrix::table().iter();
    let mut rows: Vec<_> = rows
        .filter(|c| c.origins.contains(&"fast_plan_digests"))
        .collect();
    rows.sort_by_key(|c| (c.n(), c.design));
    let golden: String = rows.into_iter().map(common::matrix::digest_line).collect();
    check("fast_plans.txt", &golden);
}

/// Every process label of `programs/polyprod.sys` at n = 2 as
/// elaborated under each options variant: internal buffers, external
/// buffers, per-pipe and merged host processes, split-propagation
/// escorts and computation processes, by their text.
#[test]
fn polyprod_process_labels() {
    let sys = systolizer::systolize_source(
        include_str!("../programs/polyprod.sys"),
        &Default::default(),
    )
    .unwrap();
    let env = sys.size_env(&[2]).unwrap();
    let store = seeded_store(&sys.plan, &env, &["a", "b"], 3);
    let mut golden = String::new();
    for (name, opts) in common::option_variants() {
        let el = elaborate(&sys.plan, &env, &store, &opts).unwrap();
        let _ = writeln!(golden, "# {name}");
        for pid in 0..el.module.procs.len() {
            let _ = writeln!(golden, "{pid} {}", el.module.label_of(pid));
        }
    }
    check("polyprod_labels.txt", &golden);
}
