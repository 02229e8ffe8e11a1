//! Byte-exact snapshot tests for the generated programs of the four
//! appendix designs. Unlike `codegen_golden.rs` (which checks structural
//! content against the paper's text), these pin our *own* output so that
//! codegen changes are always deliberate.
//!
//! Regenerate after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test golden_snapshots`

mod common;

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use systolizer::interp::{elaborate, seeded_store, ElabOptions, ModuleStore};
use systolizer::synthesis::placement::paper;
use systolizer::{systolize, PlaceChoice, SystolizeOptions};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {path:?}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "generated text for {name} changed; review and regenerate with UPDATE_GOLDEN=1"
    );
}

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

/// One observed run of polyprod D.1 at n=4 with seeded inputs — the
/// fixture behind the observability snapshots below. Everything in the
/// artifacts is virtual-time-based, so the bytes are deterministic.
fn observed_d1() -> systolizer::interp::Observed {
    use systolizer::interp::{observe_plan_in, seeded_store, ModuleStore, SimSpec};
    let sys = design(0);
    let env = sys.size_env(&[4]).unwrap();
    let store = seeded_store(&sys.plan, &env, &["a", "b"], 11);
    observe_plan_in(
        ModuleStore::global(),
        &sys.plan,
        &env,
        &store,
        SimSpec::default(),
    )
    .unwrap()
}

/// Pins the `systolic-metrics-v1` JSON for D.1: schema drift (renamed
/// keys, reordered sections, changed histograms) must be deliberate,
/// because downstream tooling parses this document.
#[test]
fn metrics_json_snapshot() {
    check("d1_metrics.json", &observed_d1().report.to_json());
}

/// Pins the Perfetto track names (the `thread_name`/`process_name`
/// metadata) for D.1: the stream-and-coordinate naming (`a@(3):in`) is
/// the contract that makes traces readable in the paper's vocabulary.
/// Only metadata lines are pinned — slice events are covered by the
/// metrics snapshot's counts.
#[test]
fn perfetto_track_names_snapshot() {
    let obs = observed_d1();
    let mut tracks: String = obs
        .perfetto_json
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

/// 64-bit FNV-1a: a digest that is the same on every build and platform
/// (unlike `DefaultHasher`), so a golden of digests stays valid.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The hit path's contract: the module the fast engine runs (every
/// table, labels included, with its channel count) and every plan a run
/// of it reads (the wave structure with its ring capacities, and the
/// kernel plan), for each corpus design and shipped program at
/// n ∈ {0, 1, 2, 3, 5}. A change to how a module is elaborated or
/// optimized must leave these bytes alone unless it means to move them.
#[test]
fn fast_plan_digests() {
    let mut problems: Vec<(String, common::Prepared)> = Vec::new();
    for n in [0i64, 1, 2, 3, 5] {
        for design in 0..=common::CORPUS {
            let prepared = common::prepared(design, n, 3);
            problems.push((
                format!("design {design} ({})", prepared.0.source.name),
                prepared,
            ));
        }
        for (name, src, inputs) in [
            (
                "matmul.sys",
                include_str!("../programs/matmul.sys"),
                &["a", "b", "c"][..],
            ),
            (
                "polyprod.sys",
                include_str!("../programs/polyprod.sys"),
                &["a", "b"][..],
            ),
        ] {
            let sys = systolizer::systolize_source(src, &Default::default()).unwrap();
            let env = sys.size_env(&vec![n; sys.plan.source.sizes.len()]).unwrap();
            let store = seeded_store(&sys.plan, &env, inputs, 3);
            problems.push((name.to_string(), (sys.plan, env, store)));
        }
    }
    let mut golden = String::new();
    for (name, (plan, env, store)) in &problems {
        let n = env.expect(plan.source.sizes[0]);
        let _ = write!(golden, "{name} n={n}: ");
        let cm = match ModuleStore::new().module(plan, env, store, &ElabOptions::default()) {
            Ok(cm) => cm,
            Err(e) => {
                let _ = writeln!(golden, "error {e}");
                continue;
            }
        };
        let fast = cm.fast_plan();
        let m = &*fast.module;
        let module = format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{} {}",
            m.ops, m.data, m.moving, m.points, m.procs, m.n_chans, m.n_outputs
        );
        let wf = &*fast.wavefront;
        // `None ` is what the plan's reject reason, since deleted, printed
        // on every row: kept so that the pinned digests stay the same.
        let mut plan_text = format!("None {:?}\n", wf.capacities);
        for w in 0..wf.n_waves() {
            for k in wf.wave(w) {
                let _ = writeln!(plan_text, "{w} {k} {:?} {:?}", wf.chunk(k), wf.neighbors(k));
            }
        }
        plan_text.push_str(&fast.kernels.json().to_string());
        let _ = writeln!(
            golden,
            "{} procs, {} chans, {} chunks, module {:016x}, plans {:016x}",
            m.procs.len(),
            m.n_chans,
            wf.n_chunks(),
            fnv1a(&module),
            fnv1a(&plan_text)
        );
    }
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
