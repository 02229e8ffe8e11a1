//! The doors agree. A program is compiled by `systolic_core::systolize`,
//! a problem is bound by `Problem::seeded` and a replay subject is
//! resolved by `systolic_sim::subject_of`; the library, the CLI, the
//! service and the DST harness are adapters over those three. So the
//! same problem entering by any door is the same plan, runs to the same
//! store, and a problem that cannot be bound is the same structured
//! error everywhere — never a panic.

use std::panic::catch_unwind;
use std::sync::Arc;

use systolizer::cli;
use systolizer::interp::{ElabOptions, ModuleStore, Problem, ProblemError, PROBLEM_BUDGET};
use systolizer::ir::{seq, HostStore};
use systolizer::runtime::RunStats;
use systolizer::service::api::ProgramRef;
use systolizer::service::{Service, ServiceConfig};
use systolizer::sim::{
    compile_design, compile_source, json, registry, subject_for, subject_of, DesignError,
    DstSubject, Json, ScheduleFile,
};
use systolizer::synthesis::placement::paper;
use systolizer::{systolize, systolize_source, Error, PlaceChoice, SystolizeOptions, Systolized};

const SEED: u64 = 7;

fn service(max_size: i64) -> Arc<Service> {
    Service::new(ServiceConfig {
        workers: 2,
        max_size,
        ..ServiceConfig::default()
    })
}

fn ints(values: &[i64]) -> Json {
    Json::arr(values.iter().copied())
}

/// `(processes, messages, steps)` of a run, the figures every door
/// reports (`rounds` counts scheduler sweeps, which differ by engine).
fn figures(stats: &RunStats) -> (u64, u64, u64) {
    (stats.processes as u64, stats.messages, stats.steps)
}

/// A 200 `/v1/run` stores body: the store it carries and its figures.
fn service_run(svc: &Arc<Service>, body: Json, like: &HostStore) -> (HostStore, (u64, u64, u64)) {
    let (status, resp) = svc.handle_run(&body.to_string());
    assert_eq!(status, 200, "{resp}");
    let doc = json::parse(&resp).unwrap();
    assert_eq!(doc.get("verified").and_then(Json::as_bool), Some(true));
    let mut store = like.clone();
    for name in like.names() {
        let values = doc.get("stores").and_then(|s| s.get(name)?.get("values"));
        let values: Vec<i64> = (values.and_then(Json::as_arr).expect("values").iter())
            .map(|v| v.as_i64().unwrap())
            .collect();
        store.get_mut(name).raw_mut().copy_from_slice(&values);
    }
    let stat = |key| doc.get("stats").and_then(|s| s.get(key)?.as_i64()).unwrap() as u64;
    (store, (stat("processes"), stat("messages"), stat("steps")))
}

/// The figures of a CLI `OK:` line.
fn cli_figures(out: &str) -> (u64, u64, u64) {
    let number_before = |unit: &str| {
        let head = out.split(unit).next().unwrap();
        head.rsplit(' ').next().unwrap().parse().unwrap()
    };
    (
        number_before(" processes"),
        number_before(" logical messages"),
        number_before(" steps"),
    )
}

/// The store a DST subject's FIFO run leaves: its sink buffers written
/// back through the elaboration's output map.
fn subject_store(subject: &dyn DstSubject, sys: &Systolized, problem: &Problem) -> HostStore {
    let outcome = subject.run(None).unwrap();
    let cm = ModuleStore::global()
        .module(
            &sys.plan,
            &problem.env,
            &problem.store,
            &ElabOptions::default(),
        )
        .unwrap();
    let mut store = problem.store.clone();
    for out in &cm.elab.outputs {
        let raw = store.get_mut(&out.variable).raw_mut();
        let values = &outcome.outputs[out.output as usize];
        for (&at, &v) in cm.elab.words_of(out).iter().zip(values) {
            raw[at as usize] = v;
        }
    }
    // The same network, by the other door's count.
    let stats = sys.verify(&subject.schedule_stub().sizes, &[], 0).unwrap();
    assert_eq!(outcome.stats.processes, stats.processes);
    store
}

#[test]
fn a_source_program_is_one_plan_and_one_store_by_every_door() {
    let svc = service(64);
    for (file, sizes) in [
        ("programs/matmul.sys", &[4][..]),
        ("programs/polyprod.sys", &[6]),
        ("programs/fir.sys", &[3, 6]),
    ] {
        let src = std::fs::read_to_string(file).unwrap();
        let sys = systolize_source(&src, &SystolizeOptions::default()).unwrap();
        // Compile: the library, the service and the DST resolver.
        let fingerprint = sys.plan.fingerprint;
        let resolved = svc.resolve(&ProgramRef::Source(src.clone())).unwrap();
        assert_eq!(resolved.plan.fingerprint, fingerprint, "{file}: service");
        let resolved = compile_source(&src).unwrap();
        assert_eq!(resolved.fingerprint, fingerprint, "{file}: sim");

        // Bind: every variable seeded, as the CLI does.
        let inputs = sys.source.variable_names();
        let problem = Problem::seeded(&sys.plan, sizes, &inputs, SEED).unwrap();
        let mut expected = problem.store.clone();
        seq::run(&sys.source, &problem.env, &mut expected);

        // Run: the library checks itself against the oracle …
        sys.verify(sizes, &inputs, SEED).unwrap();
        // … so does the CLI …
        let sizes_flag = sizes.iter().map(i64::to_string).collect::<Vec<_>>();
        let args = ["run", file, "--sizes", &sizes_flag.join(","), "--seed", "7"];
        let inv = cli::parse_args(&args.map(String::from)).unwrap();
        let out = cli::execute(&inv, &src).unwrap();
        assert!(
            out.contains("systolic result == sequential result"),
            "{out}"
        );
        // … the service returns the store, and the CLI's figures …
        let body = Json::obj([
            ("source", src.as_str().into()),
            ("sizes", ints(sizes)),
            ("seed", SEED.into()),
            ("inputs", Json::arr(inputs.iter().copied())),
            ("verify", true.into()),
        ]);
        let (store, stats) = service_run(&svc, body, &problem.store);
        assert_eq!(store, expected, "{file}: service");
        assert_eq!(stats, cli_figures(&out), "{file}: {out}");
        // … and the DST subject of the schedule file that embeds it.
        let stub = ScheduleFile::stub("source", Some(src.clone()), sizes, SEED);
        let subject = subject_of(&stub, ModuleStore::global()).unwrap();
        let store = subject_store(subject.as_ref(), &sys, &problem);
        assert_eq!(store, expected, "{file}: sim");
    }
}

#[test]
fn a_registry_design_is_one_plan_and_one_store_by_every_door() {
    let svc = service(64);
    for spec in registry() {
        let (key, sizes) = (spec.key, &spec.sizes[..]);
        let (plan, inputs) = compile_design(key).unwrap();
        // Compile: the registry, the service, and the library on the
        // same program and array.
        let resolved = svc.resolve(&ProgramRef::Design(key.into())).unwrap();
        assert_eq!(
            resolved.plan.fingerprint, plan.fingerprint,
            "{key}: service"
        );
        let sys = match paper::all().into_iter().find(|(label, ..)| *label == key) {
            Some((_, program, array)) => {
                let place = PlaceChoice::Explicit(array);
                let opts = SystolizeOptions {
                    place,
                    ..Default::default()
                };
                systolize(&program, &opts).unwrap()
            }
            None => systolize(&plan.source, &SystolizeOptions::default()).unwrap(),
        };
        assert_eq!(sys.plan.fingerprint, plan.fingerprint, "{key}: library");

        let problem = Problem::seeded(&plan, sizes, &inputs, SEED).unwrap();
        let mut expected = problem.store.clone();
        seq::run(&plan.source, &problem.env, &mut expected);

        let stats = sys.verify(sizes, &inputs, SEED).unwrap();
        let body = Json::obj([
            ("design", key.into()),
            ("sizes", ints(sizes)),
            ("seed", SEED.into()),
            ("batch", "off".into()),
            ("verify", true.into()),
        ]);
        let (store, service_stats) = service_run(&svc, body, &problem.store);
        assert_eq!(store, expected, "{key}: service");
        assert_eq!(service_stats, figures(&stats), "{key}: the plain engine");
        let subject = subject_for(key, sizes, SEED).unwrap();
        let store = subject_store(subject.as_ref(), &sys, &problem);
        assert_eq!(store, expected, "{key}: sim");
    }
}

/// What a door must answer to a problem that cannot be bound.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Refusal {
    Arity,
    Negative,
    UnknownInput,
    OverBudget,
    OverMaxSize,
}

impl Refusal {
    /// The library's error for it: too large or invalid, and the phrase.
    fn is(self, e: &ProblemError) {
        let too_large = matches!(e, ProblemError::TooLarge(_));
        assert_eq!(too_large, self == Refusal::OverBudget, "{e}");
        assert!(e.to_string().contains(self.wire().2), "{e}");
    }

    /// The service's status and kind, and a phrase of the one message.
    fn wire(self) -> (u16, &'static str, &'static str) {
        match self {
            Refusal::Arity => (400, "bad-request", "one per size parameter"),
            Refusal::Negative => (400, "bad-request", "must be non-negative"),
            Refusal::UnknownInput => (400, "bad-request", "unknown input variable"),
            Refusal::OverBudget => (413, "size-limit", "problem too large"),
            Refusal::OverMaxSize => (413, "size-limit", "exceeds the service limit"),
        }
    }
}

#[test]
fn a_problem_that_cannot_be_bound_is_the_same_refusal_at_every_door() {
    let over = PROBLEM_BUDGET as i64;
    // fir takes two sizes; its store at (budget, budget) is over budget
    // though neither size is.
    let table: [(&[i64], Option<&str>, Refusal); 5] = [
        (&[3], None, Refusal::Arity),
        (&[3, 4, 5], None, Refusal::Arity),
        (&[3, -4], None, Refusal::Negative),
        (&[3, 4], Some("nonsense"), Refusal::UnknownInput),
        (&[over, over], None, Refusal::OverBudget),
    ];
    let src = std::fs::read_to_string("programs/fir.sys").unwrap();
    let sys = systolize_source(&src, &SystolizeOptions::default()).unwrap();
    let unbounded = service(i64::MAX);
    let refused = |svc: &Arc<Service>, route: &str, body: &Json, want: Refusal| {
        let (status, resp) = match route {
            "run" => svc.handle_run(&body.to_string()),
            _ => svc.handle_replay(&body.to_string()),
        };
        let doc = json::parse(&resp).unwrap();
        let error = doc.get("error").expect("an error body");
        let (want_status, kind, phrase) = want.wire();
        assert_eq!(status, want_status, "{route} {body}: {resp}");
        assert_eq!(error.get("kind").and_then(Json::as_str), Some(kind));
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains(phrase), "{route} {body}: {message}");
    };

    for (sizes, input, want) in table {
        let inputs: Vec<&str> = input.into_iter().collect();
        // The library: `verify`, `run`, `size_env`, `makespan`.
        let library = catch_unwind(|| {
            let verify = sys.verify(sizes, &inputs, SEED).map(|_| ());
            if inputs.is_empty() {
                let store = HostStore::new();
                let others = [
                    sys.run(sizes, &store).map(|_| ()),
                    sys.size_env(sizes).map(|_| ()),
                    sys.makespan(sizes).map(|_| ()),
                ];
                for other in others {
                    assert!(matches!(other, Err(Error::Problem(_))));
                }
            }
            verify
        });
        match library.expect("the library panicked") {
            Err(Error::Problem(e)) => want.is(&e),
            other => panic!("{sizes:?}: expected a problem error, got {other:?}"),
        }

        if input.is_none() {
            // The CLI: every command that binds sizes.
            let sizes_flag = sizes.iter().map(i64::to_string).collect::<Vec<_>>();
            let sizes_flag = sizes_flag.join(",");
            for command in [
                &["run", "f"][..],
                &["describe", "f"],
                &["compile", "f", "--emit", "rust"],
                &["explore", "f", "--schedules", "1"],
            ] {
                let args = [command, &["--sizes", &sizes_flag]].concat();
                let raw: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                let inv = cli::parse_args(&raw).unwrap();
                let result = catch_unwind(|| cli::execute(&inv, &src));
                let message = result.expect("the CLI panicked").unwrap_err();
                assert!(message.contains(want.wire().2), "{args:?}: {message}");
            }
            // The DST resolver, and through it the CLI's and the
            // service's replay.
            for stub in [
                ScheduleFile::stub("fir", None, sizes, SEED),
                ScheduleFile::stub("source", Some(src.clone()), sizes, SEED),
            ] {
                let resolved = catch_unwind(|| subject_of(&stub, &ModuleStore::new()).err());
                match resolved.expect("the resolver panicked") {
                    Some(DesignError::Problem(e)) => want.is(&e),
                    other => panic!("{sizes:?}: expected a problem error, got {other:?}"),
                }
                let inv = cli::parse_args(&["replay", "--schedule", "f"].map(String::from));
                let message = cli::execute(&inv.unwrap(), &stub.to_json()).unwrap_err();
                assert!(message.contains(want.wire().2), "replay: {message}");
                let file = json::parse(&stub.to_json()).unwrap();
                refused(&unbounded, "replay", &file, want);
            }
        }
        // The service's run route, by key and by inline source.
        for (member, program) in [("design", "fir"), ("source", src.as_str())] {
            let mut body = Json::obj([(member, program.into()), ("sizes", ints(sizes))]);
            if let Some(name) = input {
                body.push("inputs", Json::arr([name]));
            }
            refused(&unbounded, "run", &body, want);
        }
    }

    // The deployment's own, smaller limit comes first, on both routes.
    let capped = service(16);
    let body = Json::obj([("design", "E.1".into()), ("sizes", ints(&[17]))]);
    refused(&capped, "run", &body, Refusal::OverMaxSize);
    let file = json::parse(&ScheduleFile::stub("E.1", None, &[17], SEED).to_json()).unwrap();
    refused(&capped, "replay", &file, Refusal::OverMaxSize);
    let file = json::parse(&ScheduleFile::stub("race-sink", None, &[17], 0).to_json()).unwrap();
    refused(&capped, "replay", &file, Refusal::OverMaxSize);

    for svc in [&unbounded, &capped] {
        let stats = json::parse(&svc.stats_json()).unwrap();
        let panics = stats.get("pool").and_then(|p| p.get("panics")?.as_i64());
        assert_eq!(panics, Some(0), "a request panicked a worker");
        let misses = stats
            .get("elab_cache")
            .and_then(|c| c.get("module_misses")?.as_i64());
        assert_eq!(misses, Some(0), "a refused problem was elaborated");
    }
}
