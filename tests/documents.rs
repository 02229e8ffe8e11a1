//! Every document the product writes, in one table: each parses with
//! the workspace's one JSON parser and carries its schema id and exactly
//! its documented top-level keys, in order. The documents are produced
//! the way users get them — the CLI's artifact flags, the service's
//! handlers, the explorer's counterexample file — so a writer that
//! drifts from `docs/observability.md` / `docs/service.md` fails here.

use systolizer::cli::{execute, parse_args};
use systolizer::runtime::json::{parse, Json};
use systolizer::service::{Service, ServiceConfig};
use systolizer::sim::{explore, ExploreConfig, RaceSubject};

/// Top-level keys, in order, as one space-separated row per document.
const METRICS_KEYS: &str = "schema processes transfers end_time makespan critical_path \
    phase_ops op_counts wait_hist msgs_per_time_hist per_process per_channel \
    optimizer elab_cache wavefront kernels";
const OPT_KEYS: &str = "schema processes_before processes_after channels_before \
    channels_after ops_before ops_after chains";
/// The `elab_cache` section of the metrics document and of `/stats`: a
/// miss's whole cost, phase by phase, beside the counters.
const ELAB_CACHE_KEYS: &str = "skeleton_hits skeleton_misses module_hits module_misses \
    skeleton_build_ns instantiate_ns fast_plan_ns skeleton_evictions module_evictions";
const SCHEDULE_KEYS: &str = "schema design sizes input_seed policy policy_seed reason rounds";
const RUN_KEYS: &str = "schema design engine stats verified stores";

/// Run `systolizer verify programs/<program> --sizes <sizes>` and return
/// what it printed, then what it wrote to each `--flag PATH` named in
/// `artifacts`.
fn cli_artifacts(program: &str, sizes: &str, artifacts: &[&str]) -> (String, Vec<String>) {
    let file = format!("programs/{program}");
    let src = std::fs::read_to_string(&file).expect("read the shipped program");
    let dir = std::env::temp_dir();
    let paths: Vec<String> = artifacts
        .iter()
        .map(|a| {
            let tag = format!("systolizer-doc-{}-{program}-{sizes}{a}", std::process::id());
            dir.join(tag).to_str().unwrap().to_string()
        })
        .collect();
    let mut raw = vec!["verify", &file, "--sizes", sizes];
    for (a, p) in artifacts.iter().zip(&paths) {
        raw.extend([*a, p.as_str()]);
    }
    let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
    let out = execute(&parse_args(&raw).unwrap(), &src).unwrap();
    assert!(out.starts_with("OK:"), "{out}");
    let written = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("artifact written");
            let _ = std::fs::remove_file(p);
            text
        })
        .collect();
    (out, written)
}

#[test]
fn every_document_parses_and_carries_its_schema_and_keys() {
    // `fir.sys` fuses relay chains at these sizes, so the optimizer
    // report carries its full keys here; its schema-alone form belongs to
    // a module the optimizer leaves untouched.
    let (_, cli) = cli_artifacts(
        "fir.sys",
        "3,6",
        &["--metrics", "--trace-out", "--opt-report"],
    );

    let svc = Service::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (ok_status, ok_body) = svc.handle_run(r#"{"design":"E.1","sizes":[3],"verify":true}"#);
    let (err_status, err_body) = svc.handle_run(r#"{"design":"Z.9","sizes":[3]}"#);
    assert_eq!((ok_status, err_status), (200, 404));

    let ce = explore(&RaceSubject { k: 6 }, &ExploreConfig::matrix(4))
        .unwrap()
        .counterexample
        .expect("the seeded race is caught");

    let (metrics_v1, opt_v1) = (Some("systolic-metrics-v1"), Some("systolic-opt-v1"));
    let service_v1 = Some("systolic-service-v1");
    let fused_keys = format!("{OPT_KEYS} wavefront");
    let (stats, schedule) = (svc.stats_json(), ce.schedule.to_json());
    let table: [(&str, &str, Option<&str>, &str); 7] = [
        ("metrics", &cli[0], metrics_v1, METRICS_KEYS),
        ("trace", &cli[1], None, "traceEvents displayTimeUnit"),
        ("opt report", &cli[2], opt_v1, &fused_keys),
        (
            "/stats",
            &stats,
            service_v1,
            "schema elab_cache plan_cache pool",
        ),
        ("/v1/run 200", &ok_body, service_v1, RUN_KEYS),
        ("/v1/run 404", &err_body, None, "error"),
        (
            "schedule file",
            &schedule,
            Some("systolic-schedule-v1"),
            SCHEDULE_KEYS,
        ),
    ];
    let mut docs = Vec::new();
    for (name, text, schema, keys) in table {
        let doc = parse(text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}\n{text}"));
        assert_eq!(doc.get("schema").and_then(Json::as_str), schema, "{name}");
        let Json::Obj(members) = &doc else {
            panic!("{name}: root is not an object");
        };
        let got: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, keys.split_whitespace().collect::<Vec<_>>(), "{name}");
        docs.push(doc);
    }

    for (name, doc) in [("metrics", &docs[0]), ("/stats", &docs[3])] {
        let Some(Json::Obj(members)) = doc.get("elab_cache") else {
            panic!("{name}: no elab_cache section");
        };
        let got: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = ELAB_CACHE_KEYS.split_whitespace().collect();
        assert_eq!(got, want, "{name}: elab_cache");
    }
    // The run above built its fast plan before the metrics snapshot.
    let fast_ns = docs[0].get("elab_cache").unwrap().get("fast_plan_ns");
    assert!(fast_ns.and_then(Json::as_i64).unwrap() > 0);

    // One writer, one shape: the metrics document embeds the optimizer's
    // report member for member, and both reports carry the same
    // `wavefront` section for the same module.
    let (metrics, fused) = (&docs[0], &docs[2]);
    let embedded = metrics.get("optimizer").unwrap();
    for key in OPT_KEYS.split_whitespace() {
        assert_eq!(embedded.get(key), fused.get(key), "optimizer.{key}");
    }
    let wavefront = metrics.get("wavefront").unwrap();
    assert_eq!(Some(wavefront), fused.get("wavefront"));
    assert_eq!(wavefront.get("eligible"), Some(&Json::Bool(true)));
    let Json::Obj(shape) = wavefront else {
        panic!("wavefront section is not an object");
    };
    let shape: Vec<&str> = shape.iter().map(|(k, _)| k.as_str()).collect();
    let num = |doc: &Json, k: &str| doc.get(k).and_then(Json::as_i64).unwrap();
    let keys = "eligible waves chunks cyclic_chunks largest_chunk max_ring_capacity \
                ring_values arena_bytes";
    assert_eq!(shape, keys.split_whitespace().collect::<Vec<_>>());
    // What the run state costs: the slab holds `ring_values` words, and
    // the arena is the slab plus the per-process and per-channel tables.
    let (values, bytes) = (num(wavefront, "ring_values"), num(wavefront, "arena_bytes"));
    assert!(
        values > 0 && bytes > 8 * values,
        "{values} values in {bytes} bytes"
    );
    let relays = |c: &Json| num(c, "relays");
    let chains = fused.get("chains").and_then(Json::as_arr).unwrap();
    assert!(!chains.is_empty(), "fir 3,6 fuses relay chains");
    assert_eq!(
        num(fused, "processes_before") - num(fused, "processes_after"),
        chains.iter().map(relays).sum::<i64>()
    );
    let error = docs[5].get("error").unwrap();
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("unknown-design")
    );
    assert!(error.get("offenders").and_then(Json::as_arr).is_some());
}

/// Both documents describe the module the default run executed — the
/// optimizer's, not the one it was elaborated as. On `polyprod.sys` at
/// n = 8, where relays fuse, the `wavefront` section of `--metrics` and of
/// `--opt-report` is the fused module's plan and `kernels` its kernel
/// plan, both built here from the runtime API alone; and the run printed
/// that module's process count.
#[test]
fn the_reports_describe_the_module_that_ran() {
    use systolizer::interp::{elaborate, ElabOptions, Problem};
    use systolizer::runtime::{analyze_kernels, analyze_wavefront, optimize};
    let (out, docs) = cli_artifacts("polyprod.sys", "8", &["--metrics", "--opt-report"]);
    let src = std::fs::read_to_string("programs/polyprod.sys").unwrap();
    let sys = systolizer::systolize_source(&src, &Default::default()).unwrap();
    let inputs = sys.source.variable_names();
    let Problem { env, store } = Problem::seeded(&sys.plan, &[8], &inputs, 42).unwrap();
    let el = elaborate(&sys.plan, &env, &store, &ElabOptions::default()).unwrap();
    let (fused, batch) = optimize(&el.module, &el.channels).expect("polyprod.sys n=8 fuses relays");
    assert!(fused.report.fused_relays() > 0);
    let waves = analyze_wavefront(&fused.module, &batch, &fused.ring_needs);
    let ran = waves.json(&fused.module);
    let kernels = analyze_kernels(&fused.module, &waves).json();
    let processes = fused.module.procs.len();
    assert!(
        out.starts_with(&format!("OK: {processes} processes")),
        "{out}"
    );
    let (metrics, report) = (parse(&docs[0]).unwrap(), parse(&docs[1]).unwrap());
    assert_eq!(metrics.get("wavefront"), Some(&ran), "metrics");
    assert_eq!(report.get("wavefront"), Some(&ran), "--opt-report");
    assert_eq!(metrics.get("kernels"), Some(&kernels), "metrics");
}
