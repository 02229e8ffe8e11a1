//! Integration tests for the `systolizer` command-line driver.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_systolizer"))
}

fn program_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs/polyprod.sys")
}

#[test]
fn verify_subcommand_passes_on_the_sample_program() {
    let out = bin()
        .args(["verify", program_file().to_str().unwrap(), "--sizes", "5"])
        .output()
        .expect("run CLI");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("OK:"), "{stdout}");
    assert!(stdout.contains("systolic result == sequential result"));
}

#[test]
fn compile_emits_each_backend() {
    for (emit, needle) in [
        ("paper", "parfor"),
        ("occam", "PAR"),
        ("c", "PARFOR"),
        ("report", "increment"),
    ] {
        let out = bin()
            .args(["compile", program_file().to_str().unwrap(), "--emit", emit])
            .output()
            .expect("run CLI");
        assert!(out.status.success(), "emit={emit}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(needle), "emit={emit}: {stdout}");
    }
}

#[test]
fn compile_with_projection_flag() {
    let out = bin()
        .args([
            "compile",
            program_file().to_str().unwrap(),
            "--place",
            "proj:1,-1",
            "--emit",
            "report",
        ])
        .output()
        .expect("run CLI");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2*n"),
        "place i+j gives PS_max 2n: {stdout}"
    );
}

#[test]
fn explore_subcommand_prints_a_table() {
    let out = bin()
        .args([
            "explore",
            program_file().to_str().unwrap(),
            "--bound",
            "2",
            "--sample",
            "5",
        ])
        .output()
        .expect("run CLI");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("makespan"));
    assert!(stdout.contains("designs total"));
}

#[test]
fn bad_usage_and_bad_files_fail_cleanly() {
    let out = bin().args(["compile"]).output().unwrap();
    assert!(!out.status.success());
    let out = bin()
        .args(["verify", "/nonexistent.sys", "--sizes", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = bin()
        .args(["frobnicate", program_file().to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // A flag given twice is a usage error (exit 2, the usage text,
    // nothing on stdout), not a run at either value.
    let out = bin()
        .args(["run", program_file().to_str().unwrap()])
        .args(["--sizes", "4", "--sizes", "8"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: --sizes given twice\n\nusage: "),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn size_arity_mismatch_is_reported() {
    let fir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs/fir.sys");
    let out = bin()
        .args(["verify", fir.to_str().unwrap(), "--sizes", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("size parameter"), "{stderr}");
    // And the correct arity passes.
    let out = bin()
        .args(["verify", fir.to_str().unwrap(), "--sizes", "3,7"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn problems_that_cannot_be_bound_exit_1_with_an_error_line() {
    // None of these is a panic (101), an abort (a signal) or a silent
    // default: a schedule file of the wrong size arity, a store of 3e10
    // words, a seed that is not a number.
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let matmul = manifest.join("programs/matmul.sys");
    let matmul = matmul.to_str().unwrap();
    let schedule = std::env::temp_dir().join(format!("bad-arity-{}.json", std::process::id()));
    std::fs::write(
        &schedule,
        r#"{"schema":"systolic-schedule-v1","design":"fir","sizes":[3]}"#,
    )
    .unwrap();
    for (args, needle) in [
        (
            vec!["replay", "--schedule", schedule.to_str().unwrap()],
            "takes 2 size(s)",
        ),
        (
            vec!["run", matmul, "--sizes", "100000"],
            "problem too large: host-store words 30000600003 exceeds the limit",
        ),
        (
            vec!["run", matmul, "--sizes", "4", "--seed", "abc"],
            "bad --seed value abc (a non-negative integer)",
        ),
    ] {
        let out = bin().args(&args).output().expect("run CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let _ = std::fs::remove_file(&schedule);
}

#[test]
fn an_expression_past_the_depth_cap_is_a_message_not_an_abort() {
    // 20 000 parentheses, and a 50 000-term sum: both used to overflow
    // the parser's (or a later walk's) stack and exit 134.
    let program = |rhs: String| {
        format!(
            "program deep;\nsize n;\nvar a[0..n], b[0..n], c[0..2*n];\n\
             for i = 0 <- 1 -> n\nfor j = 0 <- 1 -> n {{\n  c[i+j] = {rhs};\n}}\n"
        )
    };
    let sources = [
        program(format!("{}a[i]{}", "(".repeat(20_000), ")".repeat(20_000))),
        program(vec!["a[i]"; 50_000].join(" + ")),
    ];
    let path = std::env::temp_dir().join(format!("deep-{}.sys", std::process::id()));
    for src in sources {
        std::fs::write(&path, src).unwrap();
        for sub in [&["compile"][..], &["run", "--sizes", "4"]] {
            let out = bin().args(sub).arg(&path).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{sub:?}: {stderr}");
            let needle = "line 6: expression nested deeper than 256 levels";
            assert!(stderr.contains(needle), "{sub:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_closed_stdout_is_not_a_panic() {
    // `systolizer verify … | true`: the reader has gone before the first
    // write, so the write fails with EPIPE. That is the reader's choice:
    // no panic, no backtrace, exit 0.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = bin()
        .args(["verify", program_file().to_str().unwrap(), "--sizes", "5"])
        .stdout(writer)
        .output()
        .expect("run CLI");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{stderr}");
}
