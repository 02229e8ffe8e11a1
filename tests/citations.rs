//! Every test and benchmark metric a document cites exists. The
//! documents are `README.md`, `DESIGN.md`, `EXPERIMENTS.md`, `docs/*.md`,
//! the verify notes under `.claude/skills/`, and the `//!`/`///` docs of
//! every `.rs` file under `crates/`, `src/` and `tests/`. In their
//! backticked spans, a path under `tests/` must exist, and
//! `tests/<file>.rs::<name>` and `tests/common::<name>` must name an item
//! of that file (a test a `matrix_rows!` list declares counts); a dotted
//! name that begins like a `BENCHMARK.json` metric (`sim.steps.e2_n16`,
//! `interp.simulate.us.*`, `warm_kernel.p50_ms`) must name one. And the
//! command lines the user guides show run: see [`COMMAND_DOCS`].

use std::fs;
use std::path::{Path, PathBuf};

/// Every document to scan, with the text to scan in it: the whole of a
/// Markdown file, the doc-comment lines of a Rust file.
fn documents(root: &Path) -> Vec<(String, PathBuf)> {
    let mut docs: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .map(|f| root.join(f))
        .into();
    docs.extend(files(&root.join("docs"), "md"));
    docs.extend(files(&root.join(".claude/skills"), "md"));
    let read = |p: PathBuf| (fs::read_to_string(&p).unwrap(), p);
    let mut out: Vec<(String, PathBuf)> = docs.into_iter().map(read).collect();
    for dir in ["crates", "src", "tests"] {
        for p in files(&root.join(dir), "rs") {
            let text = fs::read_to_string(&p).unwrap();
            let doc = |l: &&str| {
                let l = l.trim_start();
                l.starts_with("//!") || l.starts_with("///")
            };
            let lines: Vec<&str> = text.lines().filter(doc).collect();
            out.push((lines.join("\n"), p));
        }
    }
    out
}

/// The files with extension `ext` under `dir`, recursively, skipping
/// build output.
fn files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() && !path.ends_with("target") {
            out.extend(files(&path, ext));
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// Every `tests/…` citation inside a backticked span of `text`.
fn citations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in text.lines() {
        for span in line.split('`').skip(1).step_by(2) {
            for (at, _) in span.match_indices("tests/") {
                let cite: String = span[at..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || "_/.:".contains(*c))
                    .collect();
                let starts_word = at == 0 || !span[..at].ends_with(|c: char| c.is_alphanumeric());
                if starts_word {
                    out.push(cite.trim_end_matches([':', '.']).to_string());
                }
            }
        }
    }
    out
}

/// Whether `file` declares an item called `name`.
fn declares(file: &Path, name: &str) -> bool {
    let Ok(text) = fs::read_to_string(file) else {
        return false;
    };
    let kinds = "fn const static struct enum type mod macro_rules!";
    text.lines().map(str::trim_start).any(|l| {
        let l = l.strip_prefix("pub ").unwrap_or(l);
        let item = kinds.split(' ').any(|k| {
            l.strip_prefix(k)
                .and_then(|r| r.strip_prefix(' '))
                .is_some_and(|r| {
                    r.strip_prefix(name)
                        .is_some_and(|r| !r.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
                })
        });
        item || l.strip_prefix(name).is_some_and(|r| r.starts_with(','))
    })
}

/// What is wrong with one citation, if anything.
fn broken(root: &Path, cite: &str) -> Option<String> {
    let (path, names) = match cite.split_once("::") {
        Some(("tests/common", names)) => match names.rsplit_once("::") {
            Some((module, name)) => (
                format!("tests/common/{}.rs", module.replace("::", "/")),
                name,
            ),
            None => ("tests/common/mod.rs".to_string(), names),
        },
        Some((path, names)) => (path.to_string(), names.rsplit("::").next().unwrap()),
        None => (cite.to_string(), ""),
    };
    if !root.join(&path).exists() {
        return Some(format!("{path} does not exist"));
    }
    (!names.is_empty() && !declares(&root.join(&path), names))
        .then(|| format!("{path} declares no `{names}`"))
}

#[test]
fn every_cited_test_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut wrong = Vec::new();
    for (text, doc) in documents(root) {
        for cite in citations(&text) {
            checked += 1;
            if let Some(why) = broken(root, &cite) {
                let doc = doc.strip_prefix(root).unwrap().display();
                wrong.push(format!("{doc}: `{cite}`: {why}"));
            }
        }
    }
    println!("{checked} citations checked");
    assert!(checked > 100, "only {checked} citations found");
    assert!(
        wrong.is_empty(),
        "{} broken:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// Every `"name"` member of `BENCHMARK.json`: its metrics, end to end
/// and per layer, and its workloads. Read as text: the document's bounds
/// are floats, which no schema of the workspace's JSON parser admits.
fn metric_names(root: &Path) -> Vec<String> {
    let text = fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let values = text.split("\"name\"").skip(1);
    let value = |rest: &str| rest.split('"').nth(1).unwrap().to_string();
    values.map(value).collect()
}

/// Every backticked span of `text` that is a dotted name starting with
/// one of `heads` (the first segments of the dotted metric names), file
/// names aside: `sim.*` is a citation, `sim.rs` is not.
fn metric_citations(text: &str, heads: &[&str]) -> Vec<String> {
    let word = |s: &str| {
        let in_name = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || "_*".contains(c);
        !s.is_empty() && s.chars().all(in_name)
    };
    let files = ["rs", "md", "sys", "json", "sh", "txt", "toml", "yml"];
    let mut out = Vec::new();
    for line in text.lines() {
        for span in line.split('`').skip(1).step_by(2) {
            let segments: Vec<&str> = span.split('.').collect();
            let cited = segments.len() > 1
                && segments.iter().all(|s| word(s))
                && heads.contains(&segments[0])
                && !files.contains(segments.last().unwrap());
            if cited {
                out.push(span.to_string());
            }
        }
    }
    out
}

/// Whether the dotted `pattern` names the dotted `name`: a `*` segment
/// stands for one or more segments, a `*` inside a segment for any run
/// of characters in it.
fn names(pattern: &[&str], name: &[&str]) -> bool {
    let segment = |p: &str, n: &str| match p.split_once('*') {
        Some((pre, post)) => {
            n.len() >= pre.len() + post.len() && n.starts_with(pre) && n.ends_with(post)
        }
        None => p == n,
    };
    match (pattern, name) {
        ([], []) => true,
        (["*", rest @ ..], _) => (1..=name.len()).any(|k| names(rest, &name[k..])),
        ([p, rest @ ..], [n, more @ ..]) => segment(p, n) && names(rest, more),
        _ => false,
    }
}

#[test]
fn every_cited_metric_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let metrics = metric_names(root);
    let split: Vec<Vec<&str>> = metrics.iter().map(|m| m.split('.').collect()).collect();
    let heads: Vec<&str> = split.iter().filter(|m| m.len() > 1).map(|m| m[0]).collect();
    let mut checked = 0;
    let mut wrong = Vec::new();
    for (text, doc) in documents(root) {
        for cite in metric_citations(&text, &heads) {
            checked += 1;
            let pattern: Vec<&str> = cite.split('.').collect();
            if !split.iter().any(|m| names(&pattern, m)) {
                let doc = doc.strip_prefix(root).unwrap().display();
                wrong.push(format!("{doc}: `{cite}` names no BENCHMARK.json metric"));
            }
        }
    }
    println!("{checked} metric citations checked");
    assert!(checked > 30, "only {checked} metric citations found");
    assert!(
        wrong.is_empty(),
        "{} broken:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
    assert!(names(&["sim", "*"], &["sim", "steps", "e2_n16"]));
    assert!(
        !names(&["sim", "*"], &["sim"]),
        "`*` is one segment or more"
    );
    assert!(!names(&["sim", "steps"], &["sim", "steps", "e2_n16"]));
    assert!(names(
        &["service", "*_cache", "hit_ratio"],
        &["service", "plan_cache", "hit_ratio"]
    ));
}

/// The guides whose `sh`/`console` blocks show `systolizer` command lines
/// (`cargo run -- …` or `systolizer …`), each of which must parse, and
/// run where it simulates or compiles.
const COMMAND_DOCS: [&str; 5] = [
    "README.md",
    "docs/TUTORIAL.md",
    "docs/observability.md",
    "docs/service.md",
    "docs/testing.md",
];

/// One documented command: its argv (the shell line up to its first
/// metacharacter) and the text of a `# OK:` comment on the line after
/// it, if there is one.
struct Documented {
    argv: Vec<String>,
    ok: Option<String>,
}

/// The `systolizer` argv of one shell line, or `None` for a line that
/// runs something else (`curl`, `rustc`, `cargo run --example …`).
fn systolizer_argv(line: &str) -> Option<Vec<String>> {
    let line = line.strip_prefix("$ ").unwrap_or(line);
    let rest = match line.split_once(" -- ") {
        Some((cargo, rest)) if line.starts_with("cargo run") => {
            let own = |w: &str| ["cargo", "run", "--release"].contains(&w);
            cargo.split_whitespace().all(own).then_some(rest)?
        }
        _ => line.strip_prefix("systolizer ")?,
    };
    let meta = |w: &&str| !w.starts_with(['>', '<', '|', '&', ';', '#', '$']);
    Some(
        rest.split_whitespace()
            .take_while(meta)
            .map(String::from)
            .collect(),
    )
}

/// Every command line in the `sh`/`console` blocks of `text`, with
/// `\`-continued lines joined.
fn documented_commands(text: &str) -> Vec<Documented> {
    let mut out = Vec::new();
    let mut shell = false;
    let mut lines = text.lines().map(str::trim).peekable();
    while let Some(line) = lines.next() {
        if let Some(lang) = line.strip_prefix("```") {
            shell = !shell && ["sh", "console"].contains(&lang);
            continue;
        }
        if !shell {
            continue;
        }
        let mut line = line.to_string();
        while let Some(head) = line.strip_suffix('\\') {
            line = format!("{head} {}", lines.next().unwrap_or_default());
        }
        let Some(argv) = systolizer_argv(&line) else {
            continue;
        };
        let ok = lines
            .peek()
            .and_then(|next| next.strip_prefix("# "))
            .filter(|next| next.starts_with("OK:"))
            .map(|next| next.split("...").next().unwrap().trim_end().to_string());
        out.push(Documented { argv, ok });
    }
    out
}

/// The guides spell `cargo run -- …` without `--bin`, and the root
/// `cargo run` builds the default members, which carry a second binary
/// (`systolic-sim`'s `dst_explore`); the root package must name itself
/// the one to run, or every such line stops with "could not determine
/// which binary to run". The commands above run in-process, so they
/// cannot see this.
#[test]
fn a_bare_cargo_run_runs_systolizer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let package = manifest.split("\n[package]\n").nth(1).unwrap();
    let package = package.split("\n[").next().unwrap();
    assert!(
        package
            .lines()
            .any(|l| l.trim() == r#"default-run = "systolizer""#),
        "the root [package] names no default-run:\n{package}"
    );
}

/// Every `systolizer` command line the guides show parses, so no guide
/// spells a deleted or misspelt flag; the ones that compile or simulate
/// run, their artifacts written to a scratch directory; and where the
/// guide shows the `OK:` line that follows, the run prints it.
#[test]
fn every_documented_command_runs() {
    use systolizer::cli::{execute, parse_args};
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scratch =
        std::env::temp_dir().join(format!("systolizer-doc-commands-{}", std::process::id()));
    fs::create_dir_all(&scratch).unwrap();
    let (mut parsed, mut ran, mut printed) = (0, 0, 0);
    for doc in COMMAND_DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        for Documented { argv, ok } in documented_commands(&text) {
            let shown = argv.join(" ");
            let mut inv = parse_args(&argv).unwrap_or_else(|e| panic!("{doc}: `{shown}`: {e}"));
            parsed += 1;
            if !["run", "verify", "describe", "compile"].contains(&inv.command.as_str()) {
                continue;
            }
            for (flag, value) in &mut inv.flags {
                if ["metrics", "trace-out", "opt-report"].contains(&flag.as_str()) {
                    *value = scratch.join(&*value).to_str().unwrap().to_string();
                }
            }
            let src = fs::read_to_string(root.join(&inv.file)).unwrap();
            let out = execute(&inv, &src).unwrap_or_else(|e| panic!("{doc}: `{shown}`: {e}"));
            ran += 1;
            if let Some(ok) = ok {
                let first = out.lines().next().unwrap_or_default();
                assert!(
                    first.starts_with(&ok),
                    "{doc}: `{shown}` printed\n{first}\nnot\n{ok}"
                );
                printed += 1;
            }
        }
    }
    let _ = fs::remove_dir_all(&scratch);
    println!("{parsed} documented commands parsed, {ran} ran, {printed} printed their OK: line");
    assert!(
        parsed >= 10 && ran >= 6 && printed >= 1,
        "{parsed} {ran} {printed}"
    );
    let sample = "```sh\ncargo run --release -- run f.sys \\\n  --sizes 2 > out.txt\n\
                  # OK: 3 processes, ... [wavefront]\ncargo run --example x -- y\n```\n\
                  ```console\n$ systolizer verify f.sys # note\n```\n";
    let found = documented_commands(sample);
    let argv: Vec<String> = found.iter().map(|d| d.argv.join(" ")).collect();
    assert_eq!(argv, ["run f.sys --sizes 2", "verify f.sys"]);
    assert_eq!(found[0].ok.as_deref(), Some("OK: 3 processes,"));
    assert_eq!(found[1].ok, None);
}
