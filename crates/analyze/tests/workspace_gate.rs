//! The enforcement gate, end to end: the real workspace is clean against
//! the committed baseline, and a seeded violation file turns the run red —
//! both through the library API and through the CLI's exit code.

use std::path::{Path, PathBuf};
use std::process::Command;

use rddr_analyze::baseline::Baseline;
use rddr_analyze::{analyze_workspace, find_workspace_root, Lint};

fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(manifest).expect("workspace root above crates/analyze")
}

#[test]
fn workspace_is_clean_against_committed_baseline() {
    let root = workspace_root();
    let analysis = analyze_workspace(&root).expect("scan workspace");
    assert!(analysis.files_scanned > 100, "workspace has >100 sources");
    let baseline = Baseline::load(&root.join("analyze-baseline.toml")).expect("baseline parses");
    let ratchet = baseline.ratchet(&analysis.findings);
    assert!(
        ratchet.passed(),
        "new violations vs committed baseline:\n{}",
        rddr_analyze::report::text_summary(&analysis, &baseline, &ratchet)
    );
}

#[test]
fn proxy_and_core_fixes_hold_the_line() {
    // The PR that introduced the analyzer also fixed its findings in the
    // proxy hot paths (unwrap/expect) and core's order-sensitive maps;
    // these files must stay free of those specific classes.
    let root = workspace_root();
    let analysis = analyze_workspace(&root).expect("scan workspace");
    for f in &analysis.findings {
        if f.lint == Lint::PanicPath && f.file.starts_with("crates/proxy/") {
            assert!(
                !f.message.contains("unwrap") && !f.message.contains("expect"),
                "proxy unwrap/expect regression: {f}"
            );
        }
        if f.lint == Lint::Determinism
            && (f.file.ends_with("signature.rs") || f.file.ends_with("ephemeral.rs"))
        {
            panic!("core determinism regression: {f}");
        }
    }
}

/// Builds a miniature workspace in a temp dir: one crate with the given
/// source file, plus an empty baseline.
fn seed_workspace(tag: &str, crate_name: &str, source: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rddr-analyze-gate-{tag}"));
    let src_dir = dir.join("crates").join(crate_name).join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(src_dir.join("lib.rs"), source).expect("write source");
    std::fs::write(dir.join("analyze-baseline.toml"), "").expect("write baseline");
    dir
}

#[test]
fn seeded_violation_fails_through_the_library() {
    let dir = seed_workspace(
        "lib",
        "proxy",
        "pub fn hot(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );
    let analysis = analyze_workspace(&dir).expect("scan seeded workspace");
    let baseline = Baseline::load(&dir.join("analyze-baseline.toml")).expect("load");
    let ratchet = baseline.ratchet(&analysis.findings);
    assert!(!ratchet.passed(), "seeded unwrap must regress");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_exit_codes_clean_vs_seeded() {
    let bin = env!("CARGO_BIN_EXE_rddr-analyze");

    // Clean seeded workspace: exit 0.
    let clean = seed_workspace("cli-clean", "proxy", "pub fn ok(x: u8) -> u8 { x }\n");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&clean)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "clean: {out:?}");

    // Violating workspace: exit 1 and the finding is named on stdout.
    let dirty = seed_workspace(
        "cli-dirty",
        "core",
        "use std::collections::HashMap;\npub type T = HashMap<u8, u8>;\n",
    );
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&dirty)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "dirty: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("determinism"), "{stdout}");
    assert!(stdout.contains("HashMap"), "{stdout}");

    // Bad flag: exit 2.
    let out = Command::new(bin)
        .arg("--frobnicate")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&clean).ok();
    std::fs::remove_dir_all(&dirty).ok();
}

#[test]
fn explain_prints_rule_and_suppression_for_every_pass() {
    let bin = env!("CARGO_BIN_EXE_rddr-analyze");
    for lint in Lint::ALL {
        let out = Command::new(bin)
            .args(["--explain", lint.key()])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{lint}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("allow({})", lint.key())),
            "{lint}: suppression syntax shown:\n{stdout}"
        );
    }
    // `all` concatenates, including the taint extension's entry.
    let out = Command::new(bin)
        .args(["--explain", "all"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("call graph"), "{stdout}");
    // Unknown pass: usage error.
    let out = Command::new(bin)
        .args(["--explain", "made-up"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn forbid_stale_rejects_loose_ceilings() {
    let bin = env!("CARGO_BIN_EXE_rddr-analyze");
    let dir = seed_workspace("stale", "net", "pub fn ok(x: u8) -> u8 { x }\n");
    // A ceiling the clean crate no longer needs…
    std::fs::write(
        dir.join("analyze-baseline.toml"),
        "[panic-path]\n\"crates/net/src/lib.rs\" = 3\n",
    )
    .expect("write stale baseline");
    // …passes a plain run…
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // …but fails --forbid-stale, naming the remedy.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&dir)
        .arg("--forbid-stale")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("STALE"), "{stdout}");
    assert!(stdout.contains("--write-baseline"), "{stdout}");
    // After regenerating, --forbid-stale is clean.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&dir)
        .arg("--write-baseline")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&dir)
        .arg("--forbid-stale")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_report_carries_per_stage_timings() {
    let bin = env!("CARGO_BIN_EXE_rddr-analyze");
    let dir = seed_workspace("timings", "net", "pub fn ok(x: u8) -> u8 { x }\n");
    let json_path = dir.join("report.json");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&dir)
        .args(["--json"])
        .arg(&json_path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(json.contains("\"timings_ms\""), "{json}");
    for stage in [
        "\"parse\":",
        "\"callgraph\":",
        "\"taint\":",
        "\"blocking-hot-path\":",
    ] {
        assert!(json.contains(stage), "stage {stage} timed: {json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_baseline_then_rerun_is_clean() {
    let bin = env!("CARGO_BIN_EXE_rddr-analyze");
    let dir = seed_workspace("ratchet", "net", "pub fn hot(v: &[u8]) -> u8 { v[0] }\n");
    // Against the empty baseline the indexing is a new violation…
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    // …grandfather it…
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&dir)
        .arg("--write-baseline")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // …and the rerun passes while a JSON report records the ceiling.
    let json_path = dir.join("report.json");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(&dir)
        .args(["--json"])
        .arg(&json_path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(json.contains("\"passed\": true"), "{json}");
    assert!(
        json.contains("\"lint\": \"panic-path\", \"violations\": 1, \"baseline\": 1, \"new\": 0"),
        "{json}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_loop_reaches_every_session_method_and_the_drain() {
    use rddr_analyze::callgraph::CallGraph;
    use rddr_analyze::source::SourceFile;
    // The graph over the proxy crate alone: the reactor must reach both
    // sessions through the `SessionTask` dispatch, not through some
    // other crate's same-named function.
    let root = workspace_root();
    let mut files: Vec<SourceFile> = std::fs::read_dir(root.join("crates/proxy/src"))
        .expect("proxy sources")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under the root");
            let rel = rel
                .to_string_lossy()
                .replace(std::path::MAIN_SEPARATOR, "/");
            SourceFile::parse(rel, "proxy", &std::fs::read(&path).expect("read source"))
        })
        .collect();
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let graph = CallGraph::build(&files);
    let worker = graph
        .node("proxy::reactor::worker_loop")
        .expect("worker_loop node");
    let reached = graph.reachable(&[worker]);
    let mut wanted = vec![
        "proxy::reactor::drain_and_step".to_string(),
        "proxy::session::receive".to_string(),
    ];
    for side in ["incoming", "outgoing"] {
        for method in [
            "init",
            "on_data",
            "on_close",
            "step",
            "teardown",
            "state_ordinal",
        ] {
            wanted.push(format!("proxy::{side}::{method}"));
        }
    }
    let missed: Vec<&String> = wanted
        .iter()
        .filter(|id| graph.node(id).is_none_or(|n| !reached.contains_key(&n)))
        .collect();
    assert!(missed.is_empty(), "worker_loop does not reach {missed:?}");
}
