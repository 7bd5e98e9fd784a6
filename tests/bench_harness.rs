//! End-to-end tests for the declarative suite harness: `tfb bench
//! ls|run|cmp|rank` over real suite files, the auto-recorded history,
//! and the `obs record`/`obs gate` integration (multi-path record,
//! noise-aware double-run gate).

use std::path::{Path, PathBuf};
use std::process::Command;
use tfb_json::JsonValue;

fn tfb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tfb"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tfb_bench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiny two-cell eval suite that runs in milliseconds.
const TINY_SUITE: &str = r#"
name = "eval/tiny"
engine = "eval"
description = "two-cell smoke suite"

[defaults]
dataset = "ILI"
characteristic = "seasonality"
horizon = 12
lookback = 24
max_len = 400
max_windows = 2
max_dim = 2
iters = 1

[[entry]]
name = "naive"
method = "Naive"

[[entry]]
name = "lr"
method = "LR"
"#;

fn write_tiny_suite(dir: &Path) -> PathBuf {
    let suites = dir.join("suites");
    std::fs::create_dir_all(&suites).unwrap();
    std::fs::write(suites.join("tiny.toml"), TINY_SUITE).unwrap();
    suites
}

fn run_tiny(dir: &Path, hist: &Path, out_tag: &str) -> PathBuf {
    let suites = write_tiny_suite(dir);
    let out_dir = dir.join(out_tag);
    let out = tfb(&[
        "bench",
        "run",
        "--suites",
        suites.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
        "--history",
        hist.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "bench run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out_dir
}

/// The `tfb bench ls` line listing `suite`.
fn line_of<'a>(ls: &'a str, suite: &str) -> &'a str {
    ls.lines()
        .find(|l| l.split_whitespace().next() == Some(suite))
        .unwrap_or_else(|| panic!("no {suite} line in:\n{ls}"))
}

#[test]
fn bench_ls_discovers_the_repo_suites() {
    // The real suite directory shipped in the repo, not a fixture: `ls`
    // must see the suites the paper tables ride on and every suite CI
    // reads its benchmark assertions from.
    let suites = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches/suites");
    let out = tfb(&["bench", "ls", "--suites", suites.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for suite in [
        "eval/ci-smoke",
        "eval/engine-grid",
        "eval/etth1",
        "eval/table6",
        "eval/table7",
        "math/kernels",
        "serve/fleet",
        "serve/load",
        "serve/quality",
        "serve/smoke",
    ] {
        assert!(
            text.contains(suite),
            "`bench ls` is missing {suite}:\n{text}"
        );
    }
    assert!(
        text.lines().count() >= 10,
        "fewer suites than expected:\n{text}"
    );
    // The cells behind those assertions: the statistical
    // sequential/parallel pairs, the whole-call kernels, the recorder
    // overhead leg and the legacy coalescer.
    let engine_grid = line_of(&text, "eval/engine-grid");
    assert!(engine_grid.contains(" 14  "), "{engine_grid}");
    let kernels = line_of(&text, "math/kernels");
    assert!(kernels.contains(" 23  "), "{kernels}");
    let load = line_of(&text, "serve/load");
    assert!(load.contains(" 2  "), "{load}");
    let smoke = line_of(&text, "serve/smoke");
    assert!(smoke.contains(" 4  "), "{smoke}");
}

#[test]
fn bench_run_records_manifest_history_and_bench_rendering() {
    let dir = temp_dir("run");
    let hist = dir.join("history");
    let out_dir = run_tiny(&dir, &hist, "out");

    // The tfb-obs/v1 manifest, with measurement rows for both cells.
    let manifest_path = out_dir.join("eval_tiny.manifest.json");
    let text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let doc = JsonValue::parse(&text).expect("manifest parses");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("tfb-obs/v1")
    );
    let rows = doc
        .get("measurements")
        .and_then(|v| v.as_array())
        .expect("measurements section");
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("name").and_then(|s| s.as_str()))
        .collect();
    assert!(names.contains(&"eval/tiny/naive"), "{names:?}");
    assert!(names.contains(&"eval/tiny/lr"), "{names:?}");
    let wall = rows
        .iter()
        .find(|r| {
            r.get("name").and_then(|s| s.as_str()) == Some("eval/tiny/lr")
                && r.get("quantity").and_then(|s| s.as_str()) == Some("wall")
        })
        .expect("lr wall row");
    assert!(wall.get("min").and_then(JsonValue::as_f64).unwrap() > 0.0);
    assert_eq!(
        wall.get("characteristic").and_then(|s| s.as_str()),
        Some("seasonality")
    );

    // Accuracy scores ride both channels: measurement rows and metrics.
    assert!(
        rows.iter()
            .any(|r| r.get("quantity").and_then(|s| s.as_str()) == Some("msmape")),
        "no msmape measurement row"
    );
    assert!(
        doc.get("metrics").and_then(|v| v.as_array()).is_some(),
        "no metrics section (report_metric channel)"
    );

    // The BENCH-style rendering of the same measurements.
    let bench = std::fs::read_to_string(out_dir.join("eval_tiny.bench.json")).unwrap();
    let bench_doc = JsonValue::parse(&bench).unwrap();
    let entries = bench_doc
        .get("benchmarks")
        .and_then(|v| v.as_array())
        .expect("benchmarks array");
    assert_eq!(entries.len(), rows.len(), "rendering covers every row");

    // The run auto-recorded into the history.
    let index = std::fs::read_to_string(hist.join("index.jsonl")).unwrap();
    assert_eq!(index.lines().count(), 1, "one history entry");

    // `bench rank` regenerates a ranking from that history alone.
    let out = tfb(&[
        "bench",
        "rank",
        "--by",
        "characteristic",
        "--history",
        hist.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rank = String::from_utf8_lossy(&out.stdout);
    assert!(rank.contains("characteristic = seasonality"), "{rank}");
    assert!(
        rank.contains("| Naive |") && rank.contains("| LR |"),
        "{rank}"
    );

    // Grouping by dataset works off the same records.
    let out = tfb(&[
        "bench",
        "rank",
        "--by",
        "dataset",
        "--history",
        hist.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("dataset = ILI"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_run_glob_selects_cells_and_unknown_pattern_errors() {
    let dir = temp_dir("glob");
    let suites = write_tiny_suite(&dir);
    let hist = dir.join("history");
    let out = tfb(&[
        "bench",
        "run",
        "eval/tiny/lr",
        "--suites",
        suites.to_str().unwrap(),
        "--out",
        dir.join("out").to_str().unwrap(),
        "--history",
        hist.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 cell(s)"), "only the lr cell runs:\n{text}");

    let out = tfb(&[
        "bench",
        "run",
        "serve/nonexistent/*",
        "--suites",
        suites.to_str().unwrap(),
        "--history",
        "none",
    ]);
    assert!(!out.status.success(), "unknown pattern must fail loudly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn double_run_gate_passes_noise_aware() {
    let dir = temp_dir("gate");
    let hist = dir.join("history");
    run_tiny(&dir, &hist, "out1");
    run_tiny(&dir, &hist, "out2");
    let index = std::fs::read_to_string(hist.join("index.jsonl")).unwrap();
    assert_eq!(index.lines().count(), 2, "two history entries");

    // Accuracy metrics are deterministic (the engine verifies per-iter
    // determinism itself), so they hold at the tight default tolerance.
    // Timings on a shared test machine are not: the resource tolerance
    // is deliberately generous here — the CI workflow uses 50% on
    // quieter runners — because this test asserts the gate *pipeline*
    // (harness manifests flow through min-of-K aggregation and the
    // noise floor without tripping), not machine stability.
    let out = tfb(&[
        "obs",
        "gate",
        "--baseline",
        "first",
        "--candidate",
        "last",
        "--min-runs",
        "1",
        "--tol-pct",
        "400",
        "--history",
        hist.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "gate failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("gate: PASS"), "{stdout}");
    // Measurement rows must actually be covered by the gate (or
    // legitimately skipped under the noise floor), not dropped.
    assert!(
        stdout.contains("meas ") || stdout.contains("metric "),
        "no measurement/metric checks in the gate output:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gate_on_identical_manifests_is_exactly_zero() {
    let dir = temp_dir("gate_zero");
    let out_dir = run_tiny(&dir, &dir.join("history"), "out");
    let manifest = out_dir.join("eval_tiny.manifest.json");
    let m = manifest.to_str().unwrap();
    // Candidate == baseline: every check must read +0.0% even at a
    // 1% tolerance — the strict-determinism proof of the pipeline.
    let out = tfb(&[
        "obs",
        "gate",
        "--baseline",
        m,
        "--candidate",
        m,
        "--tol-pct",
        "1",
        "--history",
        "none",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("gate: PASS"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_cmp_renders_measurement_deltas() {
    let dir = temp_dir("cmp");
    let hist = dir.join("history");
    run_tiny(&dir, &hist, "out1");
    run_tiny(&dir, &hist, "out2");
    let out = tfb(&[
        "bench",
        "cmp",
        "first",
        "last",
        "--history",
        hist.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("eval/tiny/lr/wall"), "{text}");
    assert!(text.contains('%'), "no deltas rendered:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn obs_record_accepts_multiple_paths_and_globs() {
    let dir = temp_dir("record");
    let out_dir = run_tiny(&dir, &dir.join("unused-history"), "out");
    // A second manifest file alongside the first.
    let a = out_dir.join("eval_tiny.manifest.json");
    let b = out_dir.join("copy.manifest.json");
    std::fs::copy(&a, &b).unwrap();

    // Two literal paths in one invocation.
    let hist = dir.join("hist-multi");
    let out = tfb(&[
        "obs",
        "record",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--history",
        hist.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let index = std::fs::read_to_string(hist.join("index.jsonl")).unwrap();
    assert_eq!(index.lines().count(), 2, "both manifests recorded");

    // A glob pattern (quoted through to the binary, no shell expansion).
    let hist_glob = dir.join("hist-glob");
    let pattern = format!("{}/*.manifest.json", out_dir.to_str().unwrap());
    let out = tfb(&[
        "obs",
        "record",
        &pattern,
        "--history",
        hist_glob.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let index = std::fs::read_to_string(hist_glob.join("index.jsonl")).unwrap();
    assert_eq!(index.lines().count(), 2, "glob matched both manifests");

    // A glob that matches nothing fails loudly instead of recording
    // zero manifests silently.
    let out = tfb(&[
        "obs",
        "record",
        "no/such/dir/*.manifest.json",
        "--history",
        dir.join("hist-err").to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "empty glob must fail");
    let _ = std::fs::remove_dir_all(&dir);
}
