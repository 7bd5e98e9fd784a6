//! `obs_summary` — renders a tfb-obs run manifest as a flamegraph-style
//! phase breakdown plus the top-N slowest (dataset, method) cells.
//!
//! ```text
//! obs_summary <manifest.json> [--top N] [--compare BASE.json]
//! ```
//!
//! With `--compare` the summary is followed by a full diff against the
//! baseline manifest (worst regression first).
//!
//! Build with the `summarizer` feature:
//! `cargo run -p tfb-obs --features summarizer --bin obs_summary -- run.manifest.json`

use std::collections::BTreeMap;
use std::process::ExitCode;
use tfb_json::JsonValue;

struct PhaseRow {
    path: String,
    dataset: String,
    method: String,
    count: u64,
    total_ns: u64,
}

fn fmt_dur(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:8.2} s ")
    } else if s >= 1e-3 {
        format!("{:8.2} ms", s * 1e3)
    } else {
        format!("{:8.2} us", s * 1e6)
    }
}

fn bar(frac: f64, width: usize) -> String {
    let n = ((frac * width as f64).round() as usize).min(width);
    let mut out = String::new();
    for _ in 0..n {
        out.push('█');
    }
    for _ in n..width {
        out.push(' ');
    }
    out
}

/// Prints the manifest's `health` section when anything went wrong.
fn render_health(doc: &JsonValue) {
    let Some(health) = doc.get("health") else {
        return;
    };
    let cells = |key: &str| -> Vec<String> {
        health
            .get(key)
            .and_then(JsonValue::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let nan = cells("nan_cells");
    let diverged = cells("diverged_cells");
    let aborted = cells("aborted_cells");
    if nan.is_empty() && diverged.is_empty() && aborted.is_empty() {
        return;
    }
    println!("\nhealth");
    for (label, list) in [
        ("nan", &nan),
        ("diverged", &diverged),
        ("aborted", &aborted),
    ] {
        if !list.is_empty() {
            println!("  {label:<10} {}", list.join(", "));
        }
    }
}

/// Handles `--compare BASE.json`: renders a full diff (worst regression
/// first) of this manifest against the baseline. Returns false when the
/// baseline cannot be loaded.
fn render_compare(args: &[String], cand_text: &str) -> bool {
    let Some(base_path) = args
        .iter()
        .position(|a| a == "--compare")
        .and_then(|i| args.get(i + 1))
    else {
        return true;
    };
    let base_text = match std::fs::read_to_string(base_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_summary: cannot read {base_path}: {e}");
            return false;
        }
    };
    let load = |label: &str, text: &str| match tfb_obs::history::parse_manifest(text) {
        Ok(parsed) => {
            for w in &parsed.warnings {
                eprintln!("obs_summary: warning: {label}: {w}");
            }
            Some(parsed.manifest)
        }
        Err(e) => {
            eprintln!("obs_summary: {label}: {e}");
            None
        }
    };
    let (Some(base), Some(cand)) = (load(base_path, &base_text), load("manifest", cand_text))
    else {
        return false;
    };
    let rows = tfb_obs::history::diff_manifests(&base, &cand);
    println!("\ncomparison against {base_path} (worst regression first)");
    print!("{}", tfb_obs::history::render_diff(&rows));
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: obs_summary <manifest.json> [--top N] [--compare BASE.json]");
        return ExitCode::FAILURE;
    };
    let top_n: usize = args
        .iter()
        .position(|a| a == "--top")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_summary: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match JsonValue::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("obs_summary: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Accept any tfb-obs/* schema: newer manifests render best-effort
    // (the history parser warns about fields this version doesn't know).
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s.starts_with("tfb-obs/") => {
            if s != "tfb-obs/v1" {
                eprintln!("obs_summary: note: {path} is a {s} manifest, rendering best-effort");
            }
        }
        _ => {
            eprintln!("obs_summary: {path} is not a tfb-obs manifest");
            return ExitCode::FAILURE;
        }
    }

    // --- Header. ------------------------------------------------------
    let wall_ns = doc
        .get("wall_ns")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0) as u64;
    let cores = doc.get("cores").and_then(JsonValue::as_usize).unwrap_or(0);
    println!("run manifest: {path}");
    // An unmeasured RSS (serialized as null off Linux) renders as "n/a",
    // never 0 — a zero would read as a fake measurement.
    println!(
        "wall {} on {cores} core(s){}",
        fmt_dur(wall_ns).trim(),
        match doc.get("peak_rss_bytes").and_then(JsonValue::as_f64) {
            Some(b) => format!(", peak RSS {:.1} MiB", b / (1024.0 * 1024.0)),
            None => ", peak RSS n/a".to_string(),
        }
    );
    if let Some(meta) = doc.get("meta").and_then(JsonValue::as_object) {
        for (k, v) in meta {
            if let Some(s) = v.as_str() {
                println!("  {k}: {s}");
            }
        }
    }

    // --- Phase rows. --------------------------------------------------
    let mut rows: Vec<PhaseRow> = Vec::new();
    if let Some(phases) = doc.get("phases").and_then(JsonValue::as_array) {
        for p in phases {
            rows.push(PhaseRow {
                path: p
                    .get("path")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                dataset: p
                    .get("dataset")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                method: p
                    .get("method")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                count: p.get("count").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
                total_ns: p.get("total_ns").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
            });
        }
    }
    if rows.is_empty() {
        println!("\n(no phases recorded)");
        render_health(&doc);
        return if render_compare(&args, &text) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // --- Flamegraph-style breakdown: aggregate per path, indent by
    // nesting depth, bars scaled to the largest shallowest path. -------
    let mut by_path: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in &rows {
        let e = by_path.entry(r.path.clone()).or_insert((0, 0));
        e.0 += r.count;
        e.1 += r.total_ns;
    }
    let max_root =
        tfb_obs::manifest::bar_scale(by_path.iter().map(|(p, (_, total))| (p.as_str(), *total)));
    // `self` is the exclusive time: a path's total minus its direct
    // children's totals (clamped at zero against overlap from
    // concurrent spans) — where the time was actually spent, not just
    // which subtree it flowed through.
    println!("\nphase breakdown (total | self)");
    for (p, (count, total)) in &by_path {
        let prefix = format!("{p}.");
        let child_total: u64 = by_path
            .iter()
            .filter(|(c, _)| {
                c.strip_prefix(prefix.as_str())
                    .is_some_and(|rest| !rest.contains('.'))
            })
            .map(|(_, (_, t))| *t)
            .sum();
        let self_ns = total.saturating_sub(child_total);
        let depth = p.matches('.').count();
        let label = p.rsplit('.').next().unwrap_or(p);
        let indent = "  ".repeat(depth);
        let name = format!("{indent}{label}");
        println!(
            "  {name:<28} {} {} {} {count:>7} span(s)",
            bar(*total as f64 / max_root as f64, 24),
            fmt_dur(*total),
            fmt_dur(self_ns)
        );
    }

    // --- Top-N slowest (dataset, method) cells: shallowest path per
    // cell so nested spans are not double-counted. ---------------------
    let mut cell_depth: BTreeMap<(String, String), usize> = BTreeMap::new();
    for r in &rows {
        if r.dataset.is_empty() && r.method.is_empty() {
            continue;
        }
        let key = (r.dataset.clone(), r.method.clone());
        let depth = r.path.matches('.').count();
        let e = cell_depth.entry(key).or_insert(depth);
        *e = (*e).min(depth);
    }
    let mut cells: BTreeMap<(String, String), u64> = BTreeMap::new();
    for r in &rows {
        let key = (r.dataset.clone(), r.method.clone());
        if cell_depth.get(&key) == Some(&r.path.matches('.').count()) {
            *cells.entry(key).or_insert(0) += r.total_ns;
        }
    }
    let mut cells: Vec<((String, String), u64)> = cells.into_iter().collect();
    cells.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    if !cells.is_empty() {
        println!(
            "\ntop {} slowest (dataset, method) cells",
            top_n.min(cells.len())
        );
        for ((dataset, method), total) in cells.iter().take(top_n) {
            let label = match (dataset.is_empty(), method.is_empty()) {
                (false, false) => format!("{dataset} x {method}"),
                (false, true) => dataset.clone(),
                _ => method.clone(),
            };
            println!("  {label:<28} {}", fmt_dur(*total));
        }
    }

    // --- Counters, gauges, histograms. --------------------------------
    if let Some(counters) = doc.get("counters").and_then(JsonValue::as_object) {
        if !counters.is_empty() {
            println!("\ncounters");
            for (k, v) in counters {
                if let Some(n) = v.as_f64() {
                    println!("  {k:<36} {n:>16}");
                }
            }
        }
    }
    if let Some(gauges) = doc.get("gauges").and_then(JsonValue::as_object) {
        if !gauges.is_empty() {
            println!("\ngauges");
            for (k, v) in gauges {
                if let Some(n) = v.as_f64() {
                    println!("  {k:<36} {n:>16}");
                }
            }
        }
    }
    if let Some(hists) = doc.get("histograms").and_then(JsonValue::as_object) {
        if !hists.is_empty() {
            println!("\nhistograms (count / mean / p50 / p90 / p99 / max)");
            for (k, v) in hists {
                let f = |key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
                println!(
                    "  {k:<28} {:>7} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                    f("count") as u64,
                    f("mean"),
                    f("p50"),
                    f("p90"),
                    f("p99"),
                    f("max"),
                );
            }
        }
    }
    render_health(&doc);
    if !render_compare(&args, &text) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
