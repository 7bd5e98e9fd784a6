//! tfbperf — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path tfbperf/Cargo.toml -- \
//!     --workload study|serve-forecast|serve-fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer split; the last line of standard output is one JSON
//! object. Every output is checked; any failure makes the exit code 1.
//! `--bless` rewrites the study's golden file instead. See README.md.

mod machine;
mod serve;
mod stats;
mod study;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use stats::Tally;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

pub const WORKLOADS: [&str; 3] = ["study", "serve-forecast", "serve-fleet"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("throughput_ops", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("datagen.busy_s", "s"),
    ("characteristics.busy_s", "s"),
    ("characteristics.channels", "count"),
    ("characteristics.adf_ms", "ms"),
    ("characteristics.strength_ms", "ms"),
    ("characteristics.shifting_ms", "ms"),
    ("characteristics.transition_ms", "ms"),
    ("math.ols_adf_ms", "ms"),
    ("math.ols_arima_ms", "ms"),
    ("math.gemm_gflops", "GFLOP/s"),
    ("data.busy_s", "s"),
    ("models.stat_forecast_s", "s"),
    ("models.stat_calls", "count"),
    ("models.window_train_s", "s"),
    ("models.window_infer_us_per_window", "us"),
    ("nn.train_s", "s"),
    ("nn.epochs", "count"),
    ("nn.infer_us_per_window", "us"),
    ("nn.infer_alloc_bytes_per_window", "B"),
    ("metrics.busy_s", "s"),
    ("report.busy_s", "s"),
    ("eval.cells", "count"),
    ("eval.windows", "count"),
    ("artifact.encode_us", "us"),
    ("artifact.decode_us", "us"),
    ("artifact.predict_us", "us"),
    ("registry.publish_ms", "ms"),
    ("fleet.hit_rate", "ratio"),
    ("fleet.cold_load_us_p90", "us"),
    ("fleet.evictions", "count"),
    ("coalescer.submit_us_p50", "us"),
    ("coalescer.collect_us_p50", "us"),
    ("coalescer.batch_size_mean", "count"),
    ("http.overhead_us_p50", "us"),
    ("http.latency_p99_us", "us"),
    ("json.parse_us", "us"),
    ("json.write_us", "us"),
    ("observe.join_us_p50", "us"),
    ("observe.joins", "count"),
    ("observe.orphans", "count"),
    ("trace.overhead_pct", "%"),
    ("host.steal_pct", "%"),
    ("error_rate", "ratio"),
];

/// What an untraced workload run measured.
pub struct Outcome {
    pub setup_s: f64,
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
    /// Latency samples the percentiles rest on.
    pub samples: usize,
    pub throughput: f64,
    pub cpu_us_per_op: f64,
    pub tally: Tally,
    /// Extra facts for the facts line, as (key, JSON value).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn failed(tally: Tally) -> Outcome {
        Outcome {
            setup_s: f64::NAN,
            latency_p50_us: f64::NAN,
            latency_p90_us: f64::NAN,
            samples: 0,
            throughput: f64::NAN,
            cpu_us_per_op: f64::NAN,
            tally,
            facts: Vec::new(),
        }
    }
}

/// Per-layer values. The first value set for a name wins, so the traced
/// workload's own numbers take precedence over the fill-in probes.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_insert(value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.bless && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn serve_kind(workload: &str) -> Option<serve::Kind> {
    match workload {
        "serve-forecast" => Some(serve::Kind::Forecast),
        "serve-fleet" => Some(serve::Kind::Fleet),
        _ => None,
    }
}

/// Seconds of load the traced run spends on a workload other than the
/// one asked for (to fill in the layers that workload does not reach).
const FILL_IN_SECONDS: f64 = 2.0;

/// The traced run: the asked-for workload first, then the other
/// workloads' traced probes for the layers it does not reach.
fn traced(args: &Args, work: &std::path::Path) -> (Layers, Tally) {
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let mut order: Vec<&str> = vec![args.workload.as_str()];
    order.extend(WORKLOADS.iter().filter(|w| **w != args.workload));
    for (i, w) in order.into_iter().enumerate() {
        let seconds = if i == 0 {
            args.seconds
        } else {
            FILL_IN_SECONDS
        };
        let overhead = match serve_kind(w) {
            Some(kind) => serve::trace(kind, work, args.seed, seconds, &mut layers, &mut tally),
            None => study::trace(args.seed, i == 0, work, &mut layers, &mut tally),
        };
        if i == 0 {
            layers.set("trace.overhead_pct", overhead);
        }
    }
    (layers, tally)
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tfbperf: {e}");
            std::process::exit(2);
        }
    };
    // Scratch space inside the working directory, removed on exit.
    let work = PathBuf::from(".tfbperf-work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("tfbperf: {}: {e}", work.display());
        std::process::exit(1);
    }
    let remove_work = || {
        let _ = std::fs::remove_dir_all(&work);
        let _ = std::fs::remove_dir(".tfbperf-work");
    };
    if args.bless {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/study.tsv");
        let blessed = study::bless(path, &work);
        remove_work();
        if let Err(e) = blessed {
            eprintln!("tfbperf: bless: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
        return;
    }
    let ticks = machine::CpuTicks::now();
    let (metrics, tally, extra) = if args.trace {
        let (mut layers, tally) = traced(&args, &work);
        layers.set(
            "host.steal_pct",
            machine::CpuTicks::now().steal_pct_since(ticks),
        );
        layers.set("error_rate", tally.error_rate());
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.0.get(name).copied().unwrap_or(f64::NAN), unit))
            .collect();
        (metrics, tally, Vec::new())
    } else {
        let o = match serve_kind(&args.workload) {
            Some(kind) => serve::run(kind, &work, args.seed, args.seconds),
            None => study::run(args.seed, args.seconds, &work),
        };
        let values = [
            o.setup_s,
            o.latency_p50_us,
            o.latency_p90_us,
            o.throughput,
            o.cpu_us_per_op,
            machine::peak_rss_mib(),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect();
        let mut extra = o.facts;
        extra.push(("samples".into(), o.samples.to_string()));
        extra.push((
            "host.steal_pct".into(),
            machine::CpuTicks::now().steal_pct_since(ticks).to_string(),
        ));
        extra.push(("error_rate".into(), o.tally.error_rate().to_string()));
        (metrics, o.tally, extra)
    };
    remove_work();

    let mut tally = tally;
    for (name, value, _) in &metrics {
        if !value.is_finite() || !stats::valid_metric_name(name) {
            tally.fail(format!(
                "metric {name} = {value} is not a finite number under a valid name"
            ));
        }
    }
    for reason in &tally.reasons {
        eprintln!("tfbperf: FAILED: {reason}");
    }
    let mut facts = vec![
        ("workload".to_string(), format!("\"{}\"", args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        // The thread budget: load clients (each with one connection at a
        // time), server shards, and the study's runner parallelism.
        ("clients".into(), serve::clients().to_string()),
        ("connections".into(), serve::clients().to_string()),
        (
            "server_shards".into(),
            tfb_serve::CoalescerConfig::default()
                .resolved_shards()
                .to_string(),
        ),
        ("runner".into(), "\"Sequential\"".into()),
        (
            "stat_window_parallelism".into(),
            machine::cores().to_string(),
        ),
    ];
    facts.extend(extra);
    let facts: Vec<String> = facts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!(
        "{{\"facts\":{{{},{}}}}}",
        machine::facts_json(),
        facts.join(",")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|&(n, v, u)| metric_json(n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    );
    std::process::exit(if tally.failed == 0 { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree, and every
    /// name must follow the grammar.
    #[test]
    fn metric_names_match_the_benchmark_file() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let parsed = tfb_json::JsonValue::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            parsed
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let workloads: Vec<String> = parsed
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(|n| n.as_str()).map(str::to_string))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn corrupted_forecast_is_a_failure() {
        let expected = [1.5, -2.25, 3.0];
        let good = br#"{"method":"LR","horizon":1,"dim":3,"forecast":[1.5,-2.25,3]}"#;
        let mut tally = Tally::default();
        tally.record(serve::check_forecast(200, good, &expected));
        assert_eq!(tally.error_rate(), 0.0);
        // One value off by one unit in the last place.
        let bad = br#"{"method":"LR","horizon":1,"dim":3,"forecast":[1.5,-2.2500000000000004,3]}"#;
        tally.record(serve::check_forecast(200, bad, &expected));
        // A refused request is a failure too.
        tally.record(serve::check_forecast(429, good, &expected));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.error_rate() > 0.0);
    }
}
