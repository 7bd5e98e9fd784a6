//! The harness's workload engines: how one benchmark [`Cell`] executes.
//!
//! Three engines, selected by a suite's `engine` field:
//!
//! * **eval** — the paper's protocol: generate the cell's dataset
//!   profile, train the method, roll the evaluator, and capture wall
//!   time, per-window inference cost, and the accuracy scores (MAE /
//!   MSE / MASE / MSMAPE) the Table 6/7 rankings are built from.
//!   Accuracy must be bit-identical across the cell's `iters`
//!   repetitions (everything is seeded), so a drift across iterations
//!   is reported as an error, not averaged away.
//! * **math** — one kernel × shape, scalar path vs the
//!   runtime-dispatched one, as the min over repetitions of K
//!   back-to-back calls / K; the whole-call kernels (`par_gemm`, `acf`)
//!   time one call of the reference and the fast path instead.
//! * **serve** — closed-loop load legs against freshly started forecast
//!   servers, all driven by one load generator: throughput, client-side
//!   latency percentiles and, with the recorder armed, the leg's batch,
//!   steal and per-phase deltas; plus the legacy-coalescer, fleet,
//!   recorder-overhead and quality legs.
//!
//! Every engine returns plain [`MeasurementRow`]s; recording, manifest
//! assembly and history appends live in [`crate::harness`].

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::measure::measurement;
use crate::suite::{Cell, Engine, Suite};
use tfb_core::eval::{evaluate, EvalSettings, Strategy};
use tfb_core::method::{build_method, Method};
use tfb_core::Metric;
use tfb_data::{MultiSeries, Normalization};
use tfb_math::acf::{acf, acf_fft};
use tfb_math::kernel::{self, KernelPath};
use tfb_math::matrix::Matrix;
use tfb_models::tabular::iterate_one_step;
use tfb_models::{LinearRegressionForecaster, ModelError, WindowForecaster};
use tfb_nn::TrainConfig;
use tfb_obs::manifest::percentile;
use tfb_obs::trace::PhaseBuckets;
use tfb_obs::MeasurementRow;
use tfb_serve::{serve, serve_fleet, CoalescerConfig, ObserveConfig, ServerConfig, ServerHandle};

/// Executes one cell under its suite's engine.
pub fn run_cell(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    match suite.engine {
        Engine::Eval => run_eval(suite, cell),
        Engine::Math => run_math(suite, cell),
        Engine::Serve => run_serve(suite, cell),
    }
}

/// Per-quantity samples over a cell's iterations, in first-seen order.
#[derive(Default)]
struct Samples(Vec<(String, &'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, quantity: impl Into<String>, unit: &'static str, value: f64) {
        let quantity = quantity.into();
        match self.0.iter_mut().find(|(q, _, _)| *q == quantity) {
            Some((_, _, values)) => values.push(value),
            None => self.0.push((quantity, unit, vec![value])),
        }
    }

    fn rows(&self, suite: &Suite, cell: &Cell) -> Vec<MeasurementRow> {
        self.0
            .iter()
            .map(|(quantity, unit, values)| measurement(suite, cell, quantity, unit, values))
            .collect()
    }
}

/// The accuracy quantities every eval cell reports (and `rank` consumes).
pub const EVAL_SCORES: [Metric; 4] = [Metric::Mae, Metric::Mse, Metric::Mase, Metric::Msmape];

/// LR wrapped to forecast iteratively with a one-step inner model — the
/// `multistep = "ims"` arm of the DMS-vs-IMS ablation (Section 4.4: IMS
/// compounds one-step errors with the horizon; DMS stays flatter).
struct IterativeLr {
    inner: LinearRegressionForecaster,
    horizon: usize,
}

impl IterativeLr {
    fn new(lookback: usize, horizon: usize) -> IterativeLr {
        IterativeLr {
            inner: LinearRegressionForecaster::new(lookback, 1),
            horizon,
        }
    }
}

impl WindowForecaster for IterativeLr {
    fn name(&self) -> &'static str {
        "LR-IMS"
    }
    fn lookback(&self) -> usize {
        self.inner.lookback()
    }
    fn horizon(&self) -> usize {
        self.horizon
    }
    fn train(&mut self, train: &MultiSeries) -> Result<(), ModelError> {
        self.inner.train(train)
    }
    fn predict(&self, window: &[f64], dim: usize) -> Result<Vec<f64>, ModelError> {
        let channels = tfb_models::window_channels(window, dim);
        let mut per_channel = Vec::with_capacity(dim);
        for ch in &channels {
            per_channel.push(iterate_one_step(ch, self.horizon, |w| {
                self.inner.predict(w, 1).map(|v| v[0]).unwrap_or(f64::NAN)
            }));
        }
        Ok(tfb_models::interleave_channels(&per_channel))
    }
}

/// Builds a cell's method honouring its `multistep` field.
fn build_cell_method(
    cell: &Cell,
    lookback: usize,
    dim: usize,
    train: TrainConfig,
) -> Result<Method, String> {
    match cell.multistep.as_str() {
        "dms" => build_method(&cell.method, lookback, cell.horizon, dim, Some(train))
            .map_err(|e| format!("{}: cannot build {:?}: {e}", cell.id, cell.method)),
        "ims" => {
            if cell.method != "LR" {
                return Err(format!(
                    "{}: multistep = \"ims\" only supports method \"LR\", not {:?}",
                    cell.id, cell.method
                ));
            }
            Ok(Method::Window(Box::new(IterativeLr::new(
                lookback,
                cell.horizon,
            ))))
        }
        other => Err(format!(
            "{}: unknown multistep {other:?} (dms|ims)",
            cell.id
        )),
    }
}

fn run_eval(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    let profile = tfb_datagen::profile_by_name(&cell.dataset)
        .ok_or_else(|| format!("{}: unknown dataset profile {:?}", cell.id, cell.dataset))?;
    let series = profile.generate(tfb_datagen::Scale {
        max_len: cell.max_len,
        max_dim: cell.max_dim,
    });
    let lookback = if cell.lookback > 0 {
        cell.lookback
    } else {
        ((cell.horizon as f64) * 1.25).ceil() as usize
    };
    let mut settings = EvalSettings::rolling(lookback, cell.horizon, profile.split);
    settings.max_windows = cell.max_windows;
    settings.metrics = EVAL_SCORES.to_vec();
    settings.strategy = Strategy::Rolling {
        stride: cell.stride,
    };
    settings.normalization = Normalization::parse_name(&cell.normalization).ok_or_else(|| {
        format!(
            "{}: unknown normalization {:?} (ZScore|MinMax|None)",
            cell.id, cell.normalization
        )
    })?;
    // `sequential` is the whole reference path: one `predict` per window
    // and statistical boundaries on one thread.
    (settings.batch_inference, settings.window_parallelism) = match cell.inference.as_str() {
        "batched" => (true, 0),
        "sequential" => (false, 1),
        other => {
            return Err(format!(
                "{}: unknown inference {other:?} (batched|sequential)",
                cell.id
            ))
        }
    };
    let train = TrainConfig {
        epochs: cell.epochs,
        max_samples: 512,
        ..TrainConfig::default()
    };

    let mut wall_ns = Vec::with_capacity(cell.iters);
    let mut infer_us = Vec::with_capacity(cell.iters);
    let mut scores: Vec<Vec<f64>> = vec![Vec::with_capacity(cell.iters); EVAL_SCORES.len()];
    let mut first_metrics = None;
    for _ in 0..cell.iters {
        let mut method = build_cell_method(cell, lookback, series.dim(), train)?;
        let t0 = Instant::now();
        let out = evaluate(&mut method, &series, &settings)
            .map_err(|e| format!("{}: evaluation failed: {e}", cell.id))?;
        wall_ns.push(t0.elapsed().as_nanos() as f64);
        infer_us.push(out.infer_time.as_secs_f64() * 1e6 / out.n_windows.max(1) as f64);
        for (i, m) in EVAL_SCORES.iter().enumerate() {
            scores[i].push(out.metric(*m));
        }
        match &first_metrics {
            None => first_metrics = Some(out.metrics.clone()),
            Some(first) => {
                if *first != out.metrics {
                    return Err(format!(
                        "{}: accuracy drifted across iterations — the evaluation \
                         is seeded, so this is a determinism bug, not noise",
                        cell.id
                    ));
                }
            }
        }
    }

    let mut rows = vec![
        measurement(suite, cell, "wall", "ns", &wall_ns),
        measurement(suite, cell, "infer", "us/window", &infer_us),
    ];
    for (i, m) in EVAL_SCORES.iter().enumerate() {
        rows.push(measurement(suite, cell, m.label(), "", &scores[i]));
        // Accuracy also flows through the manifest's `metrics` section,
        // the gate's deterministic tight-tolerance channel.
        if let Some(&value) = scores[i].first() {
            tfb_obs::report_metric(&cell.dataset, &cell.method, cell.horizon, m.label(), value);
        }
    }
    Ok(rows)
}

/// `min over reps of (elapsed(K calls) / K)` in ns — one sample.
fn time_ns(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}

/// One xorshift64 step.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Deterministic pseudo-random data (xorshift), optionally with exact
/// zeros mixed in for the zero-skip kernels.
fn data(n: usize, seed: u64, zeros: bool) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            xorshift(&mut state);
            if zeros && state.is_multiple_of(7) {
                0.0
            } else {
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            }
        })
        .collect()
}

/// Times one whole call of `reference` and of `fast` per iteration —
/// for kernels far too slow for the K-call sampler. The fast path must
/// reproduce the reference within `tol` before its time counts.
fn time_whole_calls(
    suite: &Suite,
    cell: &Cell,
    names: [&str; 2],
    tol: f64,
    reference: impl Fn() -> Vec<f64>,
    fast: impl Fn() -> Vec<f64>,
) -> Result<Vec<MeasurementRow>, String> {
    let mut samples = Samples::default();
    for _ in 0..cell.iters {
        let t0 = Instant::now();
        let want = black_box(reference());
        let reference_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let got = black_box(fast());
        let fast_ms = t1.elapsed().as_secs_f64() * 1e3;
        if want.len() != got.len() || want.iter().zip(&got).any(|(w, g)| (w - g).abs() > tol) {
            return Err(format!(
                "{}: {} diverged from {}",
                cell.id, names[1], names[0]
            ));
        }
        samples.push(names[0], "ms", reference_ms);
        samples.push(names[1], "ms", fast_ms);
        samples.push("speedup", "x", reference_ms / fast_ms.max(1e-9));
    }
    Ok(samples.rows(suite, cell))
}

fn run_math(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    let n = cell.n;
    let depth = cell.depth;
    let run: Box<dyn Fn() -> f64> = match cell.workload.as_str() {
        // n x n GEMM, single-threaded vs row blocks across threads: the
        // same kernel either way, so the product must match bit for bit.
        "par_gemm" => {
            let matrix = |seed| {
                Matrix::from_vec(n, n, data(n * n, seed, false))
                    .map_err(|e| format!("{}: {e}", cell.id))
            };
            let (a, b) = (matrix(0x1234_5678)?, matrix(0x9abc_def0)?);
            let product = |m: tfb_math::Result<Matrix>| {
                m.expect("n x n operands always conform").data().to_vec()
            };
            return time_whole_calls(
                suite,
                cell,
                ["single", "parallel"],
                0.0,
                || product(a.matmul(&b)),
                || product(a.par_matmul(&b)),
            );
        }
        // Full-lag autocorrelation, direct O(n²) vs FFT O(n log n): a
        // different summation order, so equal to 1e-9 rather than bits.
        "acf" => {
            let xs: Vec<f64> = (0..n)
                .map(|t| (t as f64 / 37.0).sin() + 0.0005 * t as f64)
                .collect();
            let lags = n.saturating_sub(1);
            return time_whole_calls(
                suite,
                cell,
                ["direct", "fft"],
                1e-9,
                || acf(&xs, lags),
                || acf_fft(&xs, lags),
            );
        }
        "dot" => {
            let x = data(n, n as u64 + 1, true);
            let y = data(n, n as u64 + 2, false);
            Box::new(move || kernel::dot_acc(0.0, black_box(&x), black_box(&y)))
        }
        "dot_skip" => {
            let x = data(n, n as u64 + 1, true);
            let y = data(n, n as u64 + 2, false);
            Box::new(move || kernel::dot_skip(black_box(&x), black_box(&y)))
        }
        "axpy" => {
            let x = data(n, n as u64 + 3, false);
            let out = std::cell::RefCell::new(data(n, n as u64 + 4, false));
            Box::new(move || {
                let mut out = out.borrow_mut();
                kernel::axpy(1.0001, black_box(&x), black_box(&mut out));
                out[0]
            })
        }
        "gemm" => {
            let lhs = data(depth, (depth * 31 + n) as u64, false);
            let rhs = data(depth * n, (depth * 37 + n) as u64, false);
            let out = std::cell::RefCell::new(data(n, n as u64 + 9, false));
            Box::new(move || {
                let mut out = out.borrow_mut();
                kernel::gemm_row_ktile(black_box(&lhs), black_box(&rhs), n, black_box(&mut out));
                out[0]
            })
        }
        other => {
            return Err(format!(
                "{}: unknown math workload {other:?} (dot|dot_skip|axpy|gemm|par_gemm|acf)",
                cell.id
            ))
        }
    };

    // Calls per timing sample: enough to sit well above timer resolution,
    // sized from a quick scalar estimate against a fixed 200 µs budget.
    let est = kernel::with_path(KernelPath::Scalar, || {
        time_ns(2, 64, || {
            let _ = run();
        })
    });
    let calls = ((200_000.0 / est.max(1.0)) as usize).clamp(8, 100_000);
    let best = kernel::best_unrolled();
    let mut samples = Samples::default();
    for _ in 0..cell.iters {
        let s = kernel::with_path(KernelPath::Scalar, || {
            time_ns(3, calls, || {
                let _ = black_box(run());
            })
        });
        let f = kernel::with_path(best, || {
            time_ns(3, calls, || {
                let _ = black_box(run());
            })
        });
        samples.push("scalar", "ns", s);
        samples.push("unrolled", "ns", f);
        samples.push("speedup", "x", s / f.max(1e-9));
    }
    Ok(samples.rows(suite, cell))
}

// ---------------------------------------------------------------------
// Serve engine: closed-loop load legs against freshly started servers,
// all driven by one load generator (`drive`).
// ---------------------------------------------------------------------

const SERVE_LOOKBACK: usize = 24;
const SERVE_HORIZON: usize = 8;

/// Trains one LR artifact on the TINY ILI profile at the given horizon.
/// Every fleet member shares `SERVE_LOOKBACK`, so a single request body
/// is valid against all of them; the horizon is what varies per model.
fn train_serve_artifact(horizon: usize) -> Result<tfb_artifact::ModelArtifact, String> {
    use tfb_data::{ChronoSplit, Normalization, Normalizer};
    let profile = tfb_datagen::profile_by_name("ILI").ok_or("serve engine: no ILI profile")?;
    let series = profile.generate(tfb_datagen::Scale::TINY);
    let split = ChronoSplit::split(&series, profile.split).map_err(|e| e.to_string())?;
    let norm = Normalizer::fit(&split.train, Normalization::ZScore);
    let normed = norm.apply(&series).map_err(|e| e.to_string())?;
    let train = normed.slice_rows(0..split.val_start);
    tfb_artifact::fit(
        "LR",
        &train,
        SERVE_LOOKBACK,
        horizon,
        norm,
        "tfb-bench-harness".to_string(),
        None,
    )
    .map_err(|e| format!("serve engine: fit failed: {e}"))
}

fn train_serve_model() -> Result<tfb_artifact::ServableModel, String> {
    tfb_artifact::ServableModel::from_artifact(train_serve_artifact(SERVE_HORIZON)?)
        .map_err(|e| format!("serve engine: artifact not servable: {e}"))
}

/// A server on an ephemeral port with the cell's shard count and every
/// other knob at its default.
fn server_config(cell: &Cell) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        coalescer: CoalescerConfig {
            shards: cell.shards,
            ..CoalescerConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// An HTTP/1.1 `POST` of a JSON body, as the load clients send it.
fn post(path: &str, json: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{json}",
        json.len()
    )
}

/// The `{"window": [...]}` body every serve cell posts; `observed` adds
/// `"series"`/`"t"`, which parks the served forecast for a later
/// `/v1/observe` join.
fn forecast_body(dim: usize, observed: Option<(&str, u64)>) -> String {
    use tfb_json::JsonValue;
    let window = (0..SERVE_LOOKBACK * dim)
        .map(|i| JsonValue::Number((i as f64) * 0.13 - 2.0))
        .collect();
    let mut fields = vec![("window".to_string(), JsonValue::Array(window))];
    if let Some((series, t)) = observed {
        fields.push(("series".to_string(), JsonValue::from(series)));
        fields.push(("t".to_string(), JsonValue::Number(t as f64)));
    }
    JsonValue::Object(fields).compact()
}

/// One request/reply round trip on a kept-alive connection; returns the
/// status code.
fn round_trip(
    writer: &mut std::net::TcpStream,
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    request: &str,
    line: &mut String,
    body: &mut Vec<u8>,
) -> Result<u16, String> {
    use std::io::{BufRead, Read, Write};
    writer
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    // Read one reply: status line, headers, body.
    line.clear();
    reader.read_line(line).map_err(|e| format!("read: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(line).map_err(|e| format!("read: {e}"))?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
    }
    body.clear();
    body.resize(content_length, 0);
    reader
        .read_exact(body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(status)
}

fn connect(
    addr: std::net::SocketAddr,
) -> Result<(std::net::TcpStream, std::io::BufReader<std::net::TcpStream>), String> {
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let writer = stream.try_clone().map_err(|e| e.to_string())?;
    Ok((writer, std::io::BufReader::new(stream)))
}

/// One closed-loop client on a keep-alive connection: draws each next
/// request from `requests` by the cumulative distribution `cdf` (seeded
/// xorshift, so the traffic is reproducible) and sends it the moment the
/// previous reply lands. Returns latencies in µs and the shed (429)
/// count.
fn client_loop(
    addr: std::net::SocketAddr,
    requests: &[String],
    cdf: &[f64],
    seed: u64,
    stop: &AtomicBool,
) -> Result<(Vec<f64>, u64), String> {
    let (mut writer, mut reader) = connect(addr)?;
    let (mut latencies, mut shed) = (Vec::new(), 0);
    let mut line = String::new();
    let mut body = Vec::new();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    while !stop.load(Ordering::Relaxed) {
        let u = (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let idx = cdf.partition_point(|&c| c < u).min(requests.len() - 1);
        let t0 = Instant::now();
        let status = round_trip(
            &mut writer,
            &mut reader,
            &requests[idx],
            &mut line,
            &mut body,
        )?;
        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
        match status {
            200 => {}
            429 => shed += 1,
            other => return Err(format!("unexpected status {other} under closed-loop load")),
        }
    }
    Ok((latencies, shed))
}

/// Cumulative zipfian distribution over `n` ranks (`P(i) ∝ 1/(i+1)^α`)
/// — the classic skewed model-popularity assumption: a couple of hot
/// models take most traffic, a long tail stays cold.
fn zipf_cdf(n: usize, alpha: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(alpha)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// What one closed-loop leg measured: client-side latencies and shed
/// replies, the server's steal count, and — when the recorder is armed
/// — its view of the leg: the batch-size histogram and the mean time
/// per request phase.
struct Leg {
    /// Ascending.
    latencies_us: Vec<f64>,
    shed: u64,
    elapsed_s: f64,
    steals: u64,
    batch: Option<tfb_obs::HistSummary>,
    phase_means_us: Vec<(String, f64)>,
}

impl Leg {
    fn throughput(&self) -> f64 {
        self.latencies_us.len() as f64 / self.elapsed_s.max(1e-9)
    }

    /// The rows every load leg reports.
    fn record(&self, samples: &mut Samples) {
        samples.push("throughput", "req/s", self.throughput());
        samples.push("latency_p50", "us", percentile(&self.latencies_us, 50.0));
        samples.push("latency_p99", "us", percentile(&self.latencies_us, 99.0));
        samples.push("requests", "count", self.latencies_us.len() as f64);
        samples.push("shed", "count", self.shed as f64);
        samples.push("steals", "count", self.steals as f64);
        if let Some(b) = &self.batch {
            samples.push("batch_mean", "rows", b.mean);
            samples.push("batch_max", "rows", b.max);
        }
        // Server-side attribution of a request's mean time (parse /
        // queue / collect / infer / dispatch / write, plus the total).
        // No per-phase p99: the phase histograms' buckets step 2–2.5x,
        // coarser than any tolerance a gate could hold them to; the
        // client-side `latency_p99` is exact.
        for (phase, mean_us) in &self.phase_means_us {
            samples.push(format!("phase_{phase}_mean"), "us", *mean_us);
        }
    }
}

/// Mean µs per request of every phase recorded between two trace
/// snapshots (count and sum are running totals, so they subtract).
fn phase_means_us(before: &[PhaseBuckets], after: Vec<PhaseBuckets>) -> Vec<(String, f64)> {
    after
        .into_iter()
        .filter_map(|a| {
            let (count, sum_s) = match before.iter().find(|b| b.phase == a.phase) {
                Some(b) => (a.count.saturating_sub(b.count), a.sum_s - b.sum_s),
                None => (a.count, a.sum_s),
            };
            (count > 0).then(|| (a.phase, sum_s / count as f64 * 1e6))
        })
        .collect()
}

/// The one load generator: `cell.clients` closed-loop clients against
/// `handle`'s server for `cell.duration_ms`. Client `c` draws requests
/// by `cdf` with seed `seed + c`; a `cdf` of `[1.0]` always sends
/// `requests[0]`. The server keeps running; the caller shuts it down.
fn drive(
    cell: &Cell,
    handle: &ServerHandle,
    requests: &[String],
    cdf: &[f64],
    seed: u64,
) -> Result<Leg, String> {
    let addr = handle.addr();
    tfb_obs::reset_histogram("serve/batch_size");
    let phases_before = tfb_obs::trace::snapshot().phases;
    let stop = AtomicBool::new(false);
    let (mut latencies_us, mut shed) = (Vec::new(), 0);
    let t0 = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let stop = &stop;
        let workers: Vec<_> = (0..cell.clients.max(1) as u64)
            .map(|c| scope.spawn(move || client_loop(addr, requests, cdf, seed + c, stop)))
            .collect();
        std::thread::sleep(Duration::from_millis(cell.duration_ms.max(50)));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            let (lat, s) = w.join().map_err(|_| "client thread panicked")??;
            latencies_us.extend(lat);
            shed += s;
        }
        Ok(())
    })
    .map_err(|e| format!("{}: {e}", cell.id))?;
    let elapsed_s = t0.elapsed().as_secs_f64();
    latencies_us.sort_by(f64::total_cmp);
    let batch = tfb_obs::metrics_snapshot()
        .histograms
        .into_iter()
        .find(|h| h.name == "serve/batch_size");
    Ok(Leg {
        latencies_us,
        shed,
        elapsed_s,
        steals: handle.steal_count(),
        batch,
        phase_means_us: phase_means_us(&phases_before, tfb_obs::trace::snapshot().phases),
    })
}

/// One single-model leg: a freshly trained LR artifact behind a fresh
/// server built from `cfg`, under `/forecast` load.
fn model_leg(cell: &Cell, cfg: ServerConfig) -> Result<Leg, String> {
    let model = train_serve_model()?;
    let request = post("/forecast", &forecast_body(model.dim(), None));
    let handle = serve(model, cfg).map_err(|e| format!("{}: serve failed: {e}", cell.id))?;
    let leg = drive(cell, &handle, &[request], &[1.0], 1);
    let _ = handle.shutdown();
    leg
}

fn run_serve(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    match cell.workload.as_str() {
        "quality_overhead" => return run_serve_quality_overhead(suite, cell),
        "quality_delay" => return run_serve_quality_delay(suite, cell),
        "obs_overhead" => return run_serve_obs_overhead(suite, cell),
        _ => {}
    }
    if cell.models > 1 {
        return run_serve_fleet(suite, cell);
    }
    let mut cfg = server_config(cell);
    if cell.workload == "legacy" {
        // The pre-deadline coalescer, reproduced exactly: one shard and
        // a fixed 2 ms window regardless of queue age — the live
        // before/after reference for the deadline-driven sharded close.
        cfg.coalescer = CoalescerConfig {
            shards: 1,
            coalesce_hint: Duration::from_millis(2),
            budget: Duration::from_millis(2),
            ..CoalescerConfig::default()
        };
    }
    let mut samples = Samples::default();
    for _ in 0..cell.iters {
        model_leg(cell, cfg.clone())?.record(&mut samples);
    }
    Ok(samples.rows(suite, cell))
}

/// The multi-model leg: publish `cell.models` LR artifacts into a
/// throwaway registry, serve the whole fleet with `resident_cap`
/// resident models, and drive zipfian (α = 1.0) routed traffic.
/// Alongside the load rows this reports the fleet-specific quantities:
/// resident-cache hit rate, cold-load p99, and eviction count.
fn run_serve_fleet(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    use std::sync::Arc;
    use tfb_registry::fleet::{Fleet, FleetConfig};
    use tfb_registry::Registry;

    let models = cell.models;
    let dir = std::env::temp_dir().join(format!(
        "tfb_fleet_{}_{}",
        std::process::id(),
        cell.name.replace(['/', '\\'], "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir).map_err(|e| format!("{}: registry: {e}", cell.id))?;
    let mut dim = 0;
    for i in 0..models {
        // Same lookback everywhere (one request body fits the whole
        // fleet); the horizon is what distinguishes the models.
        let artifact = train_serve_artifact(4 + (i % 12))?;
        let bytes = artifact.to_bytes();
        if i == 0 {
            dim = tfb_artifact::ServableModel::from_artifact(artifact)
                .map_err(|e| format!("{}: artifact not servable: {e}", cell.id))?
                .dim();
        }
        registry
            .publish_bytes(&format!("m{i:02}"), "prod", &bytes)
            .map_err(|e| format!("{}: publish m{i:02}: {e}", cell.id))?;
    }
    let cap = if cell.resident_cap == 0 {
        models
    } else {
        cell.resident_cap
    };
    let cdf = zipf_cdf(models, 1.0);
    let body = forecast_body(dim, None);
    let requests: Vec<String> = (0..models)
        .map(|i| post(&format!("/v1/forecast/m{i:02}"), &body))
        .collect();

    let mut samples = Samples::default();
    for iter in 0..cell.iters {
        // A fresh fleet per iteration: every leg starts cold, so the
        // hit-rate and cold-load numbers measure the same regime.
        let registry = Registry::open(&dir).map_err(|e| format!("{}: registry: {e}", cell.id))?;
        let fleet = Arc::new(
            Fleet::open(registry, FleetConfig { resident_cap: cap })
                .map_err(|e| format!("{}: fleet: {e}", cell.id))?,
        );
        let handle = serve_fleet(Arc::clone(&fleet), server_config(cell))
            .map_err(|e| format!("{}: serve failed: {e}", cell.id))?;
        let leg = drive(cell, &handle, &requests, &cdf, (iter * 131) as u64 + 1);
        let _ = handle.shutdown();
        leg?.record(&mut samples);
        let stats = fleet.stats();
        let mut cold = stats.cold_load_us.clone();
        cold.sort_by(f64::total_cmp);
        samples.push("hit_rate", "", stats.hit_rate());
        samples.push(
            "cold_load_p99",
            "us",
            if cold.is_empty() {
                0.0
            } else {
                percentile(&cold, 99.0)
            },
        );
        samples.push("evictions", "count", stats.evictions as f64);
        samples.push("models", "count", models as f64);
        samples.push("resident_cap", "count", cap as f64);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(samples.rows(suite, cell))
}

/// `workload = "obs_overhead"`: the flight recorder's tax on the serving
/// hot path. Each iteration runs three single-model legs back to back —
/// recorder disarmed (every probe one relaxed load), armed (event lines
/// copied into the per-thread rings), and armed with the sampling
/// profiler walking span stacks at 97 Hz — so machine drift hits all
/// three alike. `*_pct` is how much slower than disarmed a leg ran;
/// negative values are noise.
fn run_serve_obs_overhead(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    use tfb_obs::flight;
    let root = std::env::temp_dir().join(format!("tfb_obs_overhead_{}", std::process::id()));
    let mut samples = Samples::default();
    for _ in 0..cell.iters {
        flight::set_armed(false);
        let disarmed = model_leg(cell, server_config(cell))?.throughput();
        flight::configure(flight::FlightConfig {
            history_root: Some(root.clone()),
            context: vec![("command".to_string(), "tfb bench".to_string())],
            ..Default::default()
        });
        flight::set_armed(true);
        let armed = model_leg(cell, server_config(cell));
        flight::profiler::start(97);
        let profiled = model_leg(cell, server_config(cell));
        flight::profiler::stop();
        flight::set_armed(false);
        let (armed, profiled) = (armed?.throughput(), profiled?.throughput());
        samples.push("throughput_disarmed", "req/s", disarmed);
        samples.push("throughput_armed", "req/s", armed);
        samples.push("throughput_profiled", "req/s", profiled);
        samples.push("armed_pct", "%", 100.0 * (disarmed / armed.max(1e-9) - 1.0));
        samples.push(
            "profiled_pct",
            "%",
            100.0 * (disarmed / profiled.max(1e-9) - 1.0),
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(samples.rows(suite, cell))
}

// ---------------------------------------------------------------------
// Quality legs (`workload = "quality_overhead" | "quality_delay"`):
// what arming the forecast/actual scoring loop costs on the serving hot
// path, and how quickly the drift detectors react to a broken model.
// ---------------------------------------------------------------------

/// POSTs one JSON body on a kept-alive connection; returns the reply
/// body, erroring on any non-200 status.
fn post_json(
    writer: &mut std::net::TcpStream,
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    path: &str,
    json: &str,
) -> Result<String, String> {
    let mut line = String::new();
    let mut body = Vec::new();
    let status = round_trip(writer, reader, &post(path, json), &mut line, &mut body)?;
    if status != 200 {
        return Err(format!(
            "{path}: status {status}: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    String::from_utf8(body).map_err(|e| format!("{path}: non-UTF-8 reply: {e}"))
}

/// The `"forecast"` array of a forecast reply.
fn forecast_values(reply: &str) -> Result<Vec<f64>, String> {
    let parsed = tfb_json::JsonValue::parse(reply).map_err(|e| format!("forecast reply: {e}"))?;
    parsed
        .get("forecast")
        .and_then(|v| v.as_array())
        .map(|items| items.iter().filter_map(|v| v.as_f64()).collect())
        .ok_or_else(|| "forecast reply lacks a \"forecast\" array".to_string())
}

/// One full quality join: posts a forecast for `(series, t)`, reports
/// actuals equal to the served values scaled by `scale` (so the scored
/// sMAPE is a known constant, `100·2|s−1|/(s+1)` for s ≥ 0), and
/// returns the observe reply plus the observe round-trip time in µs.
fn scored_join(
    writer: &mut std::net::TcpStream,
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    model: &str,
    series: &str,
    t: u64,
    scale: f64,
    dim: usize,
) -> Result<(String, f64), String> {
    use tfb_json::JsonValue;
    let body = forecast_body(dim, Some((series, t)));
    let reply = post_json(writer, reader, "/forecast", &body)?;
    let forecast = forecast_values(&reply)?;
    let actual = JsonValue::Object(vec![
        ("name".to_string(), JsonValue::from(model)),
        ("series".to_string(), JsonValue::from(series)),
        ("t".to_string(), JsonValue::Number(t as f64)),
        (
            "actual".to_string(),
            JsonValue::Array(
                forecast
                    .iter()
                    .map(|&v| JsonValue::Number(v * scale))
                    .collect(),
            ),
        ),
    ])
    .compact();
    let t0 = Instant::now();
    let reply = post_json(writer, reader, "/v1/observe", &actual)?;
    Ok((reply, t0.elapsed().as_secs_f64() * 1e6))
}

/// One armed-or-disarmed overhead leg: closed-loop forecast traffic
/// where every request carries a series id, so the armed side pays the
/// real hot-path cost (parking each served forecast in the observe
/// buffer at its eviction cap). Returns `(req/s, median µs per scored
/// observe join)` — the join cost is only measured on the armed side.
fn quality_overhead_leg(cell: &Cell, enabled: bool) -> Result<(f64, Option<f64>), String> {
    const SCORE_JOINS: usize = 64;
    // Fresh rolling windows per leg: the join-cost joins from a prior
    // leg must not leak into this one's drift state.
    tfb_obs::quality::configure(tfb_obs::quality::QualityConfig::default());
    let model = train_serve_model()?;
    let method = model.method().to_string();
    let dim = model.dim();
    let request = post("/forecast", &forecast_body(dim, Some(("q0", 0))));
    let mut cfg = server_config(cell);
    cfg.observe = ObserveConfig {
        enabled,
        ..ObserveConfig::default()
    };
    let handle = serve(model, cfg).map_err(|e| format!("{}: serve failed: {e}", cell.id))?;
    let result = drive(cell, &handle, &[request], &[1.0], 1).and_then(|leg| {
        if !enabled {
            return Ok((leg.throughput(), None));
        }
        let (mut writer, mut reader) = connect(handle.addr())?;
        let mut times = Vec::with_capacity(SCORE_JOINS);
        for t in 0..SCORE_JOINS {
            let (reply, us) = scored_join(
                &mut writer,
                &mut reader,
                &method,
                "score",
                1_000 + t as u64,
                1.03,
                dim,
            )?;
            if !reply.contains("\"status\":\"scored\"") {
                return Err(format!("{}: join not scored: {reply}", cell.id));
            }
            times.push(us);
        }
        times.sort_by(f64::total_cmp);
        Ok((leg.throughput(), Some(times[times.len() / 2])))
    });
    let _ = handle.shutdown();
    result
}

/// `workload = "quality_overhead"`: the same closed-loop forecast load
/// with the observe buffer on vs off, interleaved per iteration so
/// machine-load drift hits both sides. `overhead` is the armed
/// throughput loss in percent — the quantity the quality loop promises
/// stays small — and `score` the cost of one full observe join.
fn run_serve_quality_overhead(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    let mut samples = Samples::default();
    for _ in 0..cell.iters {
        let (off, _) = quality_overhead_leg(cell, false)?;
        let (on, score) = quality_overhead_leg(cell, true)?;
        samples.push("throughput_armed", "req/s", on);
        samples.push("throughput_disarmed", "req/s", off);
        samples.push("overhead", "%", (off - on) / off.max(1e-9) * 100.0);
        samples.push("score", "us/join", score.unwrap_or(f64::NAN));
    }
    Ok(samples.rows(suite, cell))
}

/// The `"smape"` field of an observe reply.
fn reply_smape(reply: &str) -> f64 {
    tfb_json::JsonValue::parse(reply)
        .ok()
        .and_then(|v| v.get("smape").and_then(|s| s.as_f64()))
        .unwrap_or(f64::NAN)
}

/// `workload = "quality_delay"`: a deterministic clean-then-broken
/// actuals replay through `/v1/observe` under the default Page–Hinkley
/// config (the mean-shift test is parked at unreachable thresholds: the
/// replayed actual stream is periodic, not stationary, which is the
/// mean-shift detector's blind spot, not the quantity under test).
/// Clean joins score a constant ≈3% sMAPE; from the drift point on,
/// actuals run 25% hot (≈22% sMAPE). `detection_delay` is the number of
/// drifted joins until the detector flags the reply — pure arithmetic
/// on a fixed stream, so it is identical across iterations and a
/// regression in it is a detector change, not noise.
fn run_serve_quality_delay(suite: &Suite, cell: &Cell) -> Result<Vec<MeasurementRow>, String> {
    if !tfb_obs::enabled() {
        return Err(format!(
            "{}: the detection-delay leg reads the drift flag wired through the \
             tfb-obs quality registry, which needs the recorder armed — run it \
             under `tfb bench run` (obs feature on, TFB_OBS unset)",
            cell.id
        ));
    }
    const CLEAN: usize = 32;
    const MAX_DRIFT: usize = 256;
    let mut delays = Vec::with_capacity(cell.iters);
    let mut clean_smape = Vec::with_capacity(cell.iters);
    let mut drift_smape = Vec::with_capacity(cell.iters);
    for _ in 0..cell.iters {
        // Known detector config, reset per iteration (trips latch).
        tfb_obs::quality::configure(tfb_obs::quality::QualityConfig {
            mean_shift: tfb_obs::quality::MeanShiftConfig {
                z_threshold: 1e18,
                var_ratio: 1e18,
                ..tfb_obs::quality::MeanShiftConfig::default()
            },
            ..tfb_obs::quality::QualityConfig::default()
        });
        let model = train_serve_model()?;
        let method = model.method().to_string();
        let dim = model.dim();
        let handle = serve(model, server_config(cell))
            .map_err(|e| format!("{}: serve failed: {e}", cell.id))?;
        let addr = handle.addr();
        let (mut writer, mut reader) = connect(addr)?;
        let mut last_clean = f64::NAN;
        for t in 0..CLEAN {
            let (reply, _) =
                scored_join(&mut writer, &mut reader, &method, "d0", t as u64, 1.03, dim)?;
            if reply.contains("\"drift\":true") {
                return Err(format!(
                    "{}: detector tripped on the clean phase at join {t}: {reply}",
                    cell.id
                ));
            }
            last_clean = reply_smape(&reply);
        }
        let mut delay = None;
        let mut first_drift = f64::NAN;
        for k in 1..=MAX_DRIFT {
            let t = (CLEAN + k - 1) as u64;
            let (reply, _) = scored_join(&mut writer, &mut reader, &method, "d0", t, 1.25, dim)?;
            if k == 1 {
                first_drift = reply_smape(&reply);
            }
            if reply.contains("\"drift\":true") {
                delay = Some(k as f64);
                break;
            }
        }
        let _ = handle.shutdown();
        let d = delay.ok_or_else(|| {
            format!(
                "{}: drift never tripped within {MAX_DRIFT} drifted joins",
                cell.id
            )
        })?;
        delays.push(d);
        clean_smape.push(last_clean);
        drift_smape.push(first_drift);
    }
    Ok(vec![
        measurement(suite, cell, "detection_delay", "joins", &delays),
        measurement(suite, cell, "clean_smape", "", &clean_smape),
        measurement(suite, cell, "drift_smape", "", &drift_smape),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::parse_suite;
    use std::path::Path;

    fn suite_from(toml: &str) -> Suite {
        parse_suite(&crate::toml::parse(toml).unwrap(), Path::new("t.toml")).unwrap()
    }

    #[test]
    fn eval_cell_produces_timing_and_score_rows() {
        let suite = suite_from(
            r#"
name = "eval/unit"
engine = "eval"
[[entry]]
name = "Naive-h12"
dataset = "ILI"
method = "Naive"
horizon = 12
max_len = 400
max_windows = 3
iters = 2
"#,
        );
        let rows = run_cell(&suite, &suite.cells[0]).expect("eval runs");
        let quantities: Vec<&str> = rows.iter().map(|r| r.quantity.as_str()).collect();
        assert!(quantities.contains(&"wall"));
        assert!(quantities.contains(&"infer"));
        assert!(quantities.contains(&"mase"));
        assert!(quantities.contains(&"msmape"));
        let mase = rows.iter().find(|r| r.quantity == "mase").unwrap();
        assert!(mase.min.is_finite());
        assert_eq!(mase.min, mase.median, "deterministic across iters");
        assert_eq!(mase.unit, "", "scores carry no unit");
        let wall = rows.iter().find(|r| r.quantity == "wall").unwrap();
        assert_eq!(wall.iters, 2);
        assert!(wall.min > 0.0);
        assert_eq!(wall.name, "eval/unit/Naive-h12");
    }

    #[test]
    fn math_cell_times_both_paths() {
        let suite = suite_from(
            r#"
name = "math/unit"
engine = "math"
[[entry]]
name = "dot-64"
workload = "dot"
n = 64
iters = 2
"#,
        );
        let rows = run_cell(&suite, &suite.cells[0]).expect("math runs");
        let scalar = rows.iter().find(|r| r.quantity == "scalar").unwrap();
        let unrolled = rows.iter().find(|r| r.quantity == "unrolled").unwrap();
        assert!(scalar.min > 0.0 && unrolled.min > 0.0);
        assert_eq!(scalar.unit, "ns");
        let speedup = rows.iter().find(|r| r.quantity == "speedup").unwrap();
        assert_eq!(speedup.unit, "x", "ratios are never time-gated");

        // The whole-call kernels: one call per path per iteration, the
        // fast path checked against the reference before it is timed.
        let suite = suite_from(
            r#"
name = "math/unit"
engine = "math"
[defaults]
iters = 2
[[entry]]
name = "par-gemm-64"
workload = "par_gemm"
n = 64
[[entry]]
name = "acf-512"
workload = "acf"
n = 512
"#,
        );
        for (cell, paths) in suite
            .cells
            .iter()
            .zip([["single", "parallel"], ["direct", "fft"]])
        {
            let rows = run_cell(&suite, cell).expect("whole-call kernel runs");
            for path in paths {
                let row = rows.iter().find(|r| r.quantity == path).unwrap();
                assert!(row.min > 0.0 && row.iters == 2, "{}/{path}", cell.id);
                assert_eq!(row.unit, "ms");
            }
            let speedup = rows.iter().find(|r| r.quantity == "speedup").unwrap();
            assert_eq!(speedup.unit, "x");
        }
    }

    #[test]
    fn sequential_stat_cell_matches_parallel_bit_for_bit() {
        // `inference = "sequential"` pins the statistical boundaries to
        // one thread; the parallel default must forecast identically.
        let suite = suite_from(
            r#"
name = "eval/unit"
engine = "eval"
[defaults]
dataset = "ILI"
method = "Theta"
horizon = 6
max_len = 400
max_windows = 6
iters = 1
[[entry]]
name = "parallel"
[[entry]]
name = "sequential"
inference = "sequential"
"#,
        );
        let parallel = run_cell(&suite, &suite.cells[0]).expect("parallel cell runs");
        let sequential = run_cell(&suite, &suite.cells[1]).expect("sequential cell runs");
        for m in EVAL_SCORES {
            let score = |rows: &[MeasurementRow]| {
                rows.iter()
                    .find(|r| r.quantity == m.label())
                    .map(|r| r.min.to_bits())
                    .unwrap()
            };
            assert_eq!(score(&parallel), score(&sequential), "{}", m.label());
        }
    }

    #[test]
    fn eval_cell_honours_stride_normalization_and_multistep() {
        // IMS with a larger stride and raw (no-op) normalization — the
        // ablation-suite combination — runs and stays deterministic.
        let suite = suite_from(
            r#"
name = "eval/unit"
engine = "eval"
[[entry]]
name = "lr-ims"
dataset = "ILI"
method = "LR"
horizon = 6
lookback = 12
stride = 4
normalization = "None"
multistep = "ims"
max_len = 400
max_windows = 3
iters = 2
"#,
        );
        let rows = run_cell(&suite, &suite.cells[0]).expect("ims cell runs");
        let mae = rows.iter().find(|r| r.quantity == "mae").unwrap();
        assert!(mae.min.is_finite());
        // IMS is LR-only; other methods must fail loudly, not silently
        // fall back to DMS.
        let suite = suite_from(
            "name = \"eval/unit\"\nengine = \"eval\"\n[[entry]]\nname = \"x\"\ndataset = \"ILI\"\nmethod = \"Naive\"\nmultistep = \"ims\"",
        );
        let err = run_cell(&suite, &suite.cells[0]).unwrap_err();
        assert!(err.contains("ims"), "{err}");
        // So must a typo'd normalization.
        let suite = suite_from(
            "name = \"eval/unit\"\nengine = \"eval\"\n[[entry]]\nname = \"x\"\ndataset = \"ILI\"\nmethod = \"LR\"\nnormalization = \"zscore\"",
        );
        let err = run_cell(&suite, &suite.cells[0]).unwrap_err();
        assert!(err.contains("normalization"), "{err}");
    }

    #[test]
    fn serve_quality_cells_emit_overhead_and_delay_rows() {
        let suite = suite_from(
            r#"
name = "serve/quality"
engine = "serve"
[defaults]
clients = 2
duration_ms = 60
iters = 1
[[entry]]
name = "overhead"
workload = "quality_overhead"
[[entry]]
name = "detect"
workload = "quality_delay"
[[entry]]
name = "plain"
shards = 2
[[entry]]
name = "legacy"
workload = "legacy"
[[entry]]
name = "obs"
workload = "obs_overhead"
"#,
        );
        let find = |rows: &[MeasurementRow], q: &str| {
            rows.iter()
                .find(|r| r.quantity == q)
                .cloned()
                .unwrap_or_else(|| panic!("no {q} row"))
        };
        let rows = run_cell(&suite, &suite.cells[0]).expect("overhead leg runs");
        let by = |q: &str| find(&rows, q);
        assert!(by("throughput_armed").min > 0.0);
        assert!(by("throughput_disarmed").min > 0.0);
        assert_eq!(by("overhead").unit, "%");
        assert_eq!(by("overhead").name, "serve/quality/overhead");

        // The legacy coalescer answers like any load leg; the shed and
        // steal rows are client- and server-side counts, recorder or not.
        let legacy = run_cell(&suite, &suite.cells[3]).expect("legacy leg runs");
        assert!(find(&legacy, "throughput").min > 0.0);
        assert_eq!(find(&legacy, "latency_p99").unit, "us");
        assert_eq!(find(&legacy, "shed").unit, "count");
        assert_eq!(find(&legacy, "steals").min, 0.0, "one shard never steals");

        // Disarmed, armed and profiled flight-recorder legs, interleaved.
        let obs = run_cell(&suite, &suite.cells[4]).expect("obs-overhead leg runs");
        for q in [
            "throughput_disarmed",
            "throughput_armed",
            "throughput_profiled",
        ] {
            assert!(find(&obs, q).min > 0.0, "{q}");
        }
        assert_eq!(find(&obs, "armed_pct").unit, "%");
        assert_eq!(find(&obs, "profiled_pct").unit, "%");

        // The delay leg needs the recorder armed (the drift flag flows
        // through the quality registry), and so do the batch and phase
        // rows (deltas of the recorder's own histograms): obs-gated.
        #[cfg(feature = "obs")]
        {
            tfb_obs::start_run(tfb_obs::RunOptions::default()).expect("arm recorder");
            assert!(by("score").min > 0.0, "armed leg measures join cost");
            let rows = run_cell(&suite, &suite.cells[1]).expect("delay leg runs");
            let delay = find(&rows, "detection_delay");
            assert_eq!(delay.unit, "joins");
            assert!(delay.min >= 1.0, "a drifted join must precede the trip");
            assert_eq!(delay.min, delay.median, "deterministic replay");
            let (clean, drift) = (find(&rows, "clean_smape"), find(&rows, "drift_smape"));
            assert!((clean.min - 2.956).abs() < 0.1, "clean sMAPE {}", clean.min);
            assert!((drift.min - 22.22).abs() < 0.3, "drift sMAPE {}", drift.min);

            let plain = run_cell(&suite, &suite.cells[2]).expect("plain leg runs");
            assert_eq!(find(&plain, "throughput").name, "serve/quality/plain");
            let (mean, max) = (find(&plain, "batch_mean"), find(&plain, "batch_max"));
            assert!(mean.min >= 1.0 && max.min >= mean.min, "{mean:?} {max:?}");
            assert_eq!(max.unit, "rows");
            for phase in ["parse", "collect", "infer", "write", "total"] {
                let row = find(&plain, &format!("phase_{phase}_mean"));
                assert!(row.min > 0.0 && row.unit == "us", "{row:?}");
            }
            let total = find(&plain, "phase_total_mean").min;
            assert!(
                total <= find(&plain, "latency_p99").min,
                "server time per request fits inside the client's tail"
            );
            tfb_obs::finish_run(&[]);
        }
    }

    #[test]
    fn unknown_cells_error_with_the_cell_id() {
        let suite = suite_from(
            "name = \"eval/unit\"\nengine = \"eval\"\n[[entry]]\nname = \"x\"\ndataset = \"NoSuch\"\nmethod = \"LR\"",
        );
        let err = run_cell(&suite, &suite.cells[0]).unwrap_err();
        assert!(err.contains("eval/unit/x"), "{err}");
        let suite = suite_from(
            "name = \"math/unit\"\nengine = \"math\"\n[[entry]]\nname = \"x\"\nworkload = \"quantum\"",
        );
        assert!(run_cell(&suite, &suite.cells[0]).is_err());
    }
}
