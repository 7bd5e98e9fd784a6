//! The `serve-forecast` and `serve-fleet` workloads: the forecast server
//! driven over HTTP by closed-loop keep-alive clients in this process,
//! with every reply checked against the benchmark's own `ServableModel`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tfb_artifact::{ModelArtifact, ServableModel};
use tfb_core::metrics::{compute, Metric, MetricContext};
use tfb_data::{ChronoSplit, MultiSeries, Normalization, Normalizer};
use tfb_json::JsonValue;
use tfb_registry::{Fleet, FleetConfig, Registry};
use tfb_serve::{Coalescer, CoalescerConfig, ServerConfig, ServerHandle};

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use crate::stats::{median, same_bits, Percentiles, Tally, Zipf};
use crate::trace::Spans;
use crate::{Layers, Outcome};

/// Both workloads serve models trained on the ETTh1 profile at the
/// paper's look-back of 96 steps (7 channels).
const DATASET: &str = "ETTh1";
const LOOKBACK: usize = 96;
/// Distinct request windows per run, drawn from the test region.
const POOL: usize = 64;

/// The fleet: (name, method, horizon) in zipf popularity order. A deep
/// model sits at hot rank 1, and the resident cap is below the count.
const FLEET: [(&str, &str, usize); 6] = [
    ("m00", "LR", 24),
    ("m01", "DLinear", 24),
    ("m02", "LR", 48),
    ("m03", "N-BEATS", 24),
    ("m04", "LR", 12),
    ("m05", "LR", 36),
];
const RESIDENT_CAP: usize = 4;
const ZIPF_ALPHA: f64 = 1.0;
/// Every `JOIN_EVERY`-th operation of a fleet client is a `/v1/observe`
/// join of the forecast it made just before.
const JOIN_EVERY: usize = 8;

/// Closed-loop clients: one per core, at most two. The load comes from
/// this process and uses no more threads and connections than cores.
pub fn clients() -> usize {
    crate::machine::cores().min(2)
}

// ---------------------------------------------------------------------
// HTTP client
// ---------------------------------------------------------------------

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    body: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// One request/reply on the kept-alive connection: (status, body).
    fn call(&mut self, request: &[u8]) -> Result<(u16, &[u8]), String> {
        self.writer
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        self.reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read: {e}"))?;
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {:?}", self.line))?;
        let mut len = 0usize;
        loop {
            self.line.clear();
            self.reader
                .read_line(&mut self.line)
                .map_err(|e| format!("read: {e}"))?;
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v
                        .trim()
                        .parse()
                        .map_err(|_| "bad content-length".to_string())?;
                }
            }
        }
        self.body.resize(len, 0);
        self.reader
            .read_exact(&mut self.body)
            .map_err(|e| format!("read body: {e}"))?;
        Ok((status, &self.body))
    }
}

fn http_post(path: &str, json: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: tfbperf\r\ncontent-length: {}\r\n\r\n{json}",
        json.len()
    )
    .into_bytes()
}

fn json_array(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * 12 + 2);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        tfb_json::write_number(&mut out, *v);
    }
    out.push(']');
    out
}

/// The numbers of `field` in a JSON reply.
fn reply_numbers(body: &[u8], field: &str) -> Result<Vec<f64>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    let parsed = JsonValue::parse(text).map_err(|e| format!("reply JSON: {e}"))?;
    let items = parsed
        .get(field)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("reply lacks {field:?}: {text}"))?;
    items
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("{field:?} holds a non-number"))
        })
        .collect()
}

/// Checks one forecast reply bit for bit against the benchmark's own
/// `ServableModel::forecast` of the same window.
pub fn check_forecast(status: u16, body: &[u8], expected: &[f64]) -> Result<(), String> {
    if status != 200 {
        return Err(format!(
            "forecast: status {status}: {}",
            String::from_utf8_lossy(body)
        ));
    }
    let got = reply_numbers(body, "forecast")?;
    if same_bits(&got, expected) {
        Ok(())
    } else {
        Err("forecast differs from ServableModel::forecast on the same window".to_string())
    }
}

/// Checks one observe reply against the offline `tfb_core::metrics`
/// scores of the same forecast and actuals.
fn check_join(status: u16, body: &[u8], expected: &[f64; 3]) -> Result<bool, String> {
    if status != 200 {
        return Err(format!(
            "observe: status {status}: {}",
            String::from_utf8_lossy(body)
        ));
    }
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    let parsed = JsonValue::parse(text).map_err(|e| format!("observe reply JSON: {e}"))?;
    match parsed.get("status").and_then(|s| s.as_str()) {
        Some("orphan") => return Ok(false),
        Some("scored") => {}
        _ => return Err(format!("observe reply: {text}")),
    }
    let got: Vec<f64> = ["mae", "mse", "smape"]
        .iter()
        .map(|k| parsed.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN))
        .collect();
    if same_bits(&got, expected) {
        Ok(true)
    } else {
        Err(format!(
            "observe scores {got:?} differ from offline {expected:?}"
        ))
    }
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// One served model as the clients see it.
struct Route {
    name: String,
    path: String,
    reference: ServableModel,
    /// Per pool window: the window, the request, the expected forecast,
    /// and the actuals JSON with their offline scores.
    windows: Vec<Vec<f64>>,
    requests: Vec<Vec<u8>>,
    bodies: Vec<String>,
    expected: Vec<Vec<f64>>,
    actuals: Vec<(String, [f64; 3])>,
}

/// The window pool: `POOL` test-region offsets drawn from the seed, with
/// values rounded to three decimals as a client would send them.
struct Pool {
    windows: Vec<Vec<f64>>,
    /// Raw values following each window, `max_horizon` rows.
    futures: Vec<Vec<f64>>,
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn pool(series: &MultiSeries, test_start: usize, max_horizon: usize, seed: u64) -> Pool {
    let dim = series.dim();
    let mut rng = StdRng::seed_from_u64(seed);
    let lo = test_start.max(LOOKBACK);
    let span = series.len() - max_horizon - lo;
    let (mut windows, mut futures) = (Vec::new(), Vec::new());
    for _ in 0..POOL {
        let t = rng.gen_range(lo..=lo + span);
        let v = series.values();
        windows.push(
            v[(t - LOOKBACK) * dim..t * dim]
                .iter()
                .map(|&x| round3(x))
                .collect(),
        );
        futures.push(
            v[t * dim..(t + max_horizon) * dim]
                .iter()
                .map(|&x| round3(x))
                .collect(),
        );
    }
    Pool { windows, futures }
}

fn route(name: &str, path: String, reference: ServableModel, pool: &Pool) -> Result<Route, String> {
    let out_len = reference.horizon() * reference.dim();
    let mut r = Route {
        name: name.to_string(),
        path,
        reference,
        windows: pool.windows.clone(),
        requests: Vec::new(),
        bodies: Vec::new(),
        expected: Vec::new(),
        actuals: Vec::new(),
    };
    for (w, future) in pool.windows.iter().zip(&pool.futures) {
        let body = format!("{{\"window\":{}}}", json_array(w));
        let expected = r
            .reference
            .forecast(w)
            .map_err(|e| format!("{name}: forecast: {e}"))?;
        let actual = &future[..out_len];
        let ctx = MetricContext::default();
        let scores =
            [Metric::Mae, Metric::Mse, Metric::Smape].map(|m| compute(m, &expected, actual, ctx));
        r.requests.push(http_post(&r.path, &body));
        r.bodies.push(body);
        r.expected.push(expected);
        r.actuals.push((json_array(actual), scores));
    }
    Ok(r)
}

/// The training data every served model is fitted on, normalized exactly
/// as the offline pipeline does.
struct TrainData {
    series: MultiSeries,
    train: MultiSeries,
    norm: Normalizer,
    test_start: usize,
}

fn train_data() -> Result<TrainData, String> {
    let profile = tfb_datagen::profile_by_name(DATASET).ok_or("no ETTh1 profile")?;
    let series = profile.generate(tfb_datagen::Scale::DEFAULT);
    let split = ChronoSplit::split(&series, profile.split).map_err(|e| e.to_string())?;
    let norm = Normalizer::fit(&split.train, Normalization::ZScore);
    let normed = norm.apply(&series).map_err(|e| e.to_string())?;
    Ok(TrainData {
        train: normed.slice_rows(0..split.val_start),
        test_start: split.test_start,
        series,
        norm,
    })
}

/// A timed call when tracing, a plain one otherwise.
fn timed<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

/// Trains and encodes one artifact; returns its bytes.
fn train_artifact(
    data: &TrainData,
    method: &str,
    horizon: usize,
    spans: &mut Option<&mut Spans>,
) -> Result<Vec<u8>, String> {
    let deep = (method != "LR").then(crate::study::train_config);
    let artifact = timed(spans, "artifact.fit", || {
        tfb_artifact::fit(
            method,
            &data.train,
            LOOKBACK,
            horizon,
            data.norm.clone(),
            "tfbperf".into(),
            deep,
        )
    })
    .map_err(|e| format!("{method}: fit: {e}"))?;
    Ok(timed(spans, "artifact.encode", || artifact.to_bytes()))
}

fn decode(bytes: &[u8], spans: &mut Option<&mut Spans>) -> Result<ServableModel, String> {
    timed(spans, "artifact.decode", || {
        ModelArtifact::from_bytes(bytes).and_then(ServableModel::from_artifact)
    })
    .map_err(|e| format!("decode: {e}"))
}

// ---------------------------------------------------------------------
// Server set-up
// ---------------------------------------------------------------------

struct Live {
    handle: ServerHandle,
    conns: Vec<Conn>,
    routes: Vec<Route>,
}

impl Live {
    /// Closes the connections, drains the server and closes the recorded
    /// run, as `tfb serve` does on SIGTERM.
    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
        std::hint::black_box(tfb_obs::finish_run(&[]));
        tfb_obs::flight::set_armed(false);
    }
}

/// Arms the recorder as a default `tfb serve` does: metrics, request
/// traces, SLO tracking and quality scoring on, no event log, and the
/// flight recorder armed with its postmortem root in the scratch space.
fn arm(work: &Path) -> Result<(), String> {
    tfb_obs::start_run(tfb_obs::RunOptions::default()).map_err(|e| format!("recorder: {e}"))?;
    tfb_obs::flight::configure(tfb_obs::flight::FlightConfig {
        history_root: Some(work.join("history")),
        ..Default::default()
    });
    tfb_obs::flight::set_armed(true);
    Ok(())
}

/// Opens every client connection and gets one verified reply on each.
fn connect_all(addr: SocketAddr, first: &Route) -> Result<Vec<Conn>, String> {
    (0..clients())
        .map(|_| {
            let mut c = Conn::open(addr)?;
            let (status, body) = c.call(&first.requests[0])?;
            check_forecast(status, body, &first.expected[0])?;
            Ok(c)
        })
        .collect()
}

/// `serve-forecast` set-up, the real cold start of `tfb train` followed
/// by `tfb serve --model`: generate, fit LR, encode, save, load, bind,
/// and one verified reply per client connection.
fn setup_forecast(work: &Path, seed: u64, mut spans: Option<&mut Spans>) -> Result<Live, String> {
    let data = timed(&mut spans, "datagen", train_data)?;
    let bytes = train_artifact(&data, "LR", 24, &mut spans)?;
    let file = work.join("model.tfba");
    std::fs::write(&file, &bytes).map_err(|e| format!("save: {e}"))?;
    let served = ServableModel::load(&file).map_err(|e| format!("load: {e}"))?;
    let reference = decode(&bytes, &mut spans)?;
    let pool = pool(&data.series, data.test_start, 24, seed);
    let routes = vec![route("LR", "/forecast".into(), reference, &pool)?];
    // The default config: an ephemeral loopback port, one shard per core.
    let handle =
        tfb_serve::serve(served, ServerConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let conns = connect_all(handle.addr(), &routes[0])?;
    Ok(Live {
        handle,
        conns,
        routes,
    })
}

/// `serve-fleet` set-up: train, encode and publish every artifact into a
/// fresh registry, open the fleet, bind, and one verified reply per
/// client connection.
fn setup_fleet(work: &Path, seed: u64, mut spans: Option<&mut Spans>) -> Result<Live, String> {
    let data = timed(&mut spans, "datagen", train_data)?;
    let dir = work.join("registry");
    // Each set-up starts from an empty registry; a leftover one would turn
    // publishing into deduplication.
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Registry::open(&dir).map_err(|e| format!("registry: {e}"))?;
    let max_horizon = FLEET.iter().map(|f| f.2).max().unwrap_or(1);
    let pool = pool(&data.series, data.test_start, max_horizon, seed);
    let mut routes = Vec::new();
    for (name, method, horizon) in FLEET {
        let bytes = train_artifact(&data, method, horizon, &mut spans)?;
        timed(&mut spans, "registry.publish", || {
            registry.publish_bytes(name, "prod", &bytes)
        })
        .map_err(|e| format!("{name}: publish: {e}"))?;
        let reference = decode(&bytes, &mut spans)?;
        routes.push(route(
            name,
            format!("/v1/forecast/{name}"),
            reference,
            &pool,
        )?);
    }
    let fleet = Fleet::open(
        registry,
        FleetConfig {
            resident_cap: RESIDENT_CAP,
        },
    )
    .map_err(|e| format!("fleet: {e}"))?;
    let handle = tfb_serve::serve_fleet(Arc::new(fleet), ServerConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let conns = connect_all(handle.addr(), &routes[0])?;
    Ok(Live {
        handle,
        conns,
        routes,
    })
}

// ---------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------

/// The measured phase is cut into slices of about this length, and each
/// end-to-end number is the median over slices: a burst of host noise
/// moves one slice, not the run.
const SLICE_S: f64 = 2.0;

/// How long a client keeps one connection. Each connection is pinned
/// to the shard whose accept loop took it, and which loop wins is
/// timing-dependent; reconnecting this often spreads each run over many
/// such draws instead of freezing one for the whole run.
const RECONNECT: Duration = Duration::from_millis(500);

/// What one client saw.
struct ClientLoad {
    /// (slice, µs) of every verified operation completed in the phase.
    latency_us: Vec<(usize, f64)>,
    observe_us: Vec<f64>,
    tally: Tally,
    joins: u64,
    orphans: u64,
    /// The open connection, handed back for the next phase.
    conn: Option<Conn>,
    /// With tracing, a span around every request and join.
    spans: Option<Spans>,
}

/// One closed-loop client until `stop`: picks a model (zipf) and a
/// window (uniform) per operation; fleet clients join every
/// `JOIN_EVERY`-th operation against the forecast just made. Operations
/// completing after the last slice are checked but not timed.
#[allow(clippy::too_many_arguments)]
fn client(
    routes: &[Route],
    addr: SocketAddr,
    mut conn: Conn,
    mut rng: StdRng,
    tag: usize,
    slices: &Slices,
    stop: &AtomicBool,
    trace: bool,
) -> ClientLoad {
    let zipf = Zipf::new(routes.len(), ZIPF_ALPHA);
    let joins = routes.len() > 1;
    let mut out = ClientLoad {
        latency_us: Vec::new(),
        observe_us: Vec::new(),
        tally: Tally::default(),
        joins: 0,
        orphans: 0,
        conn: None,
        spans: trace.then(Spans::default),
    };
    let mut opened = Instant::now();
    let mut k = 0u64;
    while !stop.load(Ordering::Relaxed) {
        if opened.elapsed() >= RECONNECT {
            // Close first: the client never holds two connections.
            drop(conn);
            conn = match Conn::open(addr) {
                Ok(c) => c,
                Err(e) => {
                    out.tally.fail(e);
                    return out;
                }
            };
            opened = Instant::now();
        }
        let m = &routes[zipf.sample(&mut rng)];
        let w = rng.gen_range(0..POOL);
        let observed = joins && (k as usize % JOIN_EVERY) == JOIN_EVERY - 2;
        let observed_request;
        let request = if observed {
            let body = &m.bodies[w];
            let body = format!(
                "{},\"series\":\"c{tag}\",\"t\":{k}}}",
                &body[..body.len() - 1]
            );
            observed_request = http_post(&m.path, &body);
            &observed_request
        } else {
            &m.requests[w]
        };
        let t0 = Instant::now();
        let c = &mut conn;
        let reply = match out.spans.as_mut() {
            Some(s) => s.time("http.request", move || c.call(request)),
            None => c.call(request),
        };
        let (connected, result) = match reply {
            Ok((s, b)) => (true, check_forecast(s, b, &m.expected[w])),
            Err(e) => (false, Err(e)),
        };
        let t1 = Instant::now();
        if let (Some(()), Some(j)) = (out.tally.record(result), slices.of(t1)) {
            out.latency_us.push((j, (t1 - t0).as_secs_f64() * 1e6));
        }
        if !connected {
            return out;
        }
        if observed {
            let (actual, scores) = &m.actuals[w];
            let body = format!(
                "{{\"name\":\"{}\",\"series\":\"c{tag}\",\"t\":{k},\"actual\":{actual}}}",
                m.name
            );
            let request = http_post("/v1/observe", &body);
            let t0 = Instant::now();
            let c = &mut conn;
            let reply = match out.spans.as_mut() {
                Some(s) => s.time("http.observe", move || c.call(&request)),
                None => c.call(&request),
            };
            let t1 = Instant::now();
            let us = (t1 - t0).as_secs_f64() * 1e6;
            match reply.and_then(|(s, b)| check_join(s, b, scores)) {
                Ok(true) => {
                    out.tally.ok();
                    out.joins += 1;
                    if let Some(j) = slices.of(t1) {
                        out.latency_us.push((j, us));
                        out.observe_us.push(us);
                    }
                }
                Ok(false) => {
                    out.orphans += 1;
                    out.tally.fail("observe join found no parked forecast");
                }
                Err(e) => out.tally.fail(e),
            }
            k += 1;
        }
        k += 1;
    }
    out.conn = Some(conn);
    out
}

/// Equal slices tiling a measured phase.
struct Slices {
    start: Instant,
    len: Duration,
    count: usize,
}

impl Slices {
    fn new(seconds: f64) -> Slices {
        let count = ((seconds / SLICE_S).round() as usize).max(1);
        Slices {
            start: Instant::now(),
            len: Duration::from_secs_f64(seconds / count as f64),
            count,
        }
    }

    /// The slice `t` falls in, if any.
    fn of(&self, t: Instant) -> Option<usize> {
        let j = (t.saturating_duration_since(self.start).as_nanos() / self.len.as_nanos()) as usize;
        (j < self.count).then_some(j)
    }

    fn end(&self, j: usize) -> Instant {
        self.start + self.len * (j as u32 + 1)
    }
}

/// The merged result of one load phase. The first four numbers are
/// medians over slices.
struct Load {
    p50_us: f64,
    p90_us: f64,
    /// Verified operations per second.
    throughput: f64,
    /// Process CPU (server and clients) per verified operation.
    cpu_us_per_op: f64,
    /// All timed operations pooled: the sample count and p99.
    pooled: Percentiles,
    observe_us: Vec<f64>,
    tally: Tally,
    joins: u64,
    orphans: u64,
    /// The clients' spans, merged.
    spans: Spans,
}

/// Drives every connection for `seconds` and merges the clients' results.
/// With `trace`, each client records a span around every request.
fn load(live: &mut Live, seed: u64, seconds: f64, trace: bool) -> Load {
    let stop = AtomicBool::new(false);
    let addr = live.handle.addr();
    let conns = std::mem::take(&mut live.conns);
    // The load generator's budget: one client thread per connection, and
    // no more of either than cores.
    assert!(
        conns.len() <= crate::machine::cores(),
        "load exceeds the core budget"
    );
    let routes = &live.routes;
    let mut cpu = vec![crate::machine::process_cpu()];
    let slices = Slices::new(seconds);
    let parts: Vec<ClientLoad> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let (stop, slices) = (&stop, &slices);
                let rng = StdRng::seed_from_u64(seed ^ (0xA5A5_0000 + c as u64));
                scope.spawn(move || client(routes, addr, conn, rng, c, slices, stop, trace))
            })
            .collect();
        for j in 0..slices.count {
            std::thread::sleep(slices.end(j).saturating_duration_since(Instant::now()));
            cpu.push(crate::machine::process_cpu());
        }
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut by_slice = vec![Vec::new(); slices.count];
    let mut out = Load {
        p50_us: f64::NAN,
        p90_us: f64::NAN,
        throughput: f64::NAN,
        cpu_us_per_op: f64::NAN,
        pooled: Percentiles::of(Vec::new()),
        observe_us: Vec::new(),
        tally: Tally::default(),
        joins: 0,
        orphans: 0,
        spans: Spans::default(),
    };
    for p in parts {
        for (j, us) in p.latency_us {
            by_slice[j].push(us);
        }
        out.observe_us.extend(p.observe_us);
        out.tally.merge(p.tally);
        out.joins += p.joins;
        out.orphans += p.orphans;
        live.conns.extend(p.conn);
        if let Some(s) = p.spans {
            out.spans.merge(s);
        }
    }
    out.pooled = Percentiles::of(by_slice.concat());
    let per_slice: Vec<(Percentiles, f64)> = by_slice
        .into_iter()
        .zip(cpu.windows(2))
        .map(|(lat, cpu)| (Percentiles::of(lat), (cpu[1] - cpu[0]).as_secs_f64() * 1e6))
        .filter(|(p, _)| p.n > 0)
        .collect();
    let med =
        |f: fn(&(Percentiles, f64)) -> f64| median(&per_slice.iter().map(f).collect::<Vec<_>>());
    let slice_s = slices.len.as_secs_f64();
    out.p50_us = med(|(p, _)| p.p50);
    out.p90_us = med(|(p, _)| p.p90);
    out.throughput = med(|(p, _)| p.n as f64) / slice_s;
    out.cpu_us_per_op = med(|(p, cpu)| cpu / p.n as f64);
    out
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Forecast,
    Fleet,
}

fn setup(kind: Kind, work: &Path, seed: u64, spans: Option<&mut Spans>) -> Result<Live, String> {
    arm(work)?;
    match kind {
        Kind::Forecast => setup_forecast(work, seed, spans),
        Kind::Fleet => setup_fleet(work, seed, spans),
    }
}

/// The untraced run, cut into slices of about [`SLICE_S`]: each slice is
/// one cold start followed by that long of closed-loop load on the fresh
/// server. `setup_s` is the median of the cold starts and each load
/// number the median over slices. The host's speed wanders over seconds,
/// so spreading the cold starts over the whole run keeps one slow phase
/// from moving all of them.
pub fn run(kind: Kind, work: &Path, seed: u64, seconds: f64) -> Outcome {
    let count = ((seconds / SLICE_S).round() as usize).max(1);
    let mut tally = Tally::default();
    let (mut setup_s, mut loads) = (Vec::with_capacity(count), Vec::with_capacity(count));
    for j in 0..count {
        let t0 = Instant::now();
        let started = setup(kind, work, seed, None);
        setup_s.push(t0.elapsed().as_secs_f64());
        let Some(mut live) = tally.record(started) else {
            continue;
        };
        let l = load(
            &mut live,
            seed ^ ((j as u64) << 32),
            seconds / count as f64,
            false,
        );
        live.stop();
        loads.push(l);
    }
    if loads.is_empty() {
        return Outcome::failed(tally);
    }
    let med = |f: fn(&Load) -> f64| median(&loads.iter().map(f).collect::<Vec<_>>());
    let (p50, p90, throughput, cpu, p99) = (
        med(|l| l.p50_us),
        med(|l| l.p90_us),
        med(|l| l.throughput),
        med(|l| l.cpu_us_per_op),
        med(|l| l.pooled.p99),
    );
    let samples = loads.iter().map(|l| l.pooled.n).sum();
    let joins: u64 = loads.iter().map(|l| l.joins).sum();
    for l in loads {
        tally.merge(l.tally);
    }
    Outcome {
        setup_s: median(&setup_s),
        latency_p50_us: p50,
        latency_p90_us: p90,
        samples,
        throughput,
        cpu_us_per_op: cpu,
        tally,
        facts: vec![
            ("latency_p99_us".into(), p99.to_string()),
            ("joins".into(), joins.to_string()),
            ("setup_runs_s".into(), format!("{setup_s:?}")),
        ],
    }
}

/// Median µs per call of `f` over every pool index.
fn per_call_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// In-process coalescer probe: one thread submits each pool window in
/// turn to a coalescer over the same model and waits for its outcome.
/// Returns (submit→outcome µs p50, collect µs p50, mean batch size).
fn coalescer_probe(
    route: &Route,
    model: ServableModel,
    seconds: f64,
    tally: &mut Tally,
) -> (f64, f64, f64) {
    let coalescer = Coalescer::start(Arc::new(model), CoalescerConfig::default());
    let (mut rtt, mut collect, mut batch) = (Vec::new(), Vec::new(), 0usize);
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        let w = i % POOL;
        i += 1;
        let s0 = Instant::now();
        let result = coalescer
            .submit(route.windows[w].clone())
            .map_err(|e| format!("coalescer submit: {e:?}"))
            .and_then(|rx| rx.recv().map_err(|e| e.to_string()))
            .and_then(|r| r);
        let dt = s0.elapsed();
        let checked = result.and_then(|o| {
            if same_bits(&o.forecast, &route.expected[w]) {
                Ok(o)
            } else {
                Err("coalescer forecast differs from ServableModel::forecast".to_string())
            }
        });
        if let Some(o) = tally.record(checked) {
            rtt.push(dt.as_secs_f64() * 1e6);
            collect.push(o.collect_ns as f64 / 1e3);
            batch += o.batch_size;
        }
    }
    coalescer.shutdown();
    (
        median(&rtt),
        median(&collect),
        batch as f64 / rtt.len().max(1) as f64,
    )
}

/// The traced run: one set-up with a span around each layer call, layer
/// probes, then the same load untraced and traced (half of `seconds`
/// each) for the tracing overhead.
pub fn trace(
    kind: Kind,
    work: &Path,
    seed: u64,
    seconds: f64,
    layers: &mut Layers,
    tally: &mut Tally,
) -> f64 {
    let mut spans = Spans::default();
    let started = setup(kind, work, seed, Some(&mut spans));
    let Some(mut live) = tally.record(started) else {
        return 0.0;
    };
    let us = |spans: &Spans, name| {
        spans.total(name).as_secs_f64() * 1e6 / spans.calls(name).max(1) as f64
    };
    layers.set("artifact.encode_us", us(&spans, "artifact.encode"));
    layers.set("artifact.decode_us", us(&spans, "artifact.decode"));
    if kind == Kind::Fleet {
        layers.set("registry.publish_ms", us(&spans, "registry.publish") / 1e3);
    }
    let predict: Vec<f64> = live
        .routes
        .iter()
        .map(|r| {
            per_call_us(POOL, |w| {
                std::hint::black_box(r.reference.forecast(&r.windows[w]).ok());
            })
        })
        .collect();
    layers.set(
        "artifact.predict_us",
        predict.iter().sum::<f64>() / predict.len() as f64,
    );
    let first = &live.routes[0];
    layers.set(
        "json.parse_us",
        per_call_us(POOL, |w| {
            std::hint::black_box(JsonValue::parse(&first.bodies[w]).ok());
        }),
    );
    let mut reply = String::new();
    layers.set(
        "json.write_us",
        per_call_us(POOL, |w| {
            reply.clear();
            for v in &first.expected[w] {
                tfb_json::write_number(&mut reply, *v);
                reply.push(',');
            }
            std::hint::black_box(&reply);
        }),
    );

    let half = seconds / 2.0;
    let plain = load(&mut live, seed, half, false);
    let traced = load(&mut live, seed, half, true);
    let fleet_stats = live.handle.fleet().map(|f| f.stats());
    tally.merge(plain.tally);
    tally.merge(traced.tally);
    spans.merge(traced.spans);
    layers.set("http.latency_p99_us", plain.pooled.p99);

    match kind {
        Kind::Forecast => {
            let model = decode(
                &std::fs::read(work.join("model.tfba")).unwrap_or_default(),
                &mut None,
            );
            if let Some(model) = tally.record(model) {
                let (submit, collect, batch) =
                    coalescer_probe(&live.routes[0], model, half.min(2.0), tally);
                layers.set("coalescer.submit_us_p50", submit);
                layers.set("coalescer.collect_us_p50", collect);
                layers.set("coalescer.batch_size_mean", batch);
                layers.set("http.overhead_us_p50", plain.p50_us - submit);
            }
        }
        Kind::Fleet => {
            if let Some(s) = fleet_stats {
                let cold = Percentiles::of(s.cold_load_us.clone());
                layers.set("fleet.hit_rate", s.hit_rate());
                layers.set(
                    "fleet.cold_load_us_p90",
                    if cold.n == 0 { 0.0 } else { cold.p90 },
                );
                layers.set("fleet.evictions", s.evictions as f64);
            }
            layers.set("observe.join_us_p50", Percentiles::of(plain.observe_us).p50);
            layers.set("observe.joins", (plain.joins + traced.joins) as f64);
            layers.set("observe.orphans", (plain.orphans + traced.orphans) as f64);
        }
    }
    eprintln!("{}", spans.render());
    live.stop();
    100.0 * (traced.p50_us - plain.p50_us) / plain.p50_us
}
