//! The `study` workload: a reduced paper reproduction through the offline
//! pipeline (datagen → characteristics → fit → rolling eval → metrics →
//! report), and its decomposed replay for the per-layer split.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tfb_core::config::{BenchmarkConfig, StrategyConfig};
use tfb_core::data::DatasetCharacteristics;
use tfb_core::metrics::{compute, Metric, MetricContext};
use tfb_core::runner::{run_job, DatasetCache};
use tfb_core::{build_method, EvalOutcome, Method, RankTable, ResultTable};
use tfb_data::{ChronoSplit, MultiSeries, Normalization, Normalizer};
use tfb_datagen::{DatasetProfile, Scale};
use tfb_math::matrix::Matrix;

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use crate::stats::{median, same_bits, shuffle, Percentiles, Tally};
use crate::trace::{count_alloc, Spans};
use crate::{Layers, Outcome};

const SCALE: Scale = Scale::DEFAULT;

/// (dataset, horizon, look-back). Two short and two long profiles that
/// span the characteristics: ILI (trend + seasonality, high
/// correlation), NN5 (weak trend), ETTh1 (seasonal, correlated) and
/// Exchange (unit-root random walks, mostly non-stationary).
const DATASETS: [(&str, usize, usize); 4] = [
    ("ILI", 24, 36),
    ("NN5", 24, 36),
    ("ETTh1", 96, 96),
    ("Exchange", 96, 96),
];

const METRICS: [Metric; 2] = [Metric::Mae, Metric::Mse];

/// Statistical cells refit at every evaluated window, so their windows
/// are subsampled evenly; ARIMA's order search costs ~0.4 s per window
/// on the short profiles and is run on ILI only.
const STAT_WINDOWS: usize = 16;
const ARIMA_WINDOWS: usize = 2;

/// Setup repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Nominal seconds per pass over the grid. A run makes a fixed number of
/// passes, `--seconds` divided by this, rounded up: peak memory grows
/// with the pass count, so the count must not depend on the host's speed.
const PASS_S: f64 = 7.0;

const GOLDEN: &str = include_str!("../golden/study.tsv");

/// One (dataset, method, horizon) cell of the study grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    dataset: &'static str,
    method: &'static str,
    horizon: usize,
    lookback: usize,
    /// 0 = every test window at stride 1.
    max_windows: usize,
}

impl Cell {
    fn key(&self) -> String {
        format!("{}/{}/{}", self.dataset, self.method, self.horizon)
    }

    fn config(&self) -> BenchmarkConfig {
        BenchmarkConfig {
            datasets: vec![self.dataset.to_string()],
            methods: vec![self.method.to_string()],
            horizons: vec![self.horizon],
            lookbacks: vec![self.lookback],
            strategy: StrategyConfig::Rolling { stride: 1 },
            normalization: Normalization::ZScore,
            metrics: METRICS.iter().map(|m| m.label().to_string()).collect(),
            max_windows: self.max_windows,
            max_len: SCALE.max_len,
            max_dim: SCALE.max_dim,
        }
    }

    fn is_deep(&self) -> bool {
        tfb_core::method::DL_METHODS.contains(&self.method)
    }
}

/// The study grid: statistical (Naive, Theta, ETS, VAR, ARIMA), ML (LR,
/// KNN) and DL (NLinear, DLinear, N-BEATS, PatchTST) methods. KNN's
/// neighbour search over the long profiles' 500 windows costs ~6 s, so it
/// runs on the short profiles.
pub fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for (dataset, horizon, lookback) in DATASETS {
        let short = horizon == 24;
        let mut push = |method, max_windows| {
            out.push(Cell {
                dataset,
                method,
                horizon,
                lookback,
                max_windows,
            })
        };
        for m in ["Naive", "Theta", "ETS", "VAR"] {
            push(m, STAT_WINDOWS);
        }
        if dataset == "ILI" {
            push("ARIMA", ARIMA_WINDOWS);
        }
        push("LR", 0);
        if short {
            push("KNN", 0);
        }
        for m in ["NLinear", "DLinear", "N-BEATS", "PatchTST"] {
            push(m, 0);
        }
    }
    out
}

/// The reduced deep-learning training budget every DL cell uses.
pub fn train_config() -> tfb_nn::TrainConfig {
    tfb_nn::TrainConfig {
        epochs: 5,
        max_samples: 512,
        ..tfb_nn::TrainConfig::default()
    }
}

fn profile(name: &str) -> DatasetProfile {
    tfb_datagen::profile_by_name(name).expect("study datasets are paper profiles")
}

struct Dataset {
    profile: DatasetProfile,
    series: MultiSeries,
    chars: DatasetCharacteristics,
}

/// Generates and characterizes every dataset.
fn setup(mut spans: Option<&mut Spans>) -> Vec<Dataset> {
    DATASETS
        .iter()
        .map(|&(name, _, _)| {
            let profile = profile(name);
            let (series, chars) = match spans.as_deref_mut() {
                Some(s) => {
                    let series = s.time("datagen", || profile.generate(SCALE));
                    let chars = s.time("characteristics", || {
                        DatasetCharacteristics::compute(&series, usize::MAX)
                    });
                    (series, chars)
                }
                None => {
                    let series = profile.generate(SCALE);
                    let chars = DatasetCharacteristics::compute(&series, usize::MAX);
                    (series, chars)
                }
            };
            Dataset {
                profile,
                series,
                chars,
            }
        })
        .collect()
}

/// Golden values: per cell the window count and metric bits, per dataset
/// the characteristic bits.
struct Golden {
    cells: BTreeMap<String, (usize, Vec<u64>)>,
    chars: BTreeMap<String, Vec<u64>>,
}

impl Golden {
    fn parse(text: &str) -> Golden {
        let mut g = Golden {
            cells: BTreeMap::new(),
            chars: BTreeMap::new(),
        };
        let hex = |s: &str| u64::from_str_radix(s, 16).unwrap_or(0);
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["cell", key, windows, bits @ ..] => {
                    let n = windows.parse().unwrap_or(0);
                    g.cells
                        .insert(key.to_string(), (n, bits.iter().map(|b| hex(b)).collect()));
                }
                ["chars", name, bits @ ..] => {
                    g.chars
                        .insert(name.to_string(), bits.iter().map(|b| hex(b)).collect());
                }
                _ => {}
            }
        }
        g
    }

    fn check_cell(&self, cell: &Cell, outcome: &EvalOutcome) -> Result<(), String> {
        let got = metric_values(outcome);
        match self.cells.get(&cell.key()) {
            Some((n, bits)) if *n == outcome.n_windows && same_bits(&got, &bits_to_f64(bits)) => {
                Ok(())
            }
            Some((n, bits)) => Err(format!(
                "{}: {} windows {:?} differ from golden {} windows {:?}",
                cell.key(),
                outcome.n_windows,
                got,
                n,
                bits_to_f64(bits)
            )),
            None => Err(format!("{}: no golden value", cell.key())),
        }
    }

    fn check_chars(&self, d: &Dataset) -> Result<(), String> {
        let got = d.chars.as_vec();
        match self.chars.get(d.profile.name) {
            Some(bits) if same_bits(&got, &bits_to_f64(bits)) => Ok(()),
            _ => Err(format!(
                "{}: characteristics {got:?} differ from golden",
                d.profile.name
            )),
        }
    }
}

fn bits_to_f64(bits: &[u64]) -> Vec<f64> {
    bits.iter().map(|&b| f64::from_bits(b)).collect()
}

fn metric_values(outcome: &EvalOutcome) -> Vec<f64> {
    METRICS.iter().map(|&m| outcome.metric(m)).collect()
}

/// What one pass over the grid produced.
struct Pass {
    wall: Duration,
    /// Wall time of each cell's `run_job`, in run order.
    cell_us: Vec<f64>,
    outcomes: Vec<(usize, EvalOutcome)>,
}

/// Arms the recorder as a default `tfb run` does, with its event log in
/// the scratch space `work`.
fn arm(work: &Path) -> Result<(), String> {
    let events_path = Some(work.join("run.events.jsonl"));
    tfb_obs::start_run(tfb_obs::RunOptions { events_path }).map_err(|e| format!("recorder: {e}"))
}

/// One recorded run, as `tfb run`: evaluates every cell in `order`
/// through the sequential runner's job path, renders the report and
/// closes the run. Each cell is checked against `golden`.
fn pass(
    grid: &[Cell],
    order: &[usize],
    golden: Option<&Golden>,
    work: &Path,
    tally: &mut Tally,
) -> Pass {
    let t0 = Instant::now();
    if let Err(e) = arm(work) {
        tally.fail(e);
    }
    let cache = DatasetCache::new();
    let mut outcomes = Vec::with_capacity(order.len());
    let mut cell_us = Vec::with_capacity(order.len());
    for &i in order {
        let cell = &grid[i];
        let config = cell.config();
        let job = &config.jobs()[0];
        let c0 = Instant::now();
        let result = run_job(&config, job, &cache, Some(train_config()));
        cell_us.push(c0.elapsed().as_secs_f64() * 1e6);
        let checked = result
            .map_err(|e| format!("{}: {e}", cell.key()))
            .and_then(|o| {
                if let Some(g) = golden {
                    g.check_cell(cell, &o)?;
                }
                Ok(o)
            });
        if let Some(o) = tally.record(checked) {
            outcomes.push((i, o));
        }
    }
    outcomes.sort_by_key(|(i, _)| *i);
    if let Err(e) = report(outcomes.iter().map(|(_, o)| o), grid.len()) {
        tally.fail(e);
    }
    std::hint::black_box(tfb_obs::finish_run(&[]));
    Pass {
        wall: t0.elapsed(),
        cell_us,
        outcomes,
    }
}

/// Renders the result table (CSV and markdown) and the rank table, and
/// checks their shape.
fn report<'a>(
    outcomes: impl IntoIterator<Item = &'a EvalOutcome>,
    cells: usize,
) -> Result<(), String> {
    let table = ResultTable::from_outcomes(outcomes);
    let csv = table.to_csv();
    let markdown = table.to_markdown(Metric::Mae);
    let timing = table.timing_markdown();
    let rank = RankTable::compute(&table, Metric::Mae);
    let rows = csv.lines().count().saturating_sub(1);
    if rows != cells || markdown.is_empty() || timing.is_empty() || rank.cases != DATASETS.len() {
        return Err(format!(
            "report: {rows} CSV rows for {cells} cells, {} rank cases",
            rank.cases
        ));
    }
    std::hint::black_box((csv, markdown, timing));
    Ok(())
}

/// The order cells run in: the seed permutes the datasets, as a user
/// listing them in another order would; each dataset's cells keep the
/// grid's method order.
fn seeded_order(grid: &[Cell], seed: u64) -> Vec<usize> {
    let mut datasets = DATASETS.map(|d| d.0);
    shuffle(&mut StdRng::seed_from_u64(seed), &mut datasets);
    datasets
        .iter()
        .flat_map(|ds| (0..grid.len()).filter(move |&i| grid[i].dataset == *ds))
        .collect()
}

/// The untraced run: [`SETUP_REPS`] set-ups (`setup_s` is their median)
/// and whole passes over the grid (datasets ordered by the seed), as many
/// as `seconds` budgets at [`PASS_S`] each, taken in turns so that a slow
/// phase of the host does not fall on all set-ups. An operation is a
/// cell: the latency percentiles are over every cell of every pass,
/// throughput is cells per second of the median pass.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Outcome {
    let golden = Golden::parse(GOLDEN);
    let mut tally = Tally::default();
    let grid = cells();
    let order = seeded_order(&grid, seed);
    let passes = (seconds / PASS_S).ceil().max(1.0) as usize;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let (mut pass_s, mut cell_us, mut cpu_per_cell) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..passes.max(SETUP_REPS) {
        if k < SETUP_REPS {
            let t0 = Instant::now();
            let data = setup(None);
            setup_s.push(t0.elapsed().as_secs_f64());
            for d in &data {
                if let Err(e) = golden.check_chars(d) {
                    tally.fail(e);
                }
            }
        }
        if k >= passes {
            continue;
        }
        let cpu0 = crate::machine::process_cpu();
        let p = pass(&grid, &order, Some(&golden), work, &mut tally);
        let cpu = crate::machine::process_cpu() - cpu0;
        pass_s.push(p.wall.as_secs_f64());
        cell_us.extend(p.cell_us);
        cpu_per_cell.push(cpu.as_secs_f64() * 1e6 / grid.len() as f64);
    }
    let lat = Percentiles::of(cell_us);
    let study_s = median(&pass_s);
    Outcome {
        setup_s: median(&setup_s),
        latency_p50_us: lat.p50,
        latency_p90_us: lat.p90,
        samples: lat.n,
        throughput: grid.len() as f64 / study_s,
        cpu_us_per_op: median(&cpu_per_cell),
        tally,
        facts: vec![
            ("cells".into(), grid.len().to_string()),
            ("study_s".into(), study_s.to_string()),
            ("pass_s".into(), format!("{pass_s:?}")),
            ("setup_runs_s".into(), format!("{setup_s:?}")),
        ],
    }
}

/// Regenerates the golden file from one set-up and one pass.
pub fn bless(path: &str, work: &Path) -> std::io::Result<()> {
    let mut tally = Tally::default();
    let data = setup(None);
    let grid = cells();
    let order: Vec<usize> = (0..grid.len()).collect();
    let p = pass(&grid, &order, None, work, &mut tally);
    let mut out = String::from(
        "# Golden study outputs, bit for bit: regenerate with\n\
         # cargo run --release --manifest-path tfbperf/Cargo.toml -- --bless\n",
    );
    for d in &data {
        let bits: Vec<String> = d
            .chars
            .as_vec()
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        out.push_str(&format!("chars\t{}\t{}\n", d.profile.name, bits.join("\t")));
    }
    for (i, o) in &p.outcomes {
        let bits: Vec<String> = metric_values(o)
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        out.push_str(&format!(
            "cell\t{}\t{}\t{}\n",
            grid[*i].key(),
            o.n_windows,
            bits.join("\t")
        ));
    }
    if tally.failed > 0 {
        return Err(std::io::Error::other(format!(
            "study failed: {:?}",
            tally.reasons
        )));
    }
    std::fs::write(path, out)
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// Which timed layer a window method's train and infer calls belong to.
fn window_layers(cell: &Cell) -> (&'static str, &'static str) {
    if cell.is_deep() {
        ("nn.train", "nn.infer")
    } else {
        ("ml.train", "ml.infer")
    }
}

/// Replays one cell through the pipeline's public pieces — `ChronoSplit`
/// → `Normalizer` → `train`/`forecast` → `predict_batch` → `compute` —
/// with a span around each call. Returns the cell's outcome and, for
/// deep cells, the bytes `predict_batch` allocated.
fn replay(cell: &Cell, d: &Dataset, spans: &mut Spans) -> Result<(EvalOutcome, u64), String> {
    let series = &d.series;
    let (f, l, dim) = (cell.horizon, cell.lookback, series.dim());
    let n = series.len();
    let (split, normed, boundaries) = spans.time("data", || {
        let split = ChronoSplit::split(series, d.profile.split).map_err(|e| e.to_string())?;
        let norm = Normalizer::fit(&split.train, Normalization::ZScore);
        let normed = norm.apply(series).map_err(|e| e.to_string())?;
        let mut boundaries: Vec<usize> = (split.test_start..=(n - f)).collect();
        if cell.max_windows > 0 && boundaries.len() > cell.max_windows {
            let step = boundaries.len() as f64 / cell.max_windows as f64;
            boundaries = (0..cell.max_windows)
                .map(|i| boundaries[(i as f64 * step) as usize])
                .collect();
        }
        Ok::<_, String>((split, normed, boundaries))
    })?;
    let train_ch = normed.slice_rows(0..split.val_start).channel(0);
    let ctx = MetricContext {
        train: Some(&train_ch),
        period: series.frequency.default_period(),
    };
    let actual_at = |t: usize| &normed.values()[t * dim..(t + f) * dim];
    let score = |forecast: &[f64], actual: &[f64]| -> Vec<f64> {
        METRICS
            .iter()
            .map(|&m| compute(m, forecast, actual, ctx))
            .collect()
    };
    let mut method =
        build_method(cell.method, l, f, dim, Some(train_config())).map_err(|e| e.to_string())?;
    let mut alloc = 0;
    let (mut train_time, mut infer_time) = (Duration::ZERO, Duration::ZERO);
    let per_boundary: Vec<Option<Vec<f64>>> = match &mut method {
        Method::Window(m) => {
            let (train_layer, infer_layer) = window_layers(cell);
            let train = spans.time("data", || normed.slice_rows(0..split.val_start));
            let t0 = Instant::now();
            spans
                .time(train_layer, || m.train(&train))
                .map_err(|e| format!("{}: train: {e}", cell.key()))?;
            train_time = t0.elapsed();
            let windows = spans.time("data", || {
                let mut w = Matrix::zeros(boundaries.len(), l * dim);
                for (i, &t) in boundaries.iter().enumerate() {
                    w.data_mut()[i * l * dim..(i + 1) * l * dim]
                        .copy_from_slice(&normed.values()[(t - l) * dim..t * dim]);
                }
                w
            });
            let t0 = Instant::now();
            let (forecasts, bytes) = spans.time(infer_layer, || {
                count_alloc(|| m.predict_batch(&windows, dim))
            });
            infer_time = t0.elapsed();
            alloc = bytes;
            let forecasts = forecasts.map_err(|e| format!("{}: predict: {e}", cell.key()))?;
            if forecasts.data().iter().any(|v| !v.is_finite()) {
                return Err(format!("{}: non-finite forecast", cell.key()));
            }
            spans.time("metrics", || {
                boundaries
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| Some(score(forecasts.row(i), actual_at(t))))
                    .collect()
            })
        }
        Method::Stat(m) => {
            // Boundaries handed out as `evaluate` does: the same worker
            // count, each worker taking the next boundary from a shared
            // counter and timing its own calls.
            let m = &**m;
            type Timed = (Option<Vec<f64>>, [Duration; 3]);
            let eval_boundary = |t: usize| -> Timed {
                let t0 = Instant::now();
                let history = normed.slice_rows(0..t);
                let t1 = Instant::now();
                let forecast = m.forecast(&history, f).ok();
                let t2 = Instant::now();
                let values = forecast.map(|fc| score(&fc, actual_at(t)));
                (values, [t1 - t0, t2 - t1, t2.elapsed()])
            };
            let workers = crate::machine::cores().min(boundaries.len()).max(1);
            let timed: Vec<Timed> = if workers < 2 {
                boundaries.iter().map(|&t| eval_boundary(t)).collect()
            } else {
                let slots: Vec<Mutex<Option<Timed>>> =
                    boundaries.iter().map(|_| Mutex::new(None)).collect();
                let next = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= boundaries.len() {
                                break;
                            }
                            let out = eval_boundary(boundaries[i]);
                            *slots[i].lock().expect("boundary slot poisoned") = Some(out);
                        });
                    }
                });
                slots
                    .into_iter()
                    .map(|s| {
                        s.into_inner()
                            .expect("boundary slot poisoned")
                            .expect("every boundary evaluated")
                    })
                    .collect()
            };
            timed
                .into_iter()
                .map(|(values, [data, forecast, metrics])| {
                    spans.add("data", data);
                    spans.add("stat.forecast", forecast);
                    infer_time += forecast;
                    spans.add("metrics", metrics);
                    values
                })
                .collect()
        }
    };
    // Ordered reduction, exactly as `evaluate` sums and averages.
    let mut sums = vec![0.0; METRICS.len()];
    let mut evaluated = 0usize;
    for values in per_boundary.into_iter().flatten() {
        for (acc, v) in sums.iter_mut().zip(&values) {
            *acc += v;
        }
        evaluated += 1;
    }
    if evaluated == 0 {
        return Err(format!("{}: no usable windows", cell.key()));
    }
    let outcome = EvalOutcome {
        method: method.name().to_string(),
        dataset: series.name.clone(),
        horizon: f,
        lookback: l,
        metrics: METRICS
            .iter()
            .zip(&sums)
            .map(|(m, s)| (m.label().to_string(), s / evaluated as f64))
            .collect(),
        n_windows: evaluated,
        train_time,
        infer_time: infer_time / evaluated as u32,
        parameters: method.parameter_count(),
    };
    Ok((outcome, alloc))
}

/// Times `f` `reps` times and returns the median in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// A regression design of the given shape filled from `rng`.
fn design(rows: usize, cols: usize, rng: &mut StdRng) -> (Matrix, Vec<f64>) {
    let x = Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-0.5..0.5)).collect(),
    )
    .expect("shape matches data");
    let y = (0..rows).map(|_| rng.gen_range(0.0..1.0)).collect();
    (x, y)
}

/// The traced run: one set-up with spans, the per-channel characteristic
/// split, kernel probes, then the decomposed replay of every cell, which
/// must reproduce the golden metrics bit for bit. With `reference`, an
/// untraced pass runs first: the replay must also match its `evaluate`
/// outcomes, and the return value is the tracing overhead in percent.
pub fn trace(
    seed: u64,
    reference: bool,
    work: &Path,
    layers: &mut Layers,
    tally: &mut Tally,
) -> f64 {
    let golden = Golden::parse(GOLDEN);
    let mut spans = Spans::default();
    let data = setup(Some(&mut spans));
    let mut channels = 0usize;
    for d in &data {
        if let Err(e) = golden.check_chars(d) {
            tally.fail(e);
        }
        let period = d.series.frequency.default_period();
        let hint = (period >= 2).then_some(period);
        for c in 0..d.series.dim() {
            let ch = d.series.channel(c);
            channels += 1;
            use tfb_characteristics as tc;
            std::hint::black_box(spans.time("char.adf", || tc::adf_pvalue(&ch)));
            std::hint::black_box(spans.time("char.strength", || {
                (
                    tc::trend_strength(&ch, hint),
                    tc::seasonality_strength(&ch, hint),
                )
            }));
            std::hint::black_box(spans.time("char.shifting", || tc::shifting_value(&ch)));
            std::hint::black_box(spans.time("char.transition", || tc::transition_value(&ch)));
        }
    }
    let per_channel_ms = |name| spans.total(name).as_secs_f64() * 1e3 / channels as f64;
    layers.set("datagen.busy_s", spans.total("datagen").as_secs_f64());
    layers.set(
        "characteristics.busy_s",
        spans.total("characteristics").as_secs_f64(),
    );
    layers.set("characteristics.channels", channels as f64);
    layers.set("characteristics.adf_ms", per_channel_ms("char.adf"));
    layers.set(
        "characteristics.strength_ms",
        per_channel_ms("char.strength"),
    );
    layers.set(
        "characteristics.shifting_ms",
        per_channel_ms("char.shifting"),
    );
    layers.set(
        "characteristics.transition_ms",
        per_channel_ms("char.transition"),
    );

    // Kernel probes at the shapes the pipeline calls them with: ADF's
    // design on a 3000-point channel (2987 × 13), ARIMA's two OLS stages
    // on ILI's 772-point history (766 × 6 and 770 × 4), and a deep
    // training product (batch 32 × look-back 96 into horizon 96).
    let mut rng = StdRng::seed_from_u64(seed);
    let (adf_x, adf_y) = design(2987, 13, &mut rng);
    layers.set(
        "math.ols_adf_ms",
        median_ms(5, || {
            std::hint::black_box(tfb_math::regression::ols(&adf_x, &adf_y, true).ok());
        }),
    );
    let (s1x, s1y) = design(766, 6, &mut rng);
    let (s2x, s2y) = design(770, 4, &mut rng);
    layers.set(
        "math.ols_arima_ms",
        median_ms(5, || {
            std::hint::black_box(tfb_math::regression::ols(&s1x, &s1y, true).ok());
            std::hint::black_box(tfb_math::regression::ols(&s2x, &s2y, true).ok());
        }),
    );
    let (rows, depth, cols, reps) = (32usize, 96usize, 96usize, 400usize);
    let lhs: Vec<f64> = (0..rows * depth).map(|_| rng.gen_range(0.0..1.0)).collect();
    let rhs: Vec<f64> = (0..depth * cols).map(|_| rng.gen_range(0.0..1.0)).collect();
    let mut out = vec![0.0; rows * cols];
    let gemm_ms = median_ms(5, || {
        for _ in 0..reps {
            out.iter_mut().for_each(|v| *v = 0.0);
            tfb_math::matrix::par_gemm(&lhs, rows, depth, &rhs, cols, &mut out);
            std::hint::black_box(&out);
        }
    });
    layers.set(
        "math.gemm_gflops",
        (2 * rows * depth * cols * reps) as f64 / (gemm_ms * 1e-3) / 1e9,
    );

    let grid = cells();
    let order = seeded_order(&grid, seed);
    let reference = reference.then(|| pass(&grid, &order, Some(&golden), work, tally));
    let by_cell: BTreeMap<usize, &EvalOutcome> = reference
        .iter()
        .flat_map(|p| p.outcomes.iter().map(|(i, o)| (*i, o)))
        .collect();
    // The replay is a recorded run too, so that it and the reference
    // pass differ only by the benchmark's own spans.
    let t0 = Instant::now();
    if let Err(e) = arm(work) {
        tally.fail(e);
    }
    let mut windows = 0usize;
    let (mut ml_windows, mut nn_windows, mut nn_alloc, mut deep_cells) =
        (0usize, 0usize, 0u64, 0usize);
    let mut replayed = Vec::with_capacity(grid.len());
    for &i in &order {
        let cell = &grid[i];
        let d = data
            .iter()
            .find(|d| d.profile.name == cell.dataset)
            .expect("every cell's dataset is set up");
        spans.enter("cell");
        let result = replay(cell, d, &mut spans);
        spans.exit();
        let checked = result.and_then(|(outcome, alloc)| {
            golden.check_cell(cell, &outcome)?;
            match by_cell.get(&i) {
                Some(o)
                    if o.n_windows != outcome.n_windows
                        || !same_bits(&metric_values(o), &metric_values(&outcome)) =>
                {
                    Err(format!("{}: replay differs from evaluate", cell.key()))
                }
                None if !by_cell.is_empty() => Err(format!("{}: evaluate failed", cell.key())),
                _ => Ok((outcome, alloc)),
            }
        });
        if let Some((outcome, alloc)) = tally.record(checked) {
            let n = outcome.n_windows;
            windows += n;
            if cell.is_deep() {
                nn_windows += n;
                nn_alloc += alloc;
                deep_cells += 1;
            } else if tfb_core::method::ML_METHODS.contains(&cell.method) {
                ml_windows += n;
            }
            replayed.push(outcome);
        }
    }
    if let Err(e) = spans.time("report", || report(&replayed, grid.len())) {
        tally.fail(e);
    }
    std::hint::black_box(tfb_obs::finish_run(&[]));
    let traced = t0.elapsed().as_secs_f64();
    eprintln!("{}", spans.render());

    let s = |name| spans.total(name).as_secs_f64();
    let per_window_us = |name, n: usize| s(name) * 1e6 / n.max(1) as f64;
    layers.set("data.busy_s", s("data"));
    layers.set("models.stat_forecast_s", s("stat.forecast"));
    layers.set("models.stat_calls", spans.calls("stat.forecast") as f64);
    layers.set("models.window_train_s", s("ml.train"));
    layers.set(
        "models.window_infer_us_per_window",
        per_window_us("ml.infer", ml_windows),
    );
    layers.set("nn.train_s", s("nn.train"));
    layers.set("nn.epochs", (train_config().epochs * deep_cells) as f64);
    layers.set(
        "nn.infer_us_per_window",
        per_window_us("nn.infer", nn_windows),
    );
    layers.set(
        "nn.infer_alloc_bytes_per_window",
        nn_alloc as f64 / nn_windows.max(1) as f64,
    );
    layers.set("metrics.busy_s", s("metrics"));
    layers.set("report.busy_s", s("report"));
    layers.set("eval.cells", replayed.len() as f64);
    layers.set("eval.windows", windows as f64);
    reference.map_or(f64::NAN, |r| {
        let untraced = r.wall.as_secs_f64();
        100.0 * (traced - untraced) / untraced
    })
}
