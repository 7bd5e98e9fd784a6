//! Extending the benchmark: plug a *user-defined* forecaster and a custom
//! metric into the pipeline (the method layer's "Universal Interface"), and
//! render the forecasts with the reporting layer's SVG module.
//!
//! Run with `cargo run --example extend_tfb --release`.

use tfb::core::eval::{evaluate, EvalSettings};
use tfb::core::method::Method;
use tfb::core::viz::forecast_chart;
use tfb::core::Metric;
use tfb::data::MultiSeries;
use tfb::datagen::Scale;
use tfb::models::{ModelError, StatForecaster};

/// A toy user method: damped mean-reversion towards the recent average.
/// Implementing one trait is the entire integration surface.
struct MeanReversion {
    window: usize,
    rate: f64,
}

impl StatForecaster for MeanReversion {
    fn name(&self) -> &'static str {
        "MeanReversion"
    }

    fn forecast(&self, history: &MultiSeries, horizon: usize) -> Result<Vec<f64>, ModelError> {
        let n = history.len();
        if n < self.window {
            return Err(ModelError::InsufficientData("window longer than history"));
        }
        let dim = history.dim();
        let mut out = Vec::with_capacity(horizon * dim);
        for h in 1..=horizon {
            for c in 0..dim {
                let recent: Vec<f64> = (n - self.window..n).map(|t| history.at(t, c)).collect();
                let mean = recent.iter().sum::<f64>() / self.window as f64;
                let last = history.at(n - 1, c);
                let decay = (1.0 - self.rate).powi(h as i32);
                out.push(mean + (last - mean) * decay);
            }
        }
        Ok(out)
    }
}

/// A custom metric: fraction of steps where the forecast got the *direction*
/// of change wrong (a trading-style measure none of the eight built-ins
/// capture).
fn direction_error(forecast: &[f64], actual: &[f64]) -> f64 {
    let wrong = forecast
        .windows(2)
        .zip(actual.windows(2))
        .filter(|(f, a)| (f[1] - f[0]).signum() != (a[1] - a[0]).signum())
        .count();
    wrong as f64 / forecast.len().saturating_sub(1).max(1) as f64
}

fn main() {
    let dataset = tfb::core::data::load("Exchange", Scale::DEFAULT).expect("in registry");
    let mut settings = EvalSettings::rolling(36, 24, dataset.profile.split);
    settings.max_windows = 30;
    settings.custom_metrics = vec![("direction_error", direction_error)];

    println!("custom method + custom metric through the standard pipeline:\n");
    println!("| method | mae | direction_error |");
    println!("|---|---|---|");
    let mut to_plot: Vec<(&str, Vec<f64>)> = Vec::new();
    let history: Vec<f64> =
        dataset.series.channel(0)[dataset.series.len() - 120..dataset.series.len() - 24].to_vec();
    for (name, mut method) in [
        (
            "MeanReversion",
            Method::Stat(Box::new(MeanReversion {
                window: 20,
                rate: 0.1,
            })),
        ),
        (
            "Naive",
            tfb::core::build_method("Naive", 36, 24, dataset.series.dim(), None).unwrap(),
        ),
        (
            "Theta",
            tfb::core::build_method("Theta", 36, 24, dataset.series.dim(), None).unwrap(),
        ),
    ] {
        let out = evaluate(&mut method, &dataset.series, &settings).expect("evaluation runs");
        println!(
            "| {name} | {:.4} | {:.3} |",
            out.metric(Metric::Mae),
            out.metrics["direction_error"]
        );
        // Forecast the plotted tail for the SVG.
        let tail = dataset.series.slice_rows(0..dataset.series.len() - 24);
        if let Method::Stat(m) = &method {
            if let Ok(f) = m.forecast(&tail, 24) {
                let ch0: Vec<f64> = f.iter().step_by(dataset.series.dim()).copied().collect();
                to_plot.push((name, ch0));
            }
        }
    }
    let (chart, series) = forecast_chart(
        "Exchange, channel 0: last 96 points + forecasts",
        &history,
        &to_plot,
    );
    let path = std::path::Path::new("target/tfb-results/extend_tfb.svg");
    chart.write(&series, path).expect("svg written");
    println!("\nwrote {}", path.display());
}
