//! `tfb-obs` — the observability substrate of the TFB reproduction.
//!
//! A benchmark's claim to fairness is only as strong as its recorded
//! provenance: this crate captures *what actually happened* during a run
//! — per-phase wall time, window counts, kernel call counts, cache
//! hits, peak RSS — and writes it next to the report as a JSONL event
//! log plus an end-of-run **manifest**.
//!
//! Three primitives, all thread-safe and all std-only:
//!
//! * **Spans** — RAII phase timers with nesting and field inheritance:
//!   ```
//!   let _eval = tfb_obs::span!("eval", dataset = "ILI", method = "LR");
//!   {
//!       // Inherits dataset/method from the enclosing span; aggregates
//!       // under the path "eval.train".
//!       let _train = tfb_obs::span!("train");
//!   }
//!   ```
//! * **Typed metrics** — monotonic [`Counter`]s, last-value [`Gauge`]s and
//!   bounded-reservoir [`Histogram`]s declared at the call site:
//!   ```
//!   tfb_obs::counter!("gemm/calls").add(1);
//!   tfb_obs::histogram!("nn/epoch_val_loss").record(0.25);
//!   ```
//! * **Runs** — [`start_run`] arms recording (optionally with a JSONL
//!   event sink); [`finish_run`] disarms it and returns a [`Manifest`]
//!   with the sorted per-(phase, dataset, method) timing breakdown.
//!
//! # Overhead
//!
//! Outside a run every primitive is one relaxed atomic load and a
//! predictable branch. Compiled without the `record` feature (the
//! default is on) the whole API is a set of empty `#[inline]` functions
//! and zero-sized types — the disabled build is provably zero-cost, and
//! enabling instrumentation never changes a forecast: the probes only
//! read clocks and bump counters, so metrics stay bit-identical.

pub mod flight;
pub mod manifest;
pub mod openmetrics;
pub mod quality;
pub mod trace;

#[cfg(feature = "history")]
pub mod export;
#[cfg(feature = "history")]
pub mod history;

#[cfg(feature = "record")]
mod record;
#[cfg(feature = "record")]
#[doc(hidden)]
pub use record::test_support;
#[cfg(feature = "record")]
pub use record::{
    enabled, finish_run, health_event, metrics_snapshot, record_grad_norm, report_metric,
    reset_histogram, start_run, steal_event, Counter, Gauge, Histogram, RunOptions, Span,
    RESERVOIR_CAP,
};

#[cfg(not(feature = "record"))]
mod noop;
#[cfg(not(feature = "record"))]
pub use noop::{
    enabled, finish_run, health_event, metrics_snapshot, record_grad_norm, report_metric,
    reset_histogram, start_run, steal_event, Counter, Gauge, Histogram, RunOptions, Span,
};

pub use manifest::{
    FlightSummary, HealthKind, HealthSummary, HistSummary, Manifest, MeasurementRow, MetricRow,
    MetricsSnapshot, PhaseRow, QualityDriftTrip, QualityScore, QualitySloSummary, QualitySummary,
    SloSummary, TraceExemplar,
};

/// Opens a span named `$name`, optionally attaching `key = value` fields.
///
/// The returned guard records the elapsed wall time into the global
/// aggregates (and the event sink, when one is installed) on drop. The
/// `dataset` and `method` field names are special: they key the manifest's
/// per-cell timing breakdown and are inherited by nested spans.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::Span::enter($name)$(.with(stringify!($key), &$value))+
    };
}

/// A process-wide monotonic counter, declared in place:
/// `tfb_obs::counter!("gemm/calls").add(1)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __TFB_OBS_COUNTER: $crate::Counter = $crate::Counter::new($name);
        &__TFB_OBS_COUNTER
    }};
}

/// A process-wide last-value gauge, declared in place:
/// `tfb_obs::gauge!("engine/threads").set(8.0)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __TFB_OBS_GAUGE: $crate::Gauge = $crate::Gauge::new($name);
        &__TFB_OBS_GAUGE
    }};
}

/// A process-wide bounded-reservoir histogram, declared in place:
/// `tfb_obs::histogram!("nn/epoch_val_loss").record(loss)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __TFB_OBS_HISTOGRAM: $crate::Histogram = $crate::Histogram::new($name);
        &__TFB_OBS_HISTOGRAM
    }};
}

/// FNV-1a hash of `bytes`, hex-encoded — the manifest's config fingerprint.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}

/// Best-effort current git revision: walks up from the working directory
/// to the nearest `.git` and resolves `HEAD` (no subprocess).
pub fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return resolve_head(&git);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn resolve_head(git: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
            return Some(hash.trim().to_string());
        }
        // The ref may only exist in packed-refs.
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some(hash) = line.strip_suffix(reference) {
                return Some(hash.trim().to_string());
            }
        }
        return None;
    }
    Some(head.to_string())
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` off Linux or when the file is unreadable.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_distinguishes() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_ne!(fnv1a_hex(b"a"), fnv1a_hex(b"b"));
        assert_eq!(fnv1a_hex(b"config"), fnv1a_hex(b"config"));
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM on linux");
            assert!(rss > 64 * 1024, "peak RSS {rss} implausibly small");
        }
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        // The workspace is a git repo; the rev should look like a hash.
        if let Some(rev) = git_rev() {
            assert!(rev.len() >= 7, "{rev}");
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev}");
        }
    }
}
