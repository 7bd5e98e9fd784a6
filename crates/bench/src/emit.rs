//! The rebar-style `*.bench.json` rendering of a suite's measurements.
//!
//! The schema is a top-level `benchmarks` array of `{name, value, unit}`
//! objects; `tfb bench run` writes one file per suite next to its
//! manifest (see [`crate::measure::to_bench_entries`]).

use std::path::Path;
use tfb_json::JsonValue;

/// One benchmark entry: a named scalar with a unit.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Slash-separated entry name, e.g. `engine/LR/batched_infer`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label (`ns`, `us/window`, `req/s`, `x`, `count`, …).
    pub unit: String,
}

/// Builds the rebar-style document: `{"benchmarks": [{name, value, unit}…]}`.
pub fn bench_doc(entries: &[BenchEntry]) -> JsonValue {
    JsonValue::Object(vec![(
        "benchmarks".into(),
        JsonValue::Array(
            entries
                .iter()
                .map(|e| {
                    JsonValue::Object(vec![
                        ("name".into(), JsonValue::from(e.name.as_str())),
                        ("value".into(), JsonValue::Number(e.value)),
                        ("unit".into(), JsonValue::from(e.unit.as_str())),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Writes the entries to `path` (pretty JSON + trailing newline).
pub fn write_bench_json(path: &Path, entries: &[BenchEntry]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, bench_doc(entries).pretty() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, value: f64, unit: &str) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }

    #[test]
    fn write_round_trips_the_rebar_schema() {
        let path = std::env::temp_dir().join(format!("tfb_emit_{}.json", std::process::id()));
        let entries = [
            entry("math/kernels/dot-64/speedup", 2.5, "x"),
            entry("math/kernels/dot-64/scalar", 21.5, "ns"),
        ];
        write_bench_json(&path, &entries).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let _ = std::fs::remove_file(&path);
        assert!(text.ends_with('\n'));
        let parsed = JsonValue::parse(&text).expect("valid JSON");
        let benchmarks = parsed.get("benchmarks").unwrap().as_array().unwrap();
        assert_eq!(benchmarks.len(), 2);
        assert_eq!(
            benchmarks[0].get("name").unwrap().as_str(),
            Some("math/kernels/dot-64/speedup")
        );
        assert_eq!(benchmarks[1].get("unit").unwrap().as_str(), Some("ns"));
        assert_eq!(benchmarks[1].get("value").unwrap().as_f64(), Some(21.5));
    }
}
