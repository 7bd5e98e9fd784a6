//! Sample statistics, seeded sampling and failure accounting shared by
//! every workload.

use rand::rngs::StdRng;
use rand::Rng as _;

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it.
/// `NaN` for an empty slice. The repository's own implementation.
pub use tfb_obs::manifest::percentile;

/// Sorts `samples` ascending (NaN-free input assumed) and returns them.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Latency percentiles of one sample set, with the sample count they
/// rest on.
#[derive(Debug, Clone, Copy)]
pub struct Percentiles {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Percentiles {
    pub fn of(samples: Vec<f64>) -> Percentiles {
        let s = sorted(samples);
        Percentiles {
            n: s.len(),
            p50: percentile(&s, 50.0),
            p90: percentile(&s, 90.0),
            p99: percentile(&s, 99.0),
        }
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Zipf popularity over `n` ranks: rank `i` is drawn with probability
/// proportional to `1 / (i + 1)^alpha`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Zipf {
        let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The rank a uniform draw `u` in [0, 1) falls on.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        self.rank(rng.gen_range(0.0..1.0))
    }
}

/// Whether `name` is a legal metric name: it starts with a letter or a
/// digit and holds at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operations attempted and failed. An operation is a study cell or a
/// request; a wrong output, a refusal, a server error and an IO error all
/// count as failures.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the error report.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    /// Records `Ok` as a success and `Err` as a failure.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(v) => {
                self.ok();
                Some(v)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Bitwise equality of two float slices (NaN payloads and signed zeros
/// included): the benchmark's outputs must be reproduced exactly.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn nearest_rank_percentile_and_count() {
        let p = Percentiles::of((1..=10).rev().map(f64::from).collect());
        assert_eq!(p.n, 10);
        assert_eq!(p.p50, 5.0);
        assert_eq!(p.p90, 9.0);
        assert_eq!(p.p99, 10.0);
        let s = [7.0];
        assert_eq!(percentile(&s, 0.0), 7.0);
        assert_eq!(percentile(&s, 100.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        // 100 samples: p90 is the 90th smallest, with ten samples above it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let z = Zipf::new(6, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let picks = draw(7);
        let count = |r| picks.iter().filter(|&&p| p == r).count();
        assert!(count(0) > count(1) && count(1) > count(5));
        assert!(picks.iter().all(|&p| p < 6));
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999), 5);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut StdRng::seed_from_u64(3), &mut a);
        shuffle(&mut StdRng::seed_from_u64(3), &mut b);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "latency_p50_us",
            "fleet.hit_rate",
            "a-b.c_9",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn failures_raise_the_error_rate() {
        let mut t = Tally::default();
        t.ok();
        t.ok();
        assert_eq!(t.error_rate(), 0.0);
        t.fail("wrong forecast");
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!((t.error_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.record::<()>(Err("429".into())), None);
        assert_eq!(t.failed, 2);
    }

    #[test]
    fn same_bits_is_exact() {
        assert!(same_bits(&[1.0, -0.0], &[1.0, -0.0]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[f64::from_bits(1.0f64.to_bits() + 1)]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
    }
}
