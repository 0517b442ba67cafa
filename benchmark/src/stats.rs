//! The benchmark's own arithmetic: seeded draws, percentiles, the
//! window median/spread rule, FNV-1a and the Prometheus-text parser.
//!
//! None of this calls product code, so a later PR that changes the
//! product's RNG, histogram or hash cannot move the instrument.

use std::collections::BTreeMap;

/// SplitMix64: the only random source of the benchmark. `--seed` enters
/// here and nowhere else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; distinct lanes get unrelated streams.
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of an ascending slice; `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank `ceil(q·n)`, in integer arithmetic on
/// per-mille so `0.95 × 200` is exactly 190.
fn nearest_rank(n: usize, q: f64) -> usize {
    let per_mille = (q * 1000.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// The tail percentile a sample of `n` supports: the highest of
/// p99 / p95 / p90 that leaves at least ten samples beyond it, or the
/// median when none does.
pub fn tail_quantile(n: usize) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|&q| n >= 1 && n - nearest_rank(n, q) >= 10)
        .unwrap_or(0.5)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values.to_vec());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median: how far the windows of one run (or the runs of one study)
/// disagree. Quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them, which is what the driver computes over ten runs.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 || values.len() < 2 {
        return 0.0;
    }
    let v = sorted(values.to_vec());
    let quartile = |i: usize| {
        let j = (i * (v.len() + 1) / 4).clamp(1, v.len() - 1);
        // Negative when the clamp moved `j` up: Python extrapolates too.
        let delta = (i * (v.len() + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / m
}

/// 64-bit FNV-1a, continued from `state` (start from [`FNV_OFFSET`]).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// One scrape of a Prometheus text page: every sample line
/// `name{labels} value`, keyed by the text before the value. Samples
/// that differ only in labels are also summed under the bare name, so
/// `get("x_count")` works for both labelled and unlabelled series.
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Self {
        let mut map: BTreeMap<String, f64> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let key = key.trim();
            if let Some((bare, _labels)) = key.split_once('{') {
                // Histogram buckets are cumulative; summing them over
                // `le` would be meaningless, so only exact keys keep them.
                if !bare.ends_with("_bucket") {
                    *map.entry(bare.to_string()).or_insert(0.0) += value;
                }
            }
            map.insert(key.to_string(), value);
        }
        Scrape(map)
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Sample-wise sum (several servers scraped at the same instant).
    pub fn plus(mut self, other: &Scrape) -> Scrape {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
        self
    }

    /// `after − self`, for counters.
    pub fn delta(&self, after: &Scrape, key: &str) -> f64 {
        after.get(key) - self.get(key)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 240 paced publishes: p95 leaves 12 beyond, p99 only 2.
        assert_eq!(tail_quantile(240), 0.95);
        // Exactly ten beyond still counts.
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.90);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 0.99), 198.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([9, 10, 11], n=4) == [9.0, 10.0, 11.0]
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert!((spread(&[11.0, 1.0, 4.0, 2.0, 7.0]) - 7.5 / 4.0).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert!((spread(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn draws_repeat_for_a_seed_and_differ_across_seeds_and_lanes() {
        let draw = |seed, lane| {
            let mut rng = Rng::new(seed, lane);
            let zipf = Zipf::new(16_384, 1.1);
            (0..64).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(1, 0);
        let draws: Vec<usize> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let head = draws.iter().filter(|&&r| r < 10).count();
        let tail = draws.iter().filter(|&&r| r >= 990).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn scrape_parses_counters_labels_and_deltas() {
        let before = Scrape::parse(
            "# HELP x_total things\n# TYPE x_total counter\nx_total 10\n\
             req_total{endpoint=\"rank\"} 4\nreq_total{endpoint=\"other\"} 1\n\
             wait_seconds_bucket{le=\"0.001\"} 3\nwait_seconds_bucket{le=\"+Inf\"} 5\n\
             wait_seconds_sum 0.0125\nwait_seconds_count 5\nnot a number\n",
        );
        let after = Scrape::parse(
            "x_total 25\nreq_total{endpoint=\"rank\"} 9\nreq_total{endpoint=\"other\"} 1\n\
             wait_seconds_sum 0.0325\nwait_seconds_count 15\n",
        );
        assert_eq!(before.get("x_total"), 10.0);
        assert_eq!(before.get("req_total{endpoint=\"rank\"}"), 4.0);
        assert_eq!(
            before.get("req_total"),
            5.0,
            "labels sum under the bare name"
        );
        assert_eq!(before.get("wait_seconds_bucket"), 0.0, "buckets never sum");
        assert_eq!(before.get("wait_seconds_bucket{le=\"+Inf\"}"), 5.0);
        assert_eq!(before.get("missing"), 0.0);
        assert_eq!(before.delta(&after, "x_total"), 15.0);
        assert_eq!(before.delta(&after, "req_total"), 5.0);
        let mean_wait = ratio(
            before.delta(&after, "wait_seconds_sum"),
            before.delta(&after, "wait_seconds_count"),
        );
        assert!((mean_wait - 0.002).abs() < 1e-12);
        let both = before.clone().plus(&before);
        assert_eq!(both.get("x_total"), 20.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
