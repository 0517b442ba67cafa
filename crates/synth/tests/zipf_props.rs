//! Property tests for [`ZipfSampler`], the head-heavy popularity
//! profile behind the generated corpora, query logs and click streams.
//!
//! Two distributional laws, checked statistically over random `(n, s,
//! seed)` triples: empirical counts are (tolerantly) monotone
//! non-increasing in rank for any positive exponent, and exponent 0
//! degenerates to the uniform distribution. Tolerances are ~5 standard
//! deviations of the relevant binomial counts so a correct sampler
//! fails with negligible probability while a rank-inverted or
//! mass-concentrating bug fails immediately.

use ctxrank_synth::ZipfSampler;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `draws` samples from a fresh sampler over a fresh seeded RNG.
fn draw(n: usize, s: f64, seed: u64, draws: usize) -> Vec<usize> {
    let sampler = ZipfSampler::new(n, s);
    assert_eq!(sampler.len(), n);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..draws).map(|_| sampler.sample(&mut rng)).collect()
}

/// Empirical histogram of `draws` samples from a fresh sampler.
fn histogram(n: usize, s: f64, seed: u64, draws: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n];
    for i in draw(n, s, seed, draws) {
        assert!(i < n, "index {i} out of range {n}");
        counts[i] += 1;
    }
    counts
}

proptest! {
    /// For any positive exponent, P(rank k) strictly decreases in k, so
    /// empirical counts must be non-increasing up to sampling noise:
    /// allow ~5 sigma of the larger neighbour's binomial count.
    #[test]
    fn counts_monotone_in_rank(
        n in 2usize..48,
        s in 0.2f64..2.5,
        seed in any::<u64>(),
    ) {
        let draws = 30_000;
        let counts = histogram(n, s, seed, draws);
        for k in 0..n - 1 {
            let slack = 5.0 * ((counts[k].max(counts[k + 1]) as f64) + 25.0).sqrt();
            prop_assert!(
                counts[k] as f64 >= counts[k + 1] as f64 - slack,
                "rank {k} ({}) < rank {} ({}) beyond {slack:.0} slack (n={n}, s={s})",
                counts[k], k + 1, counts[k + 1]
            );
        }
    }

    /// Exponent 0 makes every rank weight 1/n: each empirical count
    /// stays within ~5 sigma of draws/n.
    #[test]
    fn zero_exponent_is_uniform(
        n in 2usize..32,
        seed in any::<u64>(),
    ) {
        let draws = 50_000;
        let counts = histogram(n, 0.0, seed, draws);
        let mean = draws as f64 / n as f64;
        let sigma = (mean * (1.0 - 1.0 / n as f64)).sqrt();
        for (k, &c) in counts.iter().enumerate() {
            prop_assert!(
                (c as f64 - mean).abs() <= 5.0 * sigma,
                "rank {k} count {c} deviates from uniform mean {mean:.1} (sigma {sigma:.1}, n={n})"
            );
        }
    }

    /// Same seed, same stream — sampling is reproducible; and the first
    /// rank of a skewed sampler is drawn often (the head-heaviness the
    /// generators rely on).
    #[test]
    fn deterministic_and_head_heavy(seed in any::<u64>()) {
        let a = draw(64, 1.2, seed, 512);
        let b = draw(64, 1.2, seed, 512);
        prop_assert_eq!(&a, &b);
        let head = a.iter().filter(|&&i| i == 0).count();
        // Rank 0 carries ~21% of the mass at s=1.2, n=64; 512 draws
        // put ~107 there with sigma ~9 — 40 is ~7 sigma below.
        prop_assert!(head >= 40, "head rank drawn only {head}/512 times");
    }
}
