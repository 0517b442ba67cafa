//! Small sampling helpers on top of `rand`.
//!
//! The generators need a handful of non-uniform distributions (Zipf-like
//! popularity, log-normal view counts, Gaussian noise). To keep the
//! dependency footprint to the approved crate list we implement them here
//! directly rather than pulling in `rand_distr`.

use rand::Rng;

/// A standard-normal sample via the Box–Muller transform.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A normal sample with the given mean and standard deviation.
pub fn normal_with<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * normal(rng)
}

/// A log-normal sample: `exp(mu + sigma * N(0,1))`.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * normal(rng)).exp()
}

/// A heavy-tailed sample in `(0, 1]`: `u^shape` for `shape >= 1` pushes
/// mass toward zero, leaving a thin tail of large values — the Zipf-like
/// popularity profile of real query logs and click-through rates.
pub fn heavy_tail01<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    let u: f64 = rng.random::<f64>().max(1e-12);
    u.powf(shape)
}

/// An integer Zipf rank sampler over `[0, n)` with exponent `s`:
/// `P(k) ∝ 1/(k+1)^s`. Uses a precomputed cumulative table.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Draw a rank in `[0, n)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite cdf"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Never true: the constructor rejects `n == 0`.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// Choose one element of `items` uniformly. Panics on an empty slice.
pub fn choose<'a, T, R: Rng + ?Sized>(rng: &mut R, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

/// Bernoulli draw.
pub fn flip<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.random::<f64>() < p
}

/// Binomial sample via normal approximation for large `n`, exact
/// Bernoulli summation for small `n`. Good enough for click counts.
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let np = n as f64 * p;
    if n > 200 && np > 10.0 && (n as f64) * (1.0 - p) > 10.0 {
        let sd = (np * (1.0 - p)).sqrt();
        let x = normal_with(rng, np, sd).round();
        return x.clamp(0.0, n as f64) as u64;
    }
    (0..n).filter(|_| flip(rng, p)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_roughly_standard() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn heavy_tail_bounded() {
        let mut r = rng();
        for _ in 0..1000 {
            let x = heavy_tail01(&mut r, 3.0);
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn heavy_tail_is_skewed() {
        let mut r = rng();
        let n = 10_000;
        let mean = (0..n).map(|_| heavy_tail01(&mut r, 4.0)).sum::<f64>() / n as f64;
        // E[u^4] = 1/5.
        assert!((mean - 0.2).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut r = rng();
        let z = ZipfSampler::new(100, 1.1);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn zipf_covers_range() {
        let mut r = rng();
        let z = ZipfSampler::new(5, 0.8);
        for _ in 0..1000 {
            assert!(z.sample(&mut r) < 5);
        }
    }

    #[test]
    fn binomial_matches_expectation() {
        let mut r = rng();
        // Large-n path.
        let x = binomial(&mut r, 100_000, 0.3);
        assert!((x as f64 - 30_000.0).abs() < 1_000.0);
        // Small-n path.
        let total: u64 = (0..2000).map(|_| binomial(&mut r, 10, 0.5)).sum();
        assert!((total as f64 / 2000.0 - 5.0).abs() < 0.2);
    }

    #[test]
    fn binomial_edges() {
        let mut r = rng();
        assert_eq!(binomial(&mut r, 0, 0.5), 0);
        assert_eq!(binomial(&mut r, 10, 0.0), 0);
        assert_eq!(binomial(&mut r, 10, 1.0), 10);
    }

    #[test]
    fn log_normal_positive() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(log_normal(&mut r, 3.0, 1.0) > 0.0);
        }
    }
}
