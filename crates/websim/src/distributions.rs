//! Heavy-tailed samplers used by the corpus generator.
//!
//! Web measurements are dominated by heavy tails: a handful of third-party
//! services appear on most pages while thousands appear on a few; request
//! counts per resource follow similar skew. We implement the samplers we
//! need directly on top of `rand` (Zipf via rejection-inversion would be
//! overkill at our sizes, so we precompute the CDF; log-normal via
//! Box–Muller) rather than adding a `rand_distr` dependency.

use rand::Rng;

/// A Zipf-like discrete distribution over ranks `0..n` with exponent `s`.
///
/// Rank 0 is the most popular. Sampling is by binary search over the
/// precomputed cumulative weights, O(log n) per draw.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Create a Zipf distribution over `n` ranks with exponent `s`
    /// (`s ≈ 1.0` matches classic web popularity curves).
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf distribution needs at least one rank");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank as f64 + 1.0).powf(s));
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Draw a rank in `0..n` (0 = most popular).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.gen_range(0.0..total);
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Log-normal sampler via Box–Muller; used for per-resource request volumes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create a log-normal distribution with the given parameters of the
    /// underlying normal.
    pub(crate) fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        LogNormal { mu, sigma }
    }

    /// Draw a sample.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller transform.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }

    /// Draw a sample rounded up to an integer count, clamped to `[min, max]`.
    pub(crate) fn sample_count<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        min: usize,
        max: usize,
    ) -> usize {
        let v = self.sample(rng).ceil() as usize;
        v.clamp(min, max)
    }
}

/// Weighted choice over a small fixed set of alternatives.
#[derive(Debug, Clone)]
pub(crate) struct WeightedChoice {
    cumulative: Vec<f64>,
}

impl WeightedChoice {
    /// Build from non-negative weights. At least one weight must be positive.
    pub(crate) fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        assert!(
            weights.iter().all(|w| *w >= 0.0 && w.is_finite()),
            "weights must be finite and non-negative"
        );
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for w in weights {
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "at least one weight must be positive");
        WeightedChoice { cumulative }
    }

    /// Draw an index into the original weight slice.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.gen_range(0.0..total);
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Bernoulli helper: `true` with probability `p` (clamped to [0, 1]).
pub(crate) fn coin<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    let p = p.clamp(0.0, 1.0);
    rng.gen_range(0.0..1.0) < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn lognormal_counts_respect_bounds() {
        let d = LogNormal::new(1.0, 1.5);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let c = d.sample_count(&mut rng, 1, 40);
            assert!((1..=40).contains(&c));
        }
    }

    #[test]
    fn lognormal_mean_roughly_matches() {
        // mean of lognormal = exp(mu + sigma^2/2)
        let d = LogNormal::new(0.5, 0.4);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum / n as f64;
        let expected = (0.5f64 + 0.4f64 * 0.4 / 2.0).exp();
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let w = WeightedChoice::new(&[8.0, 1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[w.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 6500 && counts[0] < 9500, "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_choice_rejects_all_zero() {
        let _ = WeightedChoice::new(&[0.0, 0.0]);
    }

    #[test]
    fn coin_is_deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(coin(&mut a, 0.3), coin(&mut b, 0.3));
        }
    }
}
