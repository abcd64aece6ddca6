//! Key distributions used in the paper's evaluation (Section 4.4).
//!
//! The simulation study uses a uniform distribution (`U`), Pareto
//! distributions with shape `k = 0.5 / 1.0 / 1.5` (`P0.5`, `P1.0`, `P1.5`),
//! a normal distribution with mean `1/2` and standard deviation `0.05` (`N`)
//! and real keys from the Alvis text-retrieval project (`A`).  The Alvis
//! collection is not publicly available, so the `A` workload is substituted
//! by a synthetic text corpus whose term keys follow a Zipfian vocabulary
//! mapped order-preservingly into the key space (see [`crate::corpus`]); the
//! only property the experiments rely on is a realistic, clustered, skewed
//! key distribution.
//!
//! All samplers are implemented from first principles (inverse-CDF or
//! Box–Muller) so that the crate only depends on `rand`'s uniform source.

use pgrid_core::key::Key;
use rand::Rng;
use std::fmt;

/// The key distributions of the paper's Figure 6, plus a custom variant.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Distribution {
    /// Uniform keys over `[0, 1)` (the `U` workload).
    Uniform,
    /// Pareto-distributed keys with the given shape parameter, folded into
    /// `[0, 1)` (the `P0.5`, `P1.0`, `P1.5` workloads).
    Pareto {
        /// Shape parameter `k` (smaller = heavier tail = more skew).
        shape: f64,
    },
    /// Normal keys with the given mean and standard deviation, clamped to
    /// `[0, 1)` (the `N` workload; the paper uses mean 0.5, sigma 0.05).
    Normal {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Synthetic text-retrieval keys: Zipf-ranked vocabulary terms mapped
    /// order-preservingly into the key space (the `A` workload substitute).
    Text {
        /// Vocabulary size of the synthetic corpus.
        vocabulary: usize,
        /// Zipf exponent of the term frequencies.
        exponent: f64,
    },
}

impl Distribution {
    /// The six workloads evaluated in Figure 6, in the order the paper lists
    /// them: `U`, `P0.5`, `P1.0`, `P1.5`, `N`, `A`.
    pub fn paper_suite() -> Vec<Distribution> {
        vec![
            Distribution::Uniform,
            Distribution::Pareto { shape: 0.5 },
            Distribution::Pareto { shape: 1.0 },
            Distribution::Pareto { shape: 1.5 },
            Distribution::Normal {
                mean: 0.5,
                std_dev: 0.05,
            },
            Distribution::Text {
                vocabulary: 5_000,
                exponent: 1.0,
            },
        ]
    }

    /// Short label used in tables and figures (`U`, `P0.5`, …).
    pub fn label(&self) -> String {
        match self {
            Distribution::Uniform => "U".to_string(),
            Distribution::Pareto { shape } => format!("P{shape:.1}"),
            Distribution::Normal { .. } => "N".to_string(),
            Distribution::Text { .. } => "A".to_string(),
        }
    }

    /// Draws one key from the distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Key {
        let fraction = match *self {
            Distribution::Uniform => rng.gen::<f64>(),
            Distribution::Pareto { shape } => pareto_fraction(shape, rng),
            Distribution::Normal { mean, std_dev } => {
                (mean + std_dev * standard_normal(rng)).clamp(0.0, 1.0 - 1e-12)
            }
            Distribution::Text {
                vocabulary,
                exponent,
            } => zipf_term_fraction(vocabulary, exponent, rng),
        };
        Key::from_fraction(fraction)
    }

    /// Draws `count` keys.
    pub fn sample_many<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Key> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Pareto sample mapped into `[0, 1)`.
///
/// The paper uses a Pareto distribution with PDF `k a^k / x^{k+1}` over the
/// key space.  We sample a Pareto variable with scale `a = 0.5`, shift it to
/// start at zero and condition on the unit interval (truncated inverse-CDF
/// sampling), which concentrates keys near the lower end of the key space —
/// the larger the shape parameter, the stronger the concentration, matching
/// the ordering `P0.5 < P1.0 < P1.5` of skew in the paper's experiments.
fn pareto_fraction<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    assert!(shape > 0.0, "Pareto shape must be positive");
    const SCALE: f64 = 0.5;
    // CDF of the shifted Pareto: F(t) = 1 - (a / (a + t))^k.
    let f1 = 1.0 - (SCALE / (SCALE + 1.0)).powf(shape);
    let u: f64 = rng.gen::<f64>() * f1;
    let x = SCALE * ((1.0 - u).powf(-1.0 / shape) - 1.0);
    x.clamp(0.0, 1.0 - 1e-12)
}

/// Standard normal variate via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a Zipf-ranked term id and maps it to the key-space position of that
/// term in a lexicographically sorted vocabulary.
///
/// Terms are laid out in `[0, 1)` in rank-scrambled lexicographic positions
/// (a deterministic pseudo-random permutation of ranks), so popular terms
/// cluster at arbitrary positions of the key space rather than all at one
/// end — mimicking an inverted-file vocabulary where frequent terms are
/// spread alphabetically but the *mass* is concentrated on few terms.
fn zipf_term_fraction<R: Rng + ?Sized>(vocabulary: usize, exponent: f64, rng: &mut R) -> f64 {
    let rank = zipf_rank(vocabulary, exponent, rng);
    // Deterministic permutation of the rank to a vocabulary slot: a simple
    // multiplicative hash keeps the mapping stable across calls.
    let slot = (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % vocabulary as u64;
    // Composite (term, posting) keys: the posting-specific offset spreads the
    // entries of one term over the term's slot of the key space, which keeps
    // the distribution clustered and Zipf-skewed while remaining splittable
    // (real inverted-file keys are (term, document) pairs for the same
    // reason).
    let jitter: f64 = rng.gen::<f64>();
    (slot as f64 + jitter) / vocabulary as f64
}

/// Samples a rank from a Zipf distribution over `1..=n` with the given
/// exponent, by inverse transform over the precomputed normaliser.
pub fn zipf_rank<R: Rng + ?Sized>(n: usize, exponent: f64, rng: &mut R) -> usize {
    assert!(n > 0);
    // Harmonic normaliser; for the sizes used here a direct sum is cheap and
    // exact enough.  (Cached by callers that sample in bulk via ZipfSampler.)
    let h: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(exponent)).sum();
    let target = rng.gen::<f64>() * h;
    let mut acc = 0.0;
    for i in 1..=n {
        acc += 1.0 / (i as f64).powf(exponent);
        if acc >= target {
            return i;
        }
    }
    n
}

/// A Zipf sampler with cached cumulative weights for bulk sampling.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over ranks `1..=n` with the given exponent.
    pub fn new(n: usize, exponent: f64) -> ZipfSampler {
        assert!(n > 0);
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(exponent);
            cumulative.push(acc);
        }
        ZipfSampler { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the sampler is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let target = rng.gen::<f64>() * total;
        match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&target).expect("no NaN"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cumulative.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The fraction of 20 000 samples falling into the lower half of the
    /// key space (1/2 for symmetric distributions, close to 1 for the
    /// heavy-tailed Pareto workloads).
    fn lower_half_mass(dist: Distribution, rng: &mut StdRng) -> f64 {
        let below = (0..20_000)
            .filter(|_| dist.sample(rng).as_fraction() < 0.5)
            .count();
        below as f64 / 20_000.0
    }

    #[test]
    fn paper_suite_has_six_workloads_with_unique_labels() {
        let suite = Distribution::paper_suite();
        assert_eq!(suite.len(), 6);
        let labels: Vec<String> = suite.iter().map(|d| d.label()).collect();
        assert_eq!(labels, vec!["U", "P0.5", "P1.0", "P1.5", "N", "A"]);
    }

    #[test]
    fn all_samples_lie_in_the_key_space() {
        let mut rng = StdRng::seed_from_u64(1);
        for dist in Distribution::paper_suite() {
            for _ in 0..500 {
                let k = dist.sample(&mut rng);
                let x = k.as_fraction();
                assert!((0.0..1.0).contains(&x), "{dist}: {x}");
            }
        }
    }

    #[test]
    fn uniform_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(2);
        let mass = lower_half_mass(Distribution::Uniform, &mut rng);
        assert!((mass - 0.5).abs() < 0.02, "mass {mass}");
    }

    #[test]
    fn pareto_is_skewed_towards_zero_and_more_so_for_larger_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mass_p05 = lower_half_mass(Distribution::Pareto { shape: 0.5 }, &mut rng);
        let mass_p15 = lower_half_mass(Distribution::Pareto { shape: 1.5 }, &mut rng);
        assert!(mass_p05 > 0.6, "P0.5 should be skewed: {mass_p05}");
        assert!(mass_p15 > 0.7, "P1.5 should be more skewed: {mass_p15}");
        assert!(
            mass_p15 > mass_p05,
            "larger shape must concentrate more mass near zero: {mass_p15} vs {mass_p05}"
        );
    }

    #[test]
    fn normal_concentrates_around_the_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let dist = Distribution::Normal {
            mean: 0.5,
            std_dev: 0.05,
        };
        let keys = dist.sample_many(20_000, &mut rng);
        let in_3_sigma = keys
            .iter()
            .filter(|k| (k.as_fraction() - 0.5).abs() < 0.15)
            .count();
        assert!(in_3_sigma as f64 / keys.len() as f64 > 0.99);
        let mean: f64 = keys.iter().map(|k| k.as_fraction()).sum::<f64>() / keys.len() as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn text_keys_cluster_on_few_term_slots() {
        let mut rng = StdRng::seed_from_u64(5);
        let vocabulary = 1000usize;
        let dist = Distribution::Text {
            vocabulary,
            exponent: 1.0,
        };
        let keys = dist.sample_many(5_000, &mut rng);
        // Keys themselves are (term, posting) composites and thus distinct …
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        assert!(unique.len() > 4_900, "keys should be almost all distinct");
        // … but their *term slots* follow a Zipf law: few slots carry a large
        // share of the mass.
        let mut slot_counts = vec![0usize; vocabulary];
        for k in &keys {
            let slot = ((k.as_fraction() * vocabulary as f64) as usize).min(vocabulary - 1);
            slot_counts[slot] += 1;
        }
        slot_counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_10: usize = slot_counts.iter().take(10).sum();
        assert!(
            top_10 as f64 > 0.2 * keys.len() as f64,
            "the 10 hottest terms should carry >20% of the postings, got {top_10}"
        );
        let occupied = slot_counts.iter().filter(|&&c| c > 0).count();
        assert!(
            occupied < vocabulary,
            "some slots must stay empty under Zipf sampling"
        );
    }

    #[test]
    fn zipf_rank_one_is_most_frequent() {
        let mut rng = StdRng::seed_from_u64(6);
        let sampler = ZipfSampler::new(100, 1.0);
        let mut counts = vec![0usize; 101];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[10]);
        assert!(counts[10] > counts[90]);
        // simple sampler agrees with the cached one on the support
        for _ in 0..100 {
            let r = zipf_rank(100, 1.0, &mut rng);
            assert!((1..=100).contains(&r));
        }
    }

    #[test]
    fn zipf_sampler_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let sampler = ZipfSampler::new(5, 1.2);
        assert_eq!(sampler.len(), 5);
        for _ in 0..1000 {
            let r = sampler.sample(&mut rng);
            assert!((1..=5).contains(&r));
        }
    }
}
