//! Query workload generation.
//!
//! The PlanetLab experiment of Section 5 has every peer issue a search every
//! 1–2 minutes during the query phase; queries target existing keys so that
//! the success rate can be measured.  This module generates point-lookup and
//! range-query workloads over a given key population.

use pgrid_core::key::Key;
use rand::seq::SliceRandom;
use rand::Rng;

/// A single query of the workload.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Query {
    /// Exact-key lookup.
    Lookup(Key),
    /// Inclusive range query.
    Range(Key, Key),
}

/// Configuration of a query workload.
#[derive(Copy, Clone, Debug)]
pub struct QueryWorkloadConfig {
    /// Total number of queries to generate.
    pub count: usize,
    /// Fraction of range queries (the rest are point lookups).
    pub range_fraction: f64,
    /// Width of range queries as a fraction of the key space.
    pub range_width: f64,
    /// Fraction of point lookups that target keys known to exist (the rest
    /// are drawn uniformly, and may miss).
    pub existing_fraction: f64,
}

impl Default for QueryWorkloadConfig {
    fn default() -> Self {
        QueryWorkloadConfig {
            count: 1000,
            range_fraction: 0.2,
            range_width: 0.02,
            existing_fraction: 0.9,
        }
    }
}

/// Generates a query workload over the given key population.
///
/// # Panics
///
/// Panics if `keys` is empty while `existing_fraction > 0`.
pub fn generate_queries<R: Rng + ?Sized>(
    config: &QueryWorkloadConfig,
    keys: &[Key],
    rng: &mut R,
) -> Vec<Query> {
    assert!(
        !(keys.is_empty() && config.existing_fraction > 0.0),
        "cannot target existing keys of an empty population"
    );
    (0..config.count)
        .map(|_| {
            if rng.gen_bool(config.range_fraction.clamp(0.0, 1.0)) {
                let start: f64 = rng.gen::<f64>() * (1.0 - config.range_width);
                Query::Range(
                    Key::from_fraction(start),
                    Key::from_fraction(start + config.range_width),
                )
            } else if rng.gen_bool(config.existing_fraction.clamp(0.0, 1.0)) {
                Query::Lookup(*keys.choose(rng).expect("non-empty key population"))
            } else {
                Query::Lookup(Key::from_fraction(rng.gen::<f64>()))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population() -> Vec<Key> {
        (0..100)
            .map(|i| Key::from_fraction(i as f64 / 100.0))
            .collect()
    }

    #[test]
    fn workload_respects_count_and_mix() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = QueryWorkloadConfig {
            count: 2000,
            range_fraction: 0.25,
            ..QueryWorkloadConfig::default()
        };
        let queries = generate_queries(&config, &population(), &mut rng);
        assert_eq!(queries.len(), 2000);
        let ranges = queries
            .iter()
            .filter(|q| matches!(q, Query::Range(..)))
            .count();
        assert!((ranges as f64 / 2000.0 - 0.25).abs() < 0.05);
    }

    #[test]
    fn range_queries_are_well_formed() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = QueryWorkloadConfig {
            count: 500,
            range_fraction: 1.0,
            range_width: 0.05,
            ..QueryWorkloadConfig::default()
        };
        for q in generate_queries(&config, &population(), &mut rng) {
            match q {
                Query::Range(lo, hi) => {
                    assert!(lo <= hi);
                    assert!((hi.as_fraction() - lo.as_fraction() - 0.05).abs() < 1e-9);
                }
                Query::Lookup(_) => panic!("expected only ranges"),
            }
        }
    }

    #[test]
    fn existing_lookups_come_from_the_population() {
        let mut rng = StdRng::seed_from_u64(3);
        let pop = population();
        let config = QueryWorkloadConfig {
            count: 500,
            range_fraction: 0.0,
            existing_fraction: 1.0,
            ..QueryWorkloadConfig::default()
        };
        for q in generate_queries(&config, &pop, &mut rng) {
            match q {
                Query::Lookup(k) => assert!(pop.contains(&k)),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_population_with_existing_lookups_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        generate_queries(&QueryWorkloadConfig::default(), &[], &mut rng);
    }
}
