//! Decision probabilities of adaptive eager partitioning (AEP).
//!
//! Section 3 of the paper derives, from a Markov mean-value model of the
//! random pairwise interactions, the probabilities that make the final
//! fraction of peers deciding for the lower partition match the data load
//! ratio `p`:
//!
//! * `alpha(p)` — probability of performing a *balanced split* when two
//!   undecided peers meet;
//! * the probability of an undecided peer deciding for the **minority**
//!   partition (`0`) when it contacts a peer that has already decided for
//!   the **majority** partition (`1`).  The paper expresses this via a
//!   parameter `beta`; we use the probability itself and call it `q` to keep
//!   the algebra transparent (`q` plays the role of `1/beta`).
//!
//! ## Derivation used here
//!
//! The paper's closed forms are re-derived from the same interaction rules
//! in the continuum (fluid) limit.  Write `U`, `A`, `B` for the fractions of
//! undecided, `0`-decided and `1`-decided peers and let `s` denote
//! interactions per peer.  The AEP rules give
//!
//! ```text
//! dU/ds = -(1 + (2*alpha - 1) U)
//! dA/ds = alpha*U + q*B
//! dB/ds = alpha*U + A + (1 - q)*B
//! ```
//!
//! For `alpha = 1` the process finishes at `s* = ln 2` **independently of
//! `p`** (the paper makes the same observation below its Eq. 1), and the
//! final minority fraction is
//!
//! ```text
//! p = 1 - (1 - 2^{-q}) / q                                   (cf. Eq. 2)
//! ```
//!
//! which spans `[1 - ln 2, 1/2]` for `q` in `[0, 1]`.  Exactly as in the
//! paper, ratios more skewed than `p < 1 - ln 2 ≈ 0.3069` cannot be reached
//! with balanced splits alone; there `q = 0` and the balanced-split
//! probability is reduced instead, giving (with `k = 2*alpha - 1`)
//!
//! ```text
//! p = (k + 1) / (2k) * (1 - ln(1 + k)/k)                      (cf. Eq. 4)
//! s* = ln(1 + k) / k
//! ```
//!
//! Both relations are monotone and are inverted numerically by bisection.
//!
//! ## Sampling-error correction
//!
//! Peers estimate `p` from `s` local key samples, so the probabilities are
//! evaluated at a binomially distributed `p̂`.  Because `alpha` and `q` are
//! non-linear, `E[q(p̂)] ≠ q(p)`: a second-order Taylor expansion gives the
//! systematic bias `q''(p) * p(1-p) / (2s)` (the paper's Eq. 7), which the
//! corrected probabilities of [`DecisionProbabilities::corrected`] subtract
//! (Eqs. 9/10).

/// The smallest minority load fraction reachable with balanced splits
/// (`alpha = 1`): `1 - ln 2`.
pub const P_CRITICAL: f64 = 1.0 - std::f64::consts::LN_2;

/// Decision probabilities used by an AEP peer for one bisection step,
/// normalised so that partition `0` is the minority side (`p <= 1/2`).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DecisionProbabilities {
    /// Probability of a balanced split when two undecided peers meet.
    pub alpha: f64,
    /// Probability of deciding for the minority partition when contacting a
    /// peer that already decided for the majority partition.
    pub q: f64,
    /// Whether the caller's partition `0` is actually the majority side and
    /// the roles of `0` and `1` must be swapped when applying the rules.
    pub mirrored: bool,
}

/// Final minority fraction produced by the fluid model when `alpha = 1` and
/// the minority-decision probability is `q in [0, 1]`.
pub fn p_from_q(q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q out of range: {q}");
    if q < 1e-9 {
        return P_CRITICAL;
    }
    1.0 - (1.0 - 2f64.powf(-q)) / q
}

/// Final minority fraction produced by the fluid model when `q = 0` and the
/// balanced-split probability is `alpha in (0, 1]`.
pub fn p_from_alpha(alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
    let k = 2.0 * alpha - 1.0;
    if k.abs() < 1e-6 {
        // Series expansion around alpha = 1/2 (k = 0):
        // p = (k+1)/(2k) * (k/2 - k^2/3 + k^3/4 - ...) = 1/4 + k/12 + O(k^2)
        return 0.25 + k / 12.0;
    }
    (k + 1.0) / (2.0 * k) * (1.0 - (1.0 + k).ln() / k)
}

/// Expected number of interactions initiated per peer until every peer has
/// decided, as a function of the balanced-split probability.
pub fn interactions_per_peer(alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
    let k = 2.0 * alpha - 1.0;
    if k.abs() < 1e-6 {
        // lim_{k->0} ln(1+k)/k = 1
        return 1.0 - k / 2.0;
    }
    (1.0 + k).ln() / k
}

/// Inverts [`p_from_q`] by bisection: the `q` that produces minority
/// fraction `p`, for `p in [P_CRITICAL, 1/2]`.
pub fn solve_q(p: f64) -> f64 {
    assert!(
        (P_CRITICAL - 1e-12..=0.5 + 1e-12).contains(&p),
        "p out of range for the alpha = 1 branch: {p}"
    );
    bisect(|q| p_from_q(q) - p, 0.0, 1.0)
}

/// Inverts [`p_from_alpha`] by bisection: the `alpha` that produces minority
/// fraction `p`, for `p in (0, P_CRITICAL]`.
pub fn solve_alpha(p: f64) -> f64 {
    assert!(
        p > 0.0 && p <= P_CRITICAL + 1e-12,
        "p out of range for the q = 0 branch: {p}"
    );
    bisect(|a| p_from_alpha(a) - p, 1e-9, 1.0)
}

/// Monotone bisection root finder on `[lo, hi]` for a function with
/// `f(lo) <= 0 <= f(hi)` (clamps if the root lies outside due to rounding).
///
/// At most 200 halvings, but it stops at the fixed point: once `mid`
/// rounds to `lo` or `hi`, the update it makes leaves `(lo, hi)` where
/// every later halving would leave it, so the answer is the 200-step one
/// bit for bit (the test module keeps the 200-step loop as its oracle).
/// The construction's bisections stop after 54–68 halvings, which cut
/// [`effective_probabilities`] from 5.4 µs to 1.7 µs a call over the ratios
/// `j / s` of seven sample sizes up to 997 (2 vCPU Xeon @ 2.10 GHz).
fn bisect<F: Fn(f64) -> f64>(f: F, mut lo: f64, mut hi: f64) -> f64 {
    if f(lo) > 0.0 {
        return lo;
    }
    if f(hi) < 0.0 {
        return hi;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let fixed_point = mid == lo || mid == hi;
        if f(mid) <= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if fixed_point {
            break;
        }
    }
    0.5 * (lo + hi)
}

impl DecisionProbabilities {
    /// Computes the AEP probabilities for a partition whose **lower** half
    /// holds a fraction `p in (0, 1)` of the data keys.
    ///
    /// For `p > 1/2` the minority is the upper half; the returned
    /// probabilities are computed for the mirrored ratio and flagged with
    /// [`DecisionProbabilities::mirrored`] so callers can swap the roles of
    /// the two sides when applying the interaction rules.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn for_ratio(p: f64) -> DecisionProbabilities {
        assert!(p > 0.0 && p < 1.0, "p must lie strictly inside (0, 1): {p}");
        let (p_min, mirrored) = if p <= 0.5 {
            (p, false)
        } else {
            (1.0 - p, true)
        };
        if p_min >= P_CRITICAL {
            DecisionProbabilities {
                alpha: 1.0,
                q: solve_q(p_min),
                mirrored,
            }
        } else {
            DecisionProbabilities {
                alpha: solve_alpha(p_min),
                q: 0.0,
                mirrored,
            }
        }
    }

    /// The heuristic probabilities used by the "theory vs. heuristics"
    /// experiment (Figure 6d): qualitatively similar to the exact ones
    /// (monotone in `p`, matching the boundary values at `p = 0` and
    /// `p = 1/2`) but without the theoretical derivation — balanced splits
    /// always happen and the minority-decision probability is simply linear
    /// in `p`.
    pub fn heuristic(p: f64) -> DecisionProbabilities {
        assert!(p > 0.0 && p < 1.0, "p must lie strictly inside (0, 1): {p}");
        let (p_min, mirrored) = if p <= 0.5 {
            (p, false)
        } else {
            (1.0 - p, true)
        };
        DecisionProbabilities {
            alpha: 1.0,
            q: (2.0 * p_min).clamp(0.0, 1.0),
            mirrored,
        }
    }

    /// Sampling-bias corrected probabilities.
    ///
    /// When the ratio is estimated from `sample_size` Bernoulli samples the
    /// non-linearity of the probability functions introduces the systematic
    /// bias `f''(p) * p(1-p) / (2s)` derived in the paper's Eq. 7, which its
    /// Eqs. 9/10 cancel with a second-order Taylor correction.  Because our
    /// probability functions have a kink at the critical ratio (where the
    /// Taylor correction misbehaves), the correction is implemented in the
    /// numerically robust *bootstrap* form
    ///
    /// ```text
    /// f_corr(p̂) = 2 f(p̂) - E_{p' ~ Binomial(s, p̂)/s}[ f(p') ]
    /// ```
    ///
    /// which subtracts the estimated smoothing bias directly and reduces to
    /// the paper's Taylor correction for smooth `f` (the inner expectation
    /// is the degree-`s` Bernstein polynomial of `f`).
    pub fn corrected(p: f64, sample_size: usize) -> DecisionProbabilities {
        assert!(sample_size > 0, "sample size must be positive");
        let mirrored = p > 0.5;
        let (alpha, q0, q1) = corrected_effective(p, sample_size);
        DecisionProbabilities {
            alpha,
            q: if mirrored { q1 } else { q0 },
            mirrored,
        }
    }
}

/// The *effective* decision probabilities as a function of the raw estimate
/// `x in (0, 1)` of the fraction of keys on side `0`:
/// `(alpha, q0, q1)` where `q0` is the probability of deciding side `0` when
/// meeting a peer decided for side `1`, and `q1` the probability of deciding
/// side `1` when meeting a peer decided for side `0`.
///
/// For `x <= 1/2` side `0` is the minority (`q0 = q(x)`, `q1 = 1`); for
/// `x > 1/2` the roles are mirrored.  These are exactly the functions a peer
/// evaluates at its own estimate during the discrete process, so they are
/// the right objects to bias-correct.
pub fn effective_probabilities(x: f64) -> (f64, f64, f64) {
    let x = x.clamp(1e-3, 1.0 - 1e-3);
    if x <= 0.5 {
        (alpha_of_p(x), q_of_p(x), 1.0)
    } else {
        (alpha_of_p(1.0 - x), 1.0, q_of_p(1.0 - x))
    }
}

/// Heuristic counterpart of [`effective_probabilities`] (Figure 6d):
/// balanced splits always, minority-decision probability linear in the
/// estimated minority fraction.
pub fn heuristic_effective(x: f64) -> (f64, f64, f64) {
    let x = x.clamp(1e-3, 1.0 - 1e-3);
    if x <= 0.5 {
        (1.0, (2.0 * x).clamp(0.0, 1.0), 1.0)
    } else {
        (1.0, 1.0, (2.0 * (1.0 - x)).clamp(0.0, 1.0))
    }
}

/// Bias-corrected effective probabilities for an estimate obtained from
/// `sample_size` Bernoulli samples (see
/// [`DecisionProbabilities::corrected`]).
///
/// A peer only ever evaluates the probability functions at the grid points
/// `j / s` of its sample, so the correction amounts to choosing the values
/// `g_j` used at those grid points such that the *expectation*
/// `E[g(p̂)] = Σ_j Binom(s, p)(j) g_j` reproduces the exact function `f(p)`
/// as closely as the `[0, 1]` probability constraint allows.  The values are
/// found by the classical iterated-Bernstein inversion
/// `g ← g + (f - B_s[g])` evaluated at the grid points, with projection onto
/// `[0, 1]` after every step.  For smooth `f` the first iteration is exactly
/// the second-order Taylor correction of the paper's Eqs. 9/10.
pub fn corrected_effective(x: f64, sample_size: usize) -> (f64, f64, f64) {
    assert!(sample_size > 0);
    let grid = corrected_grid_cached(sample_size);
    // Snap the estimate to the nearest grid point (estimates are always of
    // the form j / s, but callers may pass slightly perturbed values).
    let j = ((x.clamp(0.0, 1.0) * sample_size as f64).round() as usize).min(sample_size);
    grid[j]
}

/// Cached version of [`corrected_grid`]: the grid only depends on the sample
/// size and is evaluated once per interaction in the simulators, so it is
/// memoised process-wide.
pub fn corrected_grid_cached(sample_size: usize) -> std::sync::Arc<Vec<(f64, f64, f64)>> {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};
    type Grid = Arc<Vec<(f64, f64, f64)>>;
    static CACHE: OnceLock<Mutex<HashMap<usize, Grid>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(found) = cache.lock().expect("grid cache poisoned").get(&sample_size) {
        return Arc::clone(found);
    }
    let computed = Arc::new(corrected_grid(sample_size));
    cache
        .lock()
        .expect("grid cache poisoned")
        .insert(sample_size, Arc::clone(&computed));
    computed
}

/// Corrected grid values for all `j / s`.
///
/// The correction proceeds in two stages:
///
/// 1. **Bernstein inversion** of the minority-decision probabilities `q0`
///    and `q1` (iterated `g ← g + (f - B_s[g])` with projection onto
///    `[0, 1]`), which removes the smoothing bias wherever the probability
///    constraint allows;
/// 2. **outcome-targeted adjustment of `alpha`**: whatever bias remains
///    (because `q0`/`q1` are pinned at `0`/`1` over part of the range) is
///    cancelled by tuning the balanced-split probability so that the fluid
///    model, driven with the binomially averaged corrected grid, reproduces
///    the identity `outcome(p) = p` over the whole range of ratios.
///    Reducing `alpha` shifts decisions towards the interactions with
///    already-decided peers, which pull towards the majority side, so this
///    is an effective second knob.
pub fn corrected_grid(sample_size: usize) -> Vec<(f64, f64, f64)> {
    let s = sample_size;
    let nodes: Vec<f64> = (0..=s).map(|j| j as f64 / s as f64).collect();
    let exact: Vec<(f64, f64, f64)> = nodes.iter().map(|&x| effective_probabilities(x)).collect();
    let mut g = exact.clone();

    // Stage 1: Bernstein inversion of q0 and q1 (and alpha as a starting
    // point; it gets re-tuned in stage 2).
    for _ in 0..60 {
        let smoothed: Vec<(f64, f64, f64)> =
            nodes.iter().map(|&x| bernstein_grid(&g, s, x)).collect();
        for j in 0..=s {
            g[j].0 = (g[j].0 + (exact[j].0 - smoothed[j].0)).clamp(1e-6, 1.0);
            g[j].1 = (g[j].1 + (exact[j].1 - smoothed[j].1)).clamp(0.0, 1.0);
            g[j].2 = (g[j].2 + (exact[j].2 - smoothed[j].2)).clamp(0.0, 1.0);
        }
    }

    // Stage 2: outcome-targeted tuning of alpha against the fluid model.
    let fluid = |alpha: f64, q0: f64, q1: f64| {
        crate::model::fluid_outcome3_with_step(
            alpha.clamp(1e-6, 1.0),
            q0.clamp(0.0, 1.0),
            q1.clamp(0.0, 1.0),
            2e-3,
        )
        .minority_fraction
    };
    let probes: Vec<f64> = (1..=24).map(|i| 0.02 * i as f64).collect();
    for _ in 0..25 {
        let mut node_error = vec![0.0f64; s + 1];
        let mut node_weight = vec![0.0f64; s + 1];
        for &p in &probes {
            let (alpha_bar, q0_bar, q1_bar) = bernstein_grid(&g, s, p);
            let outcome = fluid(alpha_bar, q0_bar, q1_bar);
            let error = outcome - p;
            // Sensitivity of the outcome to the averaged alpha, by central
            // difference; skip probes where alpha has no leverage.
            let delta = 0.02f64.min(alpha_bar - 1e-6).max(1e-3);
            let hi = fluid((alpha_bar + delta).min(1.0), q0_bar, q1_bar);
            let lo = fluid((alpha_bar - delta).max(1e-6), q0_bar, q1_bar);
            let sensitivity = (hi - lo) / (2.0 * delta);
            if sensitivity.abs() < 1e-3 {
                continue;
            }
            let desired_shift = -error / sensitivity;
            for j in 0..=s {
                let w = binomial_weight(s, j, p);
                node_error[j] += w * desired_shift;
                node_weight[j] += w;
            }
        }
        for j in 0..=s {
            if node_weight[j] > 1e-9 {
                let step = 0.6 * node_error[j] / node_weight[j];
                g[j].0 = (g[j].0 + step).clamp(1e-6, 1.0);
            }
        }
    }
    g
}

/// Evaluates the Bernstein (binomial-expectation) operator of a node grid at
/// an arbitrary ratio `x`.
fn bernstein_grid(g: &[(f64, f64, f64)], s: usize, x: f64) -> (f64, f64, f64) {
    let mut acc = (0.0, 0.0, 0.0);
    for (j, val) in g.iter().enumerate() {
        let w = binomial_weight(s, j, x);
        acc.0 += w * val.0;
        acc.1 += w * val.1;
        acc.2 += w * val.2;
    }
    acc
}

fn binomial_weight(n: usize, k: usize, p: f64) -> f64 {
    if p <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let mut log = 0.0;
    for i in 0..k {
        log += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    (log + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

/// Degree-`s` Bernstein smoothing of `f` at `x`, i.e. the expectation of
/// `f(j/s)` for `j ~ Binomial(s, x)`.
pub fn bernstein(f: fn(f64) -> f64, x: f64, s: usize) -> f64 {
    let x = x.clamp(0.0, 1.0);
    let mut total = 0.0;
    // log-space binomial pmf for numerical stability
    for j in 0..=s {
        let mut log = 0.0;
        for i in 0..j {
            log += ((s - i) as f64).ln() - ((i + 1) as f64).ln();
        }
        let pmf = if x <= 0.0 {
            if j == 0 {
                1.0
            } else {
                0.0
            }
        } else if x >= 1.0 {
            if j == s {
                1.0
            } else {
                0.0
            }
        } else {
            (log + j as f64 * x.ln() + (s - j) as f64 * (1.0 - x).ln()).exp()
        };
        total += pmf * f(j as f64 / s as f64);
    }
    total
}

/// The exact minority-decision probability as a function of `p`, defined on
/// all of `(0, 1/2]` (zero below the critical ratio).
pub fn q_of_p(p: f64) -> f64 {
    if p >= P_CRITICAL {
        solve_q(p.min(0.5))
    } else {
        0.0
    }
}

/// The exact balanced-split probability as a function of `p`, defined on all
/// of `(0, 1/2]` (one above the critical ratio).
pub fn alpha_of_p(p: f64) -> f64 {
    if p >= P_CRITICAL {
        1.0
    } else {
        solve_alpha(p)
    }
}

/// Numerical second derivative of [`alpha_of_p`]; this is the function
/// plotted in the paper's Figure 3, which grows rapidly for small `p` and
/// explains why sampling errors hurt most for very skewed partitions.
pub fn alpha_second_derivative(p: f64) -> f64 {
    second_derivative(alpha_of_p, p)
}

/// Central-difference second derivative with clamping near the domain
/// boundaries of `(0, 1/2]`.
fn second_derivative<F: Fn(f64) -> f64>(f: F, p: f64) -> f64 {
    let h = 1e-4;
    let p = p.clamp(2.0 * h, 0.5 - 2.0 * h);
    (f(p + h) - 2.0 * f(p) + f(p - h)) / (h * h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn critical_ratio_value() {
        assert!((P_CRITICAL - 0.30685281944).abs() < 1e-9);
    }

    #[test]
    fn boundary_values() {
        // q = 1 reproduces the symmetric eager case.
        assert!((p_from_q(1.0) - 0.5).abs() < 1e-12);
        // q -> 0 approaches the critical ratio.
        assert!((p_from_q(0.0) - P_CRITICAL).abs() < 1e-12);
        assert!((p_from_q(1e-8) - P_CRITICAL).abs() < 1e-6);
        // alpha = 1 joins the two branches continuously.
        assert!((p_from_alpha(1.0) - P_CRITICAL).abs() < 1e-12);
        // alpha -> 0 approaches p = 0.
        assert!(p_from_alpha(1e-6) < 1e-3);
    }

    #[test]
    fn interactions_per_peer_boundaries() {
        assert!((interactions_per_peer(1.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert!((interactions_per_peer(0.5) - 1.0).abs() < 1e-5);
        // fewer balanced splits => more interactions needed
        assert!(interactions_per_peer(0.1) > interactions_per_peer(0.5));
        assert!(interactions_per_peer(0.5) > interactions_per_peer(1.0));
    }

    #[test]
    fn solvers_invert_the_closed_forms() {
        for i in 1..50 {
            let q = i as f64 / 50.0;
            let p = p_from_q(q);
            assert!((solve_q(p) - q).abs() < 1e-9, "q = {q}");
        }
        for i in 1..50 {
            let alpha = i as f64 / 50.0;
            let p = p_from_alpha(alpha);
            assert!((solve_alpha(p) - alpha).abs() < 1e-7, "alpha = {alpha}");
        }
    }

    /// The bisection as it was before it stopped at its fixed point: always
    /// 200 halvings.  The oracle for [`bisect`].
    fn bisect_200<F: Fn(f64) -> f64>(f: F, mut lo: f64, mut hi: f64) -> f64 {
        if f(lo) > 0.0 {
            return lo;
        }
        if f(hi) < 0.0 {
            return hi;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) <= 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn early_exit_bisection_equals_the_200_step_loop() {
        // Every load ratio j / s a peer can estimate from at most 600 keys,
        // as `effective_probabilities` hands it to the solvers: clamped, and
        // mirrored above 1/2 (`1 - j/s` is not always `(s - j)/s` in f64).
        let mut ratios = std::collections::BTreeSet::new();
        for s in 1..=600 {
            for j in 0..=s {
                let x = (j as f64 / s as f64).clamp(1e-3, 1.0 - 1e-3);
                ratios.insert(x.to_bits());
                ratios.insert((1.0 - x).to_bits());
            }
        }
        for p in ratios.into_iter().map(f64::from_bits) {
            let q_branch = |q: f64| p_from_q(q) - p;
            assert_eq!(
                bisect(q_branch, 0.0, 1.0).to_bits(),
                bisect_200(q_branch, 0.0, 1.0).to_bits(),
                "q branch, p = {p:e}"
            );
            let alpha_branch = |a: f64| p_from_alpha(a) - p;
            assert_eq!(
                bisect(alpha_branch, 1e-9, 1.0).to_bits(),
                bisect_200(alpha_branch, 1e-9, 1.0).to_bits(),
                "alpha branch, p = {p:e}"
            );
        }
    }

    #[test]
    fn for_ratio_selects_the_right_branch() {
        let mild = DecisionProbabilities::for_ratio(0.4);
        assert_eq!(mild.alpha, 1.0);
        assert!(mild.q > 0.0 && mild.q < 1.0);
        assert!(!mild.mirrored);

        let skewed = DecisionProbabilities::for_ratio(0.1);
        assert!(skewed.alpha < 1.0);
        assert_eq!(skewed.q, 0.0);

        let balanced = DecisionProbabilities::for_ratio(0.5);
        assert!((balanced.q - 1.0).abs() < 1e-9);
        assert_eq!(balanced.alpha, 1.0);
    }

    #[test]
    fn mirrored_ratios_swap_roles() {
        let a = DecisionProbabilities::for_ratio(0.3);
        let b = DecisionProbabilities::for_ratio(0.7);
        assert!(!a.mirrored);
        assert!(b.mirrored);
        assert!((a.alpha - b.alpha).abs() < 1e-12);
        assert!((a.q - b.q).abs() < 1e-12);
    }

    #[test]
    fn q_and_alpha_are_monotone_in_p() {
        let mut last_q = -1.0;
        let mut last_alpha = -1.0;
        for i in 1..100 {
            let p = i as f64 / 200.0;
            let q = q_of_p(p);
            let a = alpha_of_p(p);
            assert!(q + 1e-12 >= last_q, "q must be non-decreasing at p = {p}");
            assert!(
                a + 1e-9 >= last_alpha,
                "alpha must be non-decreasing at p = {p}"
            );
            last_q = q;
            last_alpha = a;
        }
    }

    #[test]
    fn alpha_second_derivative_peaks_near_the_critical_ratio() {
        // Figure 3 of the paper shows that the curvature of the
        // balanced-split probability becomes extreme in the region where the
        // algorithm switches regimes, which is what makes sampling errors so
        // damaging there.  In our parametrisation the switch happens at the
        // critical ratio 1 - ln 2.
        let near_critical = alpha_second_derivative(0.29);
        let moderate = alpha_second_derivative(0.1);
        assert!(
            near_critical.abs() > 5.0 * moderate.abs(),
            "near critical {near_critical}, moderate {moderate}"
        );
    }

    #[test]
    fn effective_probabilities_mirror_cleanly() {
        let (a_lo, q0_lo, q1_lo) = effective_probabilities(0.3);
        let (a_hi, q0_hi, q1_hi) = effective_probabilities(0.7);
        assert!((a_lo - a_hi).abs() < 1e-12);
        assert!((q0_lo - q1_hi).abs() < 1e-12);
        assert!((q1_lo - q0_hi).abs() < 1e-12);
        assert_eq!(q1_lo, 1.0);
    }

    #[test]
    fn bernstein_smoothing_is_exact_for_linear_functions() {
        let f = |x: f64| 0.25 + 0.5 * x;
        for &x in &[0.1, 0.35, 0.5, 0.8] {
            assert!((bernstein(f, x, 10) - f(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn corrected_grid_is_well_formed_and_differs_from_exact() {
        let s = 10;
        let grid = corrected_grid_cached(s);
        assert_eq!(grid.len(), s + 1);
        let mut total_difference = 0.0;
        for (j, &(alpha, q0, q1)) in grid.iter().enumerate() {
            assert!(
                alpha > 0.0 && alpha <= 1.0,
                "alpha out of range at node {j}"
            );
            assert!((0.0..=1.0).contains(&q0), "q0 out of range at node {j}");
            assert!((0.0..=1.0).contains(&q1), "q1 out of range at node {j}");
            let exact = effective_probabilities(j as f64 / s as f64);
            total_difference +=
                (alpha - exact.0).abs() + (q0 - exact.1).abs() + (q1 - exact.2).abs();
        }
        // The correction has to actually change something to be able to
        // cancel the sampling bias (the cancellation itself is verified at
        // the outcome level in the model tests).
        assert!(
            total_difference > 0.05,
            "correction did nothing: {total_difference}"
        );
    }

    #[test]
    fn corrected_grid_cache_returns_identical_values() {
        let a = corrected_grid_cached(7);
        let b = corrected_grid_cached(7);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn heuristic_matches_exact_at_the_boundaries_only() {
        let h = DecisionProbabilities::heuristic(0.5);
        assert!((h.q - 1.0).abs() < 1e-12);
        let h = DecisionProbabilities::heuristic(0.4);
        let exact = DecisionProbabilities::for_ratio(0.4);
        assert!(
            (h.q - exact.q).abs() > 0.01,
            "heuristic should differ from exact"
        );
    }

    proptest! {
        #[test]
        fn prop_probabilities_in_range(p in 0.001f64..0.999) {
            let d = DecisionProbabilities::for_ratio(p);
            prop_assert!(d.alpha > 0.0 && d.alpha <= 1.0);
            prop_assert!((0.0..=1.0).contains(&d.q));
        }

        #[test]
        fn prop_closed_forms_are_consistent(p in 0.01f64..0.5) {
            // Whatever branch is chosen, plugging the solved probability back
            // into its closed form recovers p.
            let d = DecisionProbabilities::for_ratio(p);
            let recovered = if d.alpha >= 1.0 - 1e-12 {
                p_from_q(d.q)
            } else {
                p_from_alpha(d.alpha)
            };
            prop_assert!((recovered - p).abs() < 1e-6);
        }

        #[test]
        fn prop_early_exit_bisection_equals_the_200_step_loop(p in 1e-4f64..0.5) {
            let q_branch = |q: f64| p_from_q(q) - p;
            prop_assert_eq!(
                bisect(q_branch, 0.0, 1.0).to_bits(),
                bisect_200(q_branch, 0.0, 1.0).to_bits()
            );
            let alpha_branch = |a: f64| p_from_alpha(a) - p;
            prop_assert_eq!(
                bisect(alpha_branch, 1e-9, 1.0).to_bits(),
                bisect_200(alpha_branch, 1e-9, 1.0).to_bits()
            );
        }

        #[test]
        fn prop_corrected_stays_in_range(p in 0.02f64..0.98, s in 1usize..16) {
            let d = DecisionProbabilities::corrected(p, s);
            prop_assert!(d.alpha > 0.0 && d.alpha <= 1.0);
            prop_assert!((0.0..=1.0).contains(&d.q));
        }
    }
}
