//! Mean-value (fluid) model of the partitioning process.
//!
//! Section 3.1 of the paper analyses the random pairwise interactions as a
//! Markov process using mean value analysis.  This module integrates the
//! corresponding fluid ODE system numerically for arbitrary decision
//! probabilities, which serves three purposes:
//!
//! 1. it provides the **MVA** curve of Figures 4/5 (the model evaluated with
//!    the exact load ratio `p`);
//! 2. it provides the **SAM** curve (the model evaluated with the
//!    probabilities averaged over the binomial sampling distribution of the
//!    estimated ratio `p̂`), exposing the systematic sampling bias of
//!    Section 3.2;
//! 3. it acts as an independent oracle against which the discrete
//!    Monte-Carlo simulation of [`crate::discrete`] is validated in tests.

use crate::probabilities::{
    bernstein, corrected_effective, effective_probabilities, DecisionProbabilities,
};

/// Outcome of the fluid model for one bisection step.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FluidOutcome {
    /// Final fraction of peers decided for partition `0`.
    pub minority_fraction: f64,
    /// Interactions initiated per peer until no undecided peers remain.
    pub interactions_per_peer: f64,
}

/// Integrates the general fluid ODE system
///
/// ```text
/// dU/ds = -(1 + (2*alpha - 1) U)
/// dA/ds = alpha*U + q0*B + (1 - q1)*A
/// dB/ds = alpha*U + q1*A + (1 - q0)*B
/// ```
///
/// (`A` = fraction decided for `0`, `B` = for `1`, `U` undecided, `s`
/// interactions per peer, `q0` = probability of deciding `0` on meeting a
/// `1`-decided peer, `q1` analogously) from `U = 1, A = B = 0` until the
/// undecided fraction reaches zero, using classical fourth-order
/// Runge–Kutta with a fixed step.
pub fn fluid_outcome3(alpha: f64, q0: f64, q1: f64) -> FluidOutcome {
    fluid_outcome3_with_step(alpha, q0, q1, 1e-4)
}

/// Like [`fluid_outcome3`] with an explicit integration step; coarse steps
/// are used internally where only a few digits of precision are needed.
pub fn fluid_outcome3_with_step(alpha: f64, q0: f64, q1: f64, h: f64) -> FluidOutcome {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range");
    assert!((0.0..=1.0).contains(&q0), "q0 out of range");
    assert!((0.0..=1.0).contains(&q1), "q1 out of range");
    assert!(h > 0.0 && h < 0.1, "step out of range");

    let deriv = |state: [f64; 3]| -> [f64; 3] {
        let [u, a, b] = state;
        let u = u.max(0.0);
        [
            -(1.0 + (2.0 * alpha - 1.0) * u),
            alpha * u + q0 * b + (1.0 - q1) * a,
            alpha * u + q1 * a + (1.0 - q0) * b,
        ]
    };

    let mut state = [1.0f64, 0.0, 0.0];
    let mut s = 0.0f64;
    // The process always ends within a few interactions per peer; a generous
    // bound keeps the loop finite even for extreme alpha.
    let s_max = 50.0;
    while state[0] > 0.0 && s < s_max {
        let k1 = deriv(state);
        let k2 = deriv(add(state, scale(k1, h / 2.0)));
        let k3 = deriv(add(state, scale(k2, h / 2.0)));
        let k4 = deriv(add(state, scale(k3, h)));
        let delta = scale(
            add(add(k1, scale(k2, 2.0)), add(scale(k3, 2.0), k4)),
            h / 6.0,
        );
        if state[0] + delta[0] < 0.0 {
            // Linear interpolation of the crossing time within this step.
            let frac = state[0] / -delta[0];
            state = add(state, scale(delta, frac));
            s += h * frac;
            state[0] = 0.0;
            break;
        }
        state = add(state, delta);
        s += h;
    }

    // Normalise away the tiny numerical drift of A + B at termination.
    let total = state[1] + state[2];
    FluidOutcome {
        minority_fraction: if total > 0.0 { state[1] / total } else { 0.0 },
        interactions_per_peer: s,
    }
}

/// Fluid model with `q1 = 1` (partition `0` is the minority side); this is
/// the form used in the analysis of [`crate::probabilities`].
pub fn fluid_outcome(alpha: f64, q: f64) -> FluidOutcome {
    fluid_outcome3(alpha, q, 1.0)
}

fn add(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

fn scale(a: [f64; 3], c: f64) -> [f64; 3] {
    [a[0] * c, a[1] * c, a[2] * c]
}

/// The MVA model: expected outcome of one AEP bisection when every peer
/// knows the exact load ratio `p` (fraction of keys on side `0`).
pub fn mva_outcome(p: f64) -> FluidOutcome {
    let d = DecisionProbabilities::for_ratio(p.clamp(1e-6, 1.0 - 1e-6));
    if d.mirrored {
        fluid_outcome3(d.alpha, 1.0, d.q)
    } else {
        fluid_outcome3(d.alpha, d.q, 1.0)
    }
}

/// The SAM model: expected outcome of one AEP bisection when every peer
/// estimates `p` from `sample_size` Bernoulli samples and plugs the estimate
/// into the (uncorrected) probability functions.  The model uses the
/// expectation of the effective probabilities over the binomial sampling
/// distribution, which is where the systematic bias of Section 3.2 enters.
pub fn sam_outcome(p: f64, sample_size: usize) -> FluidOutcome {
    let (alpha, q0, q1) = expected_effective(p, sample_size, false);
    fluid_outcome3(alpha, q0, q1)
}

/// Expectation of the effective decision probabilities over the binomial
/// sampling distribution `p̂ = Binomial(s, p) / s`.
pub fn expected_effective(p: f64, sample_size: usize, corrected: bool) -> (f64, f64, f64) {
    assert!(sample_size > 0);
    assert!(p > 0.0 && p < 1.0);
    let s = sample_size;
    if corrected {
        (
            bernstein_dyn(&|x| corrected_effective(x, s).0, p, s).clamp(1e-6, 1.0),
            bernstein_dyn(&|x| corrected_effective(x, s).1, p, s).clamp(0.0, 1.0),
            bernstein_dyn(&|x| corrected_effective(x, s).2, p, s).clamp(0.0, 1.0),
        )
    } else {
        (
            bernstein(|x| effective_probabilities(x).0, p, s).clamp(1e-6, 1.0),
            bernstein(|x| effective_probabilities(x).1, p, s).clamp(0.0, 1.0),
            bernstein(|x| effective_probabilities(x).2, p, s).clamp(0.0, 1.0),
        )
    }
}

/// Bernstein smoothing for closures (the [`bernstein`] helper takes plain
/// function pointers).
fn bernstein_dyn(f: &dyn Fn(f64) -> f64, x: f64, s: usize) -> f64 {
    (0..=s)
        .map(|j| binomial_pmf(s, j, x) * f(j as f64 / s as f64))
        .sum()
}

/// Binomial probability mass function, computed in log space for stability.
pub fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    assert!(k <= n);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probabilities::P_CRITICAL;

    #[test]
    fn fluid_model_matches_closed_forms() {
        // With the solved probabilities the fluid model must reproduce the
        // requested minority fraction for the whole range of p.
        for i in 1..25 {
            let p = i as f64 / 50.0;
            let out = mva_outcome(p);
            assert!(
                (out.minority_fraction - p).abs() < 2e-3,
                "p = {p}, got {}",
                out.minority_fraction
            );
        }
    }

    #[test]
    fn mva_handles_mirrored_ratios() {
        let out = mva_outcome(0.7);
        assert!((out.minority_fraction - 0.7).abs() < 2e-3);
    }

    #[test]
    fn interactions_are_constant_above_the_critical_ratio() {
        let a = mva_outcome(0.35).interactions_per_peer;
        let b = mva_outcome(0.45).interactions_per_peer;
        let c = mva_outcome(0.5).interactions_per_peer;
        assert!((a - std::f64::consts::LN_2).abs() < 1e-3);
        assert!((a - b).abs() < 1e-3);
        assert!((b - c).abs() < 1e-3);
    }

    #[test]
    fn interactions_grow_below_the_critical_ratio() {
        let at_crit = mva_outcome(P_CRITICAL).interactions_per_peer;
        let skewed = mva_outcome(0.1).interactions_per_peer;
        let very_skewed = mva_outcome(0.03).interactions_per_peer;
        assert!(skewed > at_crit);
        assert!(very_skewed > skewed);
    }

    #[test]
    fn sampling_introduces_bias_that_correction_reduces() {
        // With a 10-key sample the probability functions are non-linear
        // enough for the outcome to shift visibly; the corrected variant
        // must reduce that shift.  Averaged over several ratios to keep the
        // comparison robust against individual near-zero crossings.
        let ratios = [0.3, 0.35, 0.4, 0.45];
        let bias_sam: f64 = ratios
            .iter()
            .map(|&p| (sam_outcome(p, 10).minority_fraction - p).abs())
            .sum();
        let bias_cor: f64 = ratios
            .iter()
            .map(|&p| {
                let (alpha, q0, q1) = expected_effective(p, 10, true);
                (fluid_outcome3(alpha, q0, q1).minority_fraction - p).abs()
            })
            .sum();
        assert!(
            bias_sam > 5e-3,
            "expected a visible sampling bias, got {bias_sam}"
        );
        assert!(
            bias_cor < bias_sam,
            "correction should reduce bias: {bias_cor} vs {bias_sam}"
        );
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &(n, p) in &[(10usize, 0.3f64), (25, 0.5), (5, 0.05)] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} p={p} total={total}");
        }
        assert_eq!(binomial_pmf(10, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(10, 10, 1.0), 1.0);
    }

    #[test]
    fn expected_probabilities_reduce_to_exact_for_huge_samples() {
        let p = 0.42;
        let (a, q0, q1) = expected_effective(p, 5000, false);
        let (ea, eq0, eq1) = effective_probabilities(p);
        assert!((a - ea).abs() < 1e-2);
        assert!((q0 - eq0).abs() < 1e-2);
        assert!((q1 - eq1).abs() < 1e-2);
    }

    #[test]
    fn eager_limit_is_symmetric() {
        let out = fluid_outcome3(1.0, 1.0, 1.0);
        assert!((out.minority_fraction - 0.5).abs() < 1e-6);
        assert!((out.interactions_per_peer - std::f64::consts::LN_2).abs() < 1e-3);
    }
}
