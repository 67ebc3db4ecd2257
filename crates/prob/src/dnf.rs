//! The Karp–Luby–Madras coverage estimator for union (DNF) probabilities.
//!
//! Computing `Pr(A_1 ∪ … ∪ A_m)` exactly is #P-hard in general (it
//! subsumes DNF counting), but the coverage algorithm of Karp, Luby &
//! Madras is a *fully polynomial randomized approximation scheme* (FPRAS):
//! with `N = ⌈4m · ln(2/δ) / ε²⌉` samples it returns an estimate within a
//! `(1 ± ε)` factor of the truth with probability at least `1 − δ`.
//!
//! [`estimate_union`] is the one sampling loop. A [`Budget`] says when it
//! stops: after a fixed number of samples (the FPRAS above), or by the
//! Dagum–Karp–Luby–Ross stopping rule, which adapts the sample count to
//! the unknown union.
//!
//! The paper's `ApproxFCP` procedure (Fig. 2) is this estimator applied to
//! the family of frequent-non-closure events `C_i`; the abstraction here is
//! the generic [`UnionEventSystem`] so the algorithm can be tested against
//! synthetic event families independently of the miner.

use rand::{Rng, RngExt};

/// A family of probability events supporting the three oracles the
/// coverage algorithm needs: exact singleton probabilities, sampling a
/// world *conditioned* on one event, and membership checks of a world in
/// any event.
pub trait UnionEventSystem {
    /// Opaque representation of a sampled world.
    type World;

    /// Number of events in the family.
    fn num_events(&self) -> usize;

    /// Exact `Pr(A_i)`.
    fn event_prob(&self, i: usize) -> f64;

    /// Sample a world with law `Pr(· | A_i)`.
    fn sample_world_given(&self, i: usize, rng: &mut dyn Rng) -> Self::World;

    /// Does `world` satisfy event `j`?
    fn world_satisfies(&self, world: &Self::World, j: usize) -> bool;
}

/// How many coverage samples [`estimate_union`] draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly `n` samples; the estimate is `Z·hits/n`. With
    /// `n = required_samples(m, ε, δ)` this is the Karp–Luby–Madras
    /// `(ε, δ)` FPRAS.
    Fixed(usize),
    /// The **stopping-rule algorithm** of Dagum, Karp, Luby & Ross ("An
    /// optimal algorithm for Monte Carlo estimation"): sample until the
    /// hit count reaches `Υ = 1 + 4(e−2)(1+ε)·ln(2/δ)/ε²`, then estimate
    /// `Z·Υ/N`. The expected sample count is `O(Υ · Z / Pr(∪A))`, so it
    /// adapts to the unknown value instead of paying the fixed
    /// `4m·ln(2/δ)/ε²` worst case — a large saving exactly when the union
    /// is not small relative to `Z`.
    ///
    /// `cap` bounds the loop for unions that are tiny relative to `Z`;
    /// when it is hit, the plain sample mean `Z·hits/N` is returned with
    /// `converged = false`.
    StoppingRule {
        /// Relative error `ε > 0`.
        epsilon: f64,
        /// Failure probability `δ ∈ (0, 1)`.
        delta: f64,
        /// Most samples to draw.
        cap: usize,
    },
}

/// Outcome of an [`estimate_union`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnionEstimate {
    /// Estimated `Pr(∪ A_i)`.
    pub estimate: f64,
    /// Samples drawn.
    pub samples: usize,
    /// Total singleton mass `Z = Σ Pr(A_i)` (the normalizing constant).
    pub total_mass: f64,
    /// False only when a [`Budget::StoppingRule`] run hit its cap before
    /// the rule fired: the estimate is then the plain mean over the drawn
    /// samples and the `(ε, δ)` guarantee does not apply.
    pub converged: bool,
}

/// Number of coverage samples required for an `(ε, δ)` relative-error
/// guarantee over `m` events: `⌈4m · ln(2/δ) / ε²⌉`.
///
/// # Panics
///
/// Panics unless `0 < ε` and `0 < δ < 1`.
pub fn required_samples(m: usize, epsilon: f64, delta: f64) -> usize {
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
    let n = 4.0 * m as f64 * (2.0 / delta).ln() / (epsilon * epsilon);
    n.ceil() as usize
}

/// Estimate `Pr(A_1 ∪ … ∪ A_m)` with the coverage algorithm under
/// `budget`.
///
/// Each sample draws an event index `i` with probability `Pr(A_i)/Z`, then
/// a world `ω ~ Pr(· | A_i)`, and scores 1 iff `i` is the *first* event
/// containing `ω`. The expectation of the score is `Pr(∪A)/Z`, because the
/// pairs `(i, ω)` with `ω ∈ A_i` and `i = min{j : ω ∈ A_j}` partition the
/// union. An empty or zero-mass family draws nothing and returns 0.
///
/// # Panics
///
/// A [`Budget::StoppingRule`] panics unless `0 < ε` and `0 < δ < 1`.
pub fn estimate_union<S, R>(system: &S, budget: Budget, rng: &mut R) -> UnionEstimate
where
    S: UnionEventSystem,
    R: Rng,
{
    // The hit count that stops the loop, and the most samples to draw.
    let (upsilon, cap) = match budget {
        Budget::Fixed(n) => (f64::INFINITY, n),
        Budget::StoppingRule {
            epsilon,
            delta,
            cap,
        } => {
            assert!(epsilon > 0.0, "epsilon must be positive");
            assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
            let upsilon = 1.0
                + 4.0 * (std::f64::consts::E - 2.0) * (1.0 + epsilon) * (2.0 / delta).ln()
                    / (epsilon * epsilon);
            (upsilon, cap)
        }
    };
    let m = system.num_events();
    // Cumulative singleton mass for event selection.
    let mut cumulative = Vec::with_capacity(m);
    let mut z = 0.0f64;
    for i in 0..m {
        let p = system.event_prob(i);
        debug_assert!((0.0..=1.0 + crate::PROB_EPS).contains(&p));
        z += p;
        cumulative.push(z);
    }
    if m == 0 || z <= 0.0 {
        return UnionEstimate {
            estimate: 0.0,
            samples: 0,
            total_mass: 0.0,
            converged: true,
        };
    }
    let mut hits = 0usize;
    let mut drawn = 0usize;
    while (hits as f64) < upsilon && drawn < cap {
        drawn += 1;
        let u = rng.random::<f64>() * z;
        let i = match cumulative.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(idx) => idx + 1,
            Err(idx) => idx,
        }
        .min(m - 1);
        // Skip zero-probability events the search may land on.
        if system.event_prob(i) == 0.0 {
            continue;
        }
        let world = system.sample_world_given(i, rng);
        debug_assert!(
            system.world_satisfies(&world, i),
            "conditional sample must satisfy its own event"
        );
        let canonical = (0..i).all(|j| !system.world_satisfies(&world, j));
        hits += canonical as usize;
    }
    let converged = matches!(budget, Budget::Fixed(_)) || (hits as f64) >= upsilon;
    // Each budget keeps its own operation order, so seeded estimates are
    // reproducible bit for bit.
    let estimate = match budget {
        Budget::Fixed(n) => z * hits as f64 / n.max(1) as f64,
        Budget::StoppingRule { .. } if converged => z * (upsilon / drawn as f64),
        Budget::StoppingRule { .. } => z * (hits as f64 / drawn.max(1) as f64),
    };
    UnionEstimate {
        estimate: crate::clamp_prob(estimate).min(z),
        samples: drawn,
        total_mass: z,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The `(ε, δ)` fixed budget sized by the family's event count.
    fn fpras<S: UnionEventSystem>(sys: &S, epsilon: f64, delta: f64) -> Budget {
        Budget::Fixed(required_samples(sys.num_events(), epsilon, delta))
    }

    fn stopping_rule(epsilon: f64, delta: f64, cap: usize) -> Budget {
        Budget::StoppingRule {
            epsilon,
            delta,
            cap,
        }
    }

    /// Test system: worlds are bit-vectors of independent Bernoulli
    /// variables; event i = "bit i is set".
    struct IndependentBits {
        probs: Vec<f64>,
    }

    impl UnionEventSystem for IndependentBits {
        type World = Vec<bool>;

        fn num_events(&self) -> usize {
            self.probs.len()
        }

        fn event_prob(&self, i: usize) -> f64 {
            self.probs[i]
        }

        fn sample_world_given(&self, i: usize, rng: &mut dyn Rng) -> Vec<bool> {
            self.probs
                .iter()
                .enumerate()
                .map(|(j, &p)| j == i || rng.random::<f64>() < p)
                .collect()
        }

        fn world_satisfies(&self, world: &Vec<bool>, j: usize) -> bool {
            world[j]
        }
    }

    /// Test system with perfectly correlated events: one latent Bernoulli
    /// bit, every event is that same bit. Union = p regardless of m.
    struct FullyCorrelated {
        p: f64,
        m: usize,
    }

    impl UnionEventSystem for FullyCorrelated {
        type World = bool;

        fn num_events(&self) -> usize {
            self.m
        }

        fn event_prob(&self, _i: usize) -> f64 {
            self.p
        }

        fn sample_world_given(&self, _i: usize, _rng: &mut dyn Rng) -> bool {
            true
        }

        fn world_satisfies(&self, world: &bool, _j: usize) -> bool {
            *world
        }
    }

    #[test]
    fn independent_events_estimate_matches_closed_form() {
        let sys = IndependentBits {
            probs: vec![0.3, 0.4, 0.2, 0.1],
        };
        let exact = 1.0 - 0.7 * 0.6 * 0.8 * 0.9;
        let mut rng = SmallRng::seed_from_u64(101);
        let est = estimate_union(&sys, fpras(&sys, 0.05, 0.05), &mut rng);
        assert!(
            (est.estimate - exact).abs() <= 0.05 * exact + 0.01,
            "estimate {} vs exact {exact}",
            est.estimate
        );
    }

    #[test]
    fn correlated_events_do_not_overcount() {
        // The naive union bound would give m*p; the coverage estimator must
        // return ~p.
        let sys = FullyCorrelated { p: 0.4, m: 10 };
        let mut rng = SmallRng::seed_from_u64(7);
        let est = estimate_union(&sys, fpras(&sys, 0.05, 0.05), &mut rng);
        assert!((est.estimate - 0.4).abs() < 0.03, "{}", est.estimate);
        assert!((est.total_mass - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_family_yields_zero() {
        let sys = IndependentBits { probs: vec![] };
        let mut rng = SmallRng::seed_from_u64(1);
        let est = estimate_union(&sys, fpras(&sys, 0.1, 0.1), &mut rng);
        assert_eq!(est.estimate, 0.0);
        assert_eq!(est.total_mass, 0.0);
    }

    #[test]
    fn zero_probability_events_are_harmless() {
        let sys = IndependentBits {
            probs: vec![0.0, 0.5, 0.0],
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let est = estimate_union(&sys, fpras(&sys, 0.05, 0.05), &mut rng);
        assert!((est.estimate - 0.5).abs() < 0.03, "{}", est.estimate);
    }

    #[test]
    fn certain_event_dominates() {
        let sys = IndependentBits {
            probs: vec![1.0, 0.2, 0.3],
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let est = estimate_union(&sys, fpras(&sys, 0.05, 0.05), &mut rng);
        assert!((est.estimate - 1.0).abs() < 0.02, "{}", est.estimate);
    }

    #[test]
    fn adaptive_matches_closed_form_and_converges() {
        let sys = IndependentBits {
            probs: vec![0.3, 0.4, 0.2, 0.1],
        };
        let exact = 1.0 - 0.7 * 0.6 * 0.8 * 0.9;
        let mut rng = SmallRng::seed_from_u64(55);
        let est = estimate_union(&sys, stopping_rule(0.05, 0.05, usize::MAX), &mut rng);
        assert!(est.converged);
        assert!(
            (est.estimate - exact).abs() <= 0.05 * exact + 0.01,
            "{} vs {exact}",
            est.estimate
        );
    }

    #[test]
    fn adaptive_needs_fewer_samples_when_union_is_large() {
        // One dominant event plus many negligible ones: Z ≈ Pr(∪), so
        // the stopping rule fires after ~Υ samples regardless of m — far
        // below the fixed-N worst case of 4m·ln(2/δ)/ε².
        let mut probs = vec![0.9];
        probs.extend(std::iter::repeat_n(1e-3, 11));
        let sys = IndependentBits { probs };
        let mut rng = SmallRng::seed_from_u64(66);
        let adaptive = estimate_union(&sys, stopping_rule(0.1, 0.1, usize::MAX), &mut rng);
        let fixed_n = required_samples(12, 0.1, 0.1);
        assert!(adaptive.converged);
        assert!(
            adaptive.samples * 2 < fixed_n,
            "adaptive {} vs fixed {fixed_n}",
            adaptive.samples
        );
    }

    #[test]
    fn adaptive_cap_is_respected() {
        // A tiny union forces the cap; the fallback estimate is the plain
        // mean and converged is false.
        let sys = IndependentBits {
            probs: vec![1e-9, 1e-9],
        };
        let mut rng = SmallRng::seed_from_u64(77);
        let est = estimate_union(&sys, stopping_rule(0.1, 0.1, 500), &mut rng);
        assert!(!est.converged || est.samples <= 500);
        assert!(est.samples <= 500);
        assert!(est.estimate <= est.total_mass);
    }

    #[test]
    fn adaptive_empty_family() {
        let sys = IndependentBits { probs: vec![] };
        let mut rng = SmallRng::seed_from_u64(1);
        let est = estimate_union(&sys, stopping_rule(0.1, 0.1, 100), &mut rng);
        assert_eq!(est.estimate, 0.0);
        assert!(est.converged);
    }

    #[test]
    fn sample_size_formula() {
        // 4 * 10 * ln(20) / 0.01 = 11982.9...
        assert_eq!(required_samples(10, 0.1, 0.1), 11983);
        assert_eq!(required_samples(0, 0.1, 0.1), 0);
        // Tighter epsilon quadratically increases samples.
        assert!(required_samples(10, 0.05, 0.1) > 4 * required_samples(10, 0.1, 0.1) - 4);
    }

    #[test]
    fn estimate_never_exceeds_total_mass_or_one() {
        let sys = IndependentBits {
            probs: vec![0.9, 0.9, 0.9],
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let est = estimate_union(&sys, Budget::Fixed(2_000), &mut rng);
        assert!(est.estimate <= 1.0);
        assert!(est.estimate <= est.total_mass);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_nonpositive_epsilon() {
        required_samples(3, 0.0, 0.1);
    }
}
