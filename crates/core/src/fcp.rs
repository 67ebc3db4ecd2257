//! `ApproxFCP` (Fig. 2 of the paper): the Monte-Carlo FPRAS for the
//! frequent closed probability.
//!
//! The frequent non-closed probability is the probability of a union of
//! non-closure events — a DNF probability — estimated by the Karp–Luby
//! coverage algorithm ([`prob::dnf::estimate_union`]); subtracting it
//! from the exact frequent probability gives the FCP estimate
//! `P̂r_FC(X)` with `Pr(|P̂r_FC − Pr_FC| ≤ ε·err) ≥ 1 − δ` in the sense of
//! the underlying FPRAS guarantee on the union term.
//!
//! [`estimate_fcp`] is the one estimator: a fixed `N = ⌈4k · ln(2/δ) /
//! ε²⌉` budget (optionally split over worker threads) or the adaptive
//! stopping rule. [`approx_fcp`] is the paper's entry point, the fixed
//! budget on one thread.

use prob::dnf::{estimate_union, required_samples, Budget};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::events::NonClosureEvents;
use crate::par;

/// Result of one `ApproxFCP` run.
#[derive(Debug, Clone, Copy)]
pub struct ApproxFcpResult {
    /// Estimated frequent closed probability.
    pub fcp: f64,
    /// Estimated frequent non-closed probability (the union term).
    pub fnc: f64,
    /// Monte-Carlo samples drawn.
    pub samples: usize,
}

/// Estimate `Pr_FC(X)` given the itemset's exact frequent probability and
/// its non-closure event family, with the paper's `(ε, δ)` sample budget
/// on one thread.
///
/// The paper sizes the budget by `k = m − |X|`, the number of extension
/// items ([`NonClosureEvents::considered_items`]) — not by the (often far
/// smaller) number of events that survive the exact-zero filter. The
/// estimate is clamped into `[0, pr_f]`: the FCP can never exceed the
/// frequent probability.
pub fn approx_fcp<R: Rng>(
    events: &NonClosureEvents,
    pr_f: f64,
    epsilon: f64,
    delta: f64,
    rng: &mut R,
) -> ApproxFcpResult {
    let n = required_samples(events.considered_items(), epsilon, delta);
    estimate_fcp(events, pr_f, Budget::Fixed(n), 1, rng)
}

/// Estimate `Pr_FC(X) = pr_f − Pr(∪ C_e)` under `budget`, clamped into
/// `[0, pr_f]`. An empty family is closed whenever it is frequent:
/// the estimate is `pr_f`, from no samples.
///
/// With `threads > 1` a [`Budget::Fixed`] run is split across up to
/// `threads` workers (chunked Karp–Luby). It then draws one `call_seed`
/// from `rng`; each chunk gets its own `SmallRng` whose seed is drawn
/// sequentially from a stream seeded with `call_seed`, so the estimate
/// depends only on `(rng state, threads)` — never on scheduling. Every
/// chunk shares the total event mass `Z`, so the chunk estimates
/// `Z·hits_i/n_i` combine exactly via their sample-weighted mean: the
/// FPRAS guarantee of the single-pass estimator carries over unchanged.
///
/// Otherwise — one thread, or the stopping rule, whose every draw decides
/// whether to continue — the estimator samples on `rng` directly.
pub fn estimate_fcp<R: Rng>(
    events: &NonClosureEvents,
    pr_f: f64,
    budget: Budget,
    threads: usize,
    rng: &mut R,
) -> ApproxFcpResult {
    let (fnc, samples) = match budget {
        Budget::Fixed(n) if threads > 1 => chunked_union(events, n, threads, rng.next_u64()),
        _ => {
            let e = estimate_union(events, budget, rng);
            (e.estimate, e.samples)
        }
    };
    ApproxFcpResult {
        fcp: (pr_f - fnc).clamp(0.0, pr_f),
        fnc,
        samples,
    }
}

/// `(Pr(∪ C_e) estimate, samples)` from `n` samples split over up to
/// `threads` workers; see [`estimate_fcp`].
fn chunked_union(
    events: &NonClosureEvents,
    n: usize,
    threads: usize,
    call_seed: u64,
) -> (f64, usize) {
    if events.is_empty() {
        return (0.0, 0);
    }
    let mut seed_rng = SmallRng::seed_from_u64(call_seed);
    let tasks: Vec<(usize, u64)> = par::chunk_sizes(n, threads)
        .into_iter()
        .map(|c| (c, seed_rng.next_u64()))
        .collect();
    let estimates = par::scatter(threads, tasks, |_, (chunk, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        estimate_union(events, Budget::Fixed(chunk), &mut rng)
    });
    let total: usize = estimates.iter().map(|e| e.samples).sum();
    let weighted: f64 = estimates
        .iter()
        .map(|e| e.estimate * e.samples as f64)
        .sum();
    let estimate = if total > 0 {
        weighted / total as f64
    } else {
        0.0
    };
    (estimate, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use utdb::{Item, UncertainDatabase};

    fn table2() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
        ])
    }

    fn family(db: &UncertainDatabase, symbols: &str, min_sup: usize) -> (NonClosureEvents, f64) {
        let x: Vec<Item> = symbols
            .split_whitespace()
            .map(|s| db.dictionary().get(s).unwrap())
            .collect();
        let tids = db.tidset_of_itemset(&x).into_bitmap();
        let ext = (0..db.num_items() as u32)
            .map(Item)
            .filter(|i| !x.contains(i));
        let events = NonClosureEvents::build(db, &tids, ext, min_sup);
        let pr_f = pfim::frequent_probability(db, &x, min_sup);
        (events, pr_f)
    }

    /// [`estimate_fcp`] with the paper's fixed budget at `ε = δ =
    /// eps_delta` over `threads`, seeded.
    fn chunked(
        events: &NonClosureEvents,
        pr_f: f64,
        eps_delta: f64,
        threads: usize,
        seed: u64,
    ) -> ApproxFcpResult {
        let n = required_samples(events.considered_items(), eps_delta, eps_delta);
        let mut rng = SmallRng::seed_from_u64(seed);
        estimate_fcp(events, pr_f, Budget::Fixed(n), threads, &mut rng)
    }

    #[test]
    fn paper_value_for_abc() {
        // Pr_FC({a,b,c}) = 0.8754 at min_sup 2 (Example 1.2 / 4.3).
        let db = table2();
        let (events, pr_f) = family(&db, "a b c", 2);
        let mut rng = SmallRng::seed_from_u64(99);
        let r = approx_fcp(&events, pr_f, 0.05, 0.05, &mut rng);
        assert!((r.fcp - 0.8754).abs() < 0.01, "{}", r.fcp);
        assert!(r.samples > 0);
    }

    #[test]
    fn paper_value_for_abcd() {
        // {a,b,c,d} is maximal: FCP = Pr_F = 0.81, no sampling needed.
        let db = table2();
        let (events, pr_f) = family(&db, "a b c d", 2);
        let r = approx_fcp(&events, pr_f, 0.1, 0.1, &mut SmallRng::seed_from_u64(1));
        assert_eq!(r.fcp, 0.81);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn never_closed_itemsets_estimate_near_zero() {
        // {a,b} is covered by c in every world: Pr_FC = 0.
        let db = table2();
        let (events, pr_f) = family(&db, "a b", 2);
        let r = approx_fcp(&events, pr_f, 0.05, 0.05, &mut SmallRng::seed_from_u64(2));
        assert!(r.fcp < 0.02, "{}", r.fcp);
    }

    #[test]
    fn estimate_is_clamped_to_frequent_probability() {
        let db = table2();
        let (events, pr_f) = family(&db, "d", 1);
        let r = approx_fcp(&events, pr_f, 0.2, 0.2, &mut SmallRng::seed_from_u64(3));
        assert!(r.fcp >= 0.0 && r.fcp <= pr_f);
    }

    #[test]
    fn adaptive_variant_matches_fixed_budget_variant() {
        let db = table2();
        let (events, pr_f) = family(&db, "a b c", 2);
        let fixed = approx_fcp(&events, pr_f, 0.05, 0.05, &mut SmallRng::seed_from_u64(8));
        let cap = required_samples(events.considered_items(), 0.05, 0.05);
        let budget = Budget::StoppingRule {
            epsilon: 0.05,
            delta: 0.05,
            cap,
        };
        let adaptive = estimate_fcp(&events, pr_f, budget, 1, &mut SmallRng::seed_from_u64(9));
        assert!((fixed.fcp - adaptive.fcp).abs() < 0.02);
        // The union here is sizeable relative to Z, so adaptivity saves
        // samples.
        assert!(adaptive.samples <= fixed.samples);
    }

    #[test]
    fn chunked_estimate_is_reproducible_per_seed_and_thread_count() {
        let db = table2();
        let (events, pr_f) = family(&db, "a b c", 2);
        for threads in [1, 2, 4, 7] {
            let a = chunked(&events, pr_f, 0.1, threads, 0xfeed);
            let b = chunked(&events, pr_f, 0.1, threads, 0xfeed);
            assert_eq!(a.fcp.to_bits(), b.fcp.to_bits(), "threads={threads}");
            assert_eq!(a.samples, b.samples);
        }
        // Different seeds diverge (the estimator really is sampling).
        // The {a} family has three non-closure events, so the hit rate is
        // genuinely stochastic ({a,b,c}'s single-event family is not: its
        // estimate is exactly `z` for every seed).
        let (events, pr_f) = family(&db, "a", 2);
        let base = chunked(&events, pr_f, 0.1, 4, 0xfeed).fcp.to_bits();
        let diverged =
            (0..4u64).any(|k| chunked(&events, pr_f, 0.1, 4, 0xbeef + k).fcp.to_bits() != base);
        assert!(diverged, "sampling estimator never diverged across seeds");
    }

    #[test]
    fn chunked_estimate_tracks_exact_value() {
        // Pr_FC({a,b,c}) = 0.8754 (Example 1.2 / 4.3), for every chunking.
        let db = table2();
        let (events, pr_f) = family(&db, "a b c", 2);
        for threads in [1, 2, 4, 7] {
            let r = chunked(&events, pr_f, 0.05, threads, 42);
            assert!(
                (r.fcp - 0.8754).abs() < 0.01,
                "threads={threads}: {}",
                r.fcp
            );
            // All chunks together still draw the full fixed-N budget.
            let n = approx_fcp(&events, pr_f, 0.05, 0.05, &mut SmallRng::seed_from_u64(5)).samples;
            assert_eq!(r.samples, n);
        }
    }

    #[test]
    fn chunked_empty_family_short_circuits() {
        let db = table2();
        let (events, pr_f) = family(&db, "a b c d", 2);
        let r = chunked(&events, pr_f, 0.1, 4, 7);
        assert_eq!(r.fcp, 0.81);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn tighter_epsilon_draws_more_samples() {
        let db = table2();
        let (events, pr_f) = family(&db, "a", 2);
        let loose = approx_fcp(&events, pr_f, 0.2, 0.1, &mut SmallRng::seed_from_u64(4));
        let tight = approx_fcp(&events, pr_f, 0.05, 0.1, &mut SmallRng::seed_from_u64(4));
        assert!(tight.samples > loose.samples * 10);
    }
}
