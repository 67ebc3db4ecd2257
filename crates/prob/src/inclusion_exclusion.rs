//! Exact union probabilities via the inclusion–exclusion principle.
//!
//! `Pr(∪A_i) = Σ_∅≠S⊆[m] (−1)^{|S|+1} Pr(∩_{i∈S} A_i)` has `2^m − 1`
//! terms, but on real event families many of them vanish: the joint of a
//! subset bounds the joint of every superset (`∩_{S∪T} ⊆ ∩_S`), so once a
//! subset's joint is zero its whole sublattice is zero too.
//! [`union_probability`] therefore walks the subset lattice depth first,
//! letting the caller carry each subset's state from its parent, and skips
//! the subtree below every zero joint. An optional term budget turns the
//! walk into a probe: past the budget it reports [`UnionWalk::GaveUp`]
//! rather than a partial sum, and the caller can fall back to the
//! Karp–Luby estimator in [`crate::dnf`].

/// Largest family [`union_probability`] evaluates: beyond it the walk
/// gives up at once, since an unprunable family would take `2^m` terms.
pub const MAX_EXACT_EVENTS: usize = 24;

/// Joint probabilities supplied incrementally to [`union_probability`].
///
/// The walk visits subsets depth first, in lexicographic order of their
/// sorted indices. It grows the subset `S = {s_0 < … < s_{d−1}}` of size
/// `d` into `S ∪ {i}` (`i > s_{d−1}`) by calling `extend(d, i)`, which
/// returns `Pr(∩_{j∈S∪{i}} A_j)`. When `extend(d, i)` is called, the calls
/// that built `S` were `extend(0, s_0)`, …, `extend(d−1, s_{d−1})`, so an
/// implementation may keep one state per depth and derive depth `d`'s
/// state from depth `d − 1`'s.
pub trait SubsetJoints {
    /// Number of events `m`.
    fn num_events(&self) -> usize;

    /// `Pr(∩_{j∈S∪{event}} A_j)`, where `S` is the subset built by the
    /// walk's calls at depths `0..depth` (see the trait docs).
    fn extend(&mut self, depth: usize, event: usize) -> f64;
}

/// Outcome of [`union_probability`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnionWalk {
    /// The walk finished: the exact union probability and the number of
    /// joints it evaluated.
    Exact {
        /// `Pr(A_1 ∪ … ∪ A_m)`.
        prob: f64,
        /// Joints evaluated (calls to [`SubsetJoints::extend`]).
        terms: u64,
    },
    /// The term budget ran out, or the family has more than
    /// [`MAX_EXACT_EVENTS`] events, before the walk finished.
    GaveUp {
        /// Joints evaluated before giving up.
        terms: u64,
    },
}

impl UnionWalk {
    /// The union probability, when the walk finished.
    pub fn prob(self) -> Option<f64> {
        match self {
            UnionWalk::Exact { prob, .. } => Some(prob),
            UnionWalk::GaveUp { .. } => None,
        }
    }

    /// Joints evaluated, finished or not.
    pub fn terms(self) -> u64 {
        match self {
            UnionWalk::Exact { terms, .. } | UnionWalk::GaveUp { terms } => terms,
        }
    }
}

/// Exact `Pr(A_1 ∪ … ∪ A_m)` by the pruned depth-first walk of the subset
/// lattice (see the [module docs](self)).
///
/// A subset whose joint is `0` contributes nothing and neither does any
/// superset, so its subtree is skipped. With `term_budget = Some(n)` the
/// walk evaluates at most `n` joints and reports
/// [`UnionWalk::GaveUp`] if it needs more; `None` lets it run to the end.
/// Families larger than [`MAX_EXACT_EVENTS`] give up without evaluating
/// anything.
pub fn union_probability<J: SubsetJoints + ?Sized>(
    joints: &mut J,
    term_budget: Option<u64>,
) -> UnionWalk {
    let m = joints.num_events();
    if m > MAX_EXACT_EVENTS {
        return UnionWalk::GaveUp { terms: 0 };
    }
    let mut walk = Walk {
        joints,
        m,
        terms: 0,
        budget: term_budget.unwrap_or(u64::MAX),
        total: 0.0,
    };
    if walk.descend(0, 0, 1.0) {
        UnionWalk::Exact {
            prob: crate::clamp_prob(walk.total),
            terms: walk.terms,
        }
    } else {
        UnionWalk::GaveUp { terms: walk.terms }
    }
}

struct Walk<'a, J: ?Sized> {
    joints: &'a mut J,
    m: usize,
    terms: u64,
    budget: u64,
    total: f64,
}

impl<J: SubsetJoints + ?Sized> Walk<'_, J> {
    /// Add the terms of every extension of the current size-`depth`
    /// subset by indices from `start` on; `sign` is the sign of a term one
    /// larger than that subset. Returns `false` when the budget ran out.
    fn descend(&mut self, depth: usize, start: usize, sign: f64) -> bool {
        for i in start..self.m {
            if self.terms == self.budget {
                return false;
            }
            self.terms += 1;
            let joint = self.joints.extend(depth, i);
            if joint <= 0.0 {
                continue;
            }
            self.total += sign * joint;
            if !self.descend(depth + 1, i + 1, -sign) {
                return false;
            }
        }
        true
    }
}

/// Adapts a joint callback over sorted index subsets to [`SubsetJoints`].
struct SubsetCallback<F> {
    m: usize,
    subset: Vec<usize>,
    joint: F,
}

impl<F: FnMut(&[usize]) -> f64> SubsetJoints for SubsetCallback<F> {
    fn num_events(&self) -> usize {
        self.m
    }

    fn extend(&mut self, depth: usize, event: usize) -> f64 {
        self.subset.truncate(depth);
        self.subset.push(event);
        (self.joint)(&self.subset)
    }
}

/// Exact `Pr(A_1 ∪ … ∪ A_m)` given a callback returning the joint
/// probability `Pr(∩_{i∈S} A_i)` for any non-empty index subset `S`
/// (presented as a sorted slice of indices).
///
/// Runs [`union_probability`] without a term budget, so the callback sees
/// only subsets whose every proper prefix had a positive joint. Callers
/// that can update a joint incrementally should implement
/// [`SubsetJoints`] instead.
///
/// # Panics
///
/// Panics if `m > MAX_EXACT_EVENTS`.
///
/// # Examples
///
/// ```
/// use prob::exact_union_probability;
/// // Two independent events of probability 1/2.
/// let p = exact_union_probability(2, |s| 0.5f64.powi(s.len() as i32));
/// assert!((p - 0.75).abs() < 1e-12);
/// ```
pub fn exact_union_probability<F>(m: usize, joint: F) -> f64
where
    F: FnMut(&[usize]) -> f64,
{
    assert!(
        m <= MAX_EXACT_EVENTS,
        "inclusion-exclusion over {m} events exceeds the {MAX_EXACT_EVENTS}-event cap"
    );
    let mut callback = SubsetCallback {
        m,
        subset: Vec::with_capacity(m),
        joint,
    };
    union_probability(&mut callback, None)
        .prob()
        .expect("an unbudgeted walk within the cap always finishes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn empty_family_has_zero_union() {
        assert_eq!(exact_union_probability(0, |_| unreachable!()), 0.0);
    }

    #[test]
    fn single_event_is_identity() {
        let p = exact_union_probability(1, |s| {
            assert_eq!(s, &[0]);
            0.37
        });
        assert!((p - 0.37).abs() < 1e-12);
    }

    #[test]
    fn independent_events_match_complement_product() {
        // Pr(∪) = 1 - Π (1 - p_i) for independent events.
        let probs = [0.3, 0.5, 0.2, 0.7];
        let p = exact_union_probability(probs.len(), |s| s.iter().map(|&i| probs[i]).product());
        let expected = 1.0 - probs.iter().map(|p| 1.0 - p).product::<f64>();
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn matches_direct_world_enumeration() {
        // Random events over a discrete world space; inclusion-exclusion
        // must agree with direct measurement of the union. Sparse masks
        // make many joints zero, so the pruned subtrees are exercised.
        let mut rng = SmallRng::seed_from_u64(13);
        for density in [0.4, 0.15] {
            for _ in 0..50 {
                let worlds = 20;
                let m = 5;
                let mut wp: Vec<f64> = (0..worlds).map(|_| rng.random::<f64>()).collect();
                let tot: f64 = wp.iter().sum();
                wp.iter_mut().for_each(|p| *p /= tot);
                let masks: Vec<Vec<bool>> = (0..m)
                    .map(|_| (0..worlds).map(|_| rng.random::<f64>() < density).collect())
                    .collect();
                let by_ie = exact_union_probability(m, |s| {
                    (0..worlds)
                        .filter(|&w| s.iter().all(|&i| masks[i][w]))
                        .map(|w| wp[w])
                        .sum()
                });
                let direct: f64 = (0..worlds)
                    .filter(|&w| masks.iter().any(|mk| mk[w]))
                    .map(|w| wp[w])
                    .sum();
                assert!((by_ie - direct).abs() < 1e-9, "{by_ie} vs {direct}");
            }
        }
    }

    #[test]
    fn zero_joints_prune_their_sublattice() {
        // Pairwise-disjoint events: every pair has joint 0, so the walk
        // evaluates the m singletons and the m(m−1)/2 pairs, nothing more.
        let m = 12;
        let mut calls = 0u64;
        let p = exact_union_probability(m, |s| {
            calls += 1;
            assert!(s.len() <= 2, "walked below a zero joint: {s:?}");
            if s.len() == 1 {
                0.05
            } else {
                0.0
            }
        });
        assert!((p - 0.6).abs() < 1e-12);
        assert_eq!(calls, (m + m * (m - 1) / 2) as u64);
    }

    #[test]
    fn exhausted_budget_gives_up_instead_of_a_partial_sum() {
        let probs = [0.3, 0.5, 0.2, 0.7];
        let mut joints = SubsetCallback {
            m: probs.len(),
            subset: Vec::new(),
            joint: |s: &[usize]| s.iter().map(|&i| probs[i]).product::<f64>(),
        };
        // Nothing is zero here: the full walk takes 2^4 − 1 = 15 terms.
        let full = union_probability(&mut joints, None);
        assert_eq!(full.terms(), 15);
        assert_eq!(union_probability(&mut joints, Some(15)), full);
        for budget in [0, 1, 7, 14] {
            let walk = union_probability(&mut joints, Some(budget));
            assert_eq!(walk, UnionWalk::GaveUp { terms: budget }, "budget {budget}");
            assert_eq!(walk.prob(), None);
        }
    }

    #[test]
    fn oversized_families_give_up_without_evaluating() {
        let mut joints = SubsetCallback {
            m: MAX_EXACT_EVENTS + 1,
            subset: Vec::new(),
            joint: |_: &[usize]| -> f64 { unreachable!() },
        };
        assert_eq!(
            union_probability(&mut joints, None),
            UnionWalk::GaveUp { terms: 0 }
        );
    }

    #[test]
    fn result_dominates_pairwise_bounds() {
        use crate::union_bounds::PairwiseUnionBounds;
        let mut rng = SmallRng::seed_from_u64(29);
        for _ in 0..50 {
            let worlds = 16;
            let m = 4;
            let mut wp: Vec<f64> = (0..worlds).map(|_| rng.random::<f64>()).collect();
            let tot: f64 = wp.iter().sum();
            wp.iter_mut().for_each(|p| *p /= tot);
            let masks: Vec<Vec<bool>> = (0..m)
                .map(|_| (0..worlds).map(|_| rng.random::<f64>() < 0.35).collect())
                .collect();
            let joint = |s: &[usize]| -> f64 {
                (0..worlds)
                    .filter(|&w| s.iter().all(|&i| masks[i][w]))
                    .map(|w| wp[w])
                    .sum()
            };
            let exact = exact_union_probability(m, joint);
            let mut b = PairwiseUnionBounds::new((0..m).map(|i| joint(&[i])).collect::<Vec<_>>());
            for i in 0..m {
                for j in i + 1..m {
                    b.set_pair(i, j, joint(&[i, j]));
                }
            }
            assert!(b.lower() <= exact + 1e-9);
            assert!(exact <= b.upper() + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn rejects_oversized_families() {
        exact_union_probability(MAX_EXACT_EVENTS + 1, |_| 0.0);
    }
}
