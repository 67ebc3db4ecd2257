//! The family of *frequent non-closure events* of an itemset.
//!
//! For an itemset `X` with supporting tuples `T(X)` and a co-occurring
//! item `e ∉ X`, the event (Definition 4.1)
//!
//! ```text
//! C_e  =  "every tuple of T(X) \ T(X∪e) is absent"  ∧
//!         "at least min_sup tuples of T(X∪e) are present"
//! ```
//!
//! says that `X` is frequent but its support is matched by the superset
//! `X∪e`. The frequent non-closed probability is `Pr(∪_e C_e)` and
//!
//! ```text
//! Pr_FC(X) = Pr_F(X) − Pr(∪_e C_e).
//! ```
//!
//! Because the two conjuncts of `C_e` touch disjoint tuples,
//!
//! ```text
//! Pr(∧_{e∈S} C_e) = Π_{t ∈ T(X)\T(X∪S)} (1 − p_t) · Pr{ sup(X∪S) ≥ min_sup },
//! ```
//!
//! which yields singleton/pairwise probabilities for the Lemma 4.4 bounds,
//! arbitrary joints for exact inclusion–exclusion, and conditional world
//! samplers for the Karp–Luby `ApproxFCP` estimator. Only the tuples of
//! `T(X)` matter — every event is measurable with respect to them — so all
//! computation happens over `k = |T(X)|` *positions*, not the whole
//! database.

use std::sync::OnceLock;

use prob::cond_sample::ConditionalBernoulliSampler;
use prob::dnf::UnionEventSystem;
use prob::inclusion_exclusion::{SubsetJoints, UnionWalk};
use prob::poisson_binomial::{tail_at_least, tail_at_least_with};
use prob::union_bounds::PairwiseUnionBounds;
use rand::{Rng, RngExt};
use utdb::{Item, TidBitmap, UncertainDatabase};

/// One non-closure event `C_e`.
#[derive(Debug, Clone)]
struct NcEvent {
    /// The extension item.
    item: Item,
    /// Positions of `T(X∪e)` within `T(X)` (universe `k`).
    mask: TidBitmap,
    /// Existential probabilities at the mask positions, ascending.
    mask_probs: Vec<f64>,
    /// `Pr(C_e)`: the absence factor `Π_{p ∉ mask} (1 − probs[p])`
    /// times `Pr{ sup(X∪e) ≥ min_sup }`.
    prob: f64,
}

/// The complete family of non-closure events of one itemset.
pub struct NonClosureEvents {
    /// Existential probabilities of `T(X)`, position-indexed.
    probs: Vec<f64>,
    min_sup: usize,
    /// Events with strictly positive probability (zero-probability events
    /// contribute nothing to any union, joint, bound or sample).
    events: Vec<NcEvent>,
    /// Total `Pr(C_e)` mass of the events (kept for diagnostics).
    total_mass: f64,
    /// Extension items examined at construction — the paper's
    /// `k = m − |X|`, which sizes the `ApproxFCP` sample budget.
    considered: usize,
    /// Conditional samplers, one per event, each built on first use. The
    /// slots themselves are allocated on the family's first sample, so a
    /// family that is only bounded or walked allocates none.
    samplers: OnceLock<Box<[OnceLock<ConditionalBernoulliSampler>]>>,
}

// Chunked `ApproxFCP` shares one family between worker threads.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<NonClosureEvents>();
};

/// Reusable buffers for [`NonClosureEvents::joint_with`].
#[derive(Default)]
struct JointScratch {
    probs: Vec<f64>,
    dp: Vec<f64>,
    mask: Option<TidBitmap>,
}

/// One extension item's entry in a family under construction.
enum Entry {
    /// `T(X∪e) ⊂ T(X)`: the event, fully computed.
    Event(NcEvent),
    /// `T(X∪e) = T(X)`: the event is "`sup(X) ≥ min_sup`" itself, the
    /// same for every such item (in particular every item of `X`). Its
    /// probability is the full-cover tail, which the caller computes at
    /// most once and only when it keeps a full-cover item.
    FullCover(Item),
}

/// Shared event constructor: the count / mask / absence-factor / tail
/// computation both [`NonClosureEvents::build`] and [`EventTable::build`]
/// run per item. Returns `None` when `Pr(C_e) = 0`.
///
/// The count comes first: an item sharing fewer than `min_sup` tuples of
/// `T(X)` is rejected, and a full-cover item is recognized, before any
/// position is probed.
fn event_for_item(
    db: &UncertainDatabase,
    x_tids: &TidBitmap,
    positions: &[usize],
    probs: &[f64],
    item: Item,
    min_sup: usize,
    dp_scratch: &mut [f64],
) -> Option<Entry> {
    let item_tids = db.bitmap_of(item);
    let shared = x_tids.and_count(item_tids);
    if shared < min_sup {
        return None; // Pr(C_e) = 0
    }
    if shared == positions.len() {
        return Some(Entry::FullCover(item));
    }
    let mut mask = TidBitmap::new(positions.len());
    let mut mask_probs = Vec::with_capacity(shared);
    let mut absent_factor = 1.0f64;
    for (pos, &tid) in positions.iter().enumerate() {
        if item_tids.contains(tid) {
            mask.insert(pos);
            mask_probs.push(probs[pos]);
        } else {
            absent_factor *= 1.0 - probs[pos];
        }
    }
    if absent_factor == 0.0 {
        return None; // Pr(C_e) = 0
    }
    let prob = absent_factor * tail_at_least_with(&mask_probs, min_sup, dp_scratch);
    if prob <= 0.0 {
        return None;
    }
    Some(Entry::Event(NcEvent {
        item,
        mask,
        mask_probs,
        prob,
    }))
}

/// The event of a full-cover item, whose probability is the full-cover
/// tail `Pr{sup(X) ≥ min_sup}` times an absence factor over no positions
/// (exactly `1.0`). Returns `None` when that tail is 0.
fn full_cover_event(item: Item, probs: &[f64], tail: f64) -> Option<NcEvent> {
    let prob = 1.0 * tail;
    (prob > 0.0).then(|| NcEvent {
        item,
        mask: TidBitmap::full(probs.len()),
        mask_probs: probs.to_vec(),
        prob,
    })
}

impl NonClosureEvents {
    /// Build the event family for the itemset with supporting tuples
    /// `x_tids`, considering `extension_items` (every item `e ∉ X`; items
    /// not co-occurring with `X` are skipped automatically since their
    /// event has probability 0 for `min_sup ≥ 1`).
    pub fn build(
        db: &UncertainDatabase,
        x_tids: &TidBitmap,
        extension_items: impl IntoIterator<Item = Item>,
        min_sup: usize,
    ) -> Self {
        let min_sup = min_sup.max(1);
        let positions: Vec<usize> = x_tids.iter().collect();
        let probs: Vec<f64> = positions.iter().map(|&tid| db.probability(tid)).collect();
        let mut dp_scratch = vec![0.0f64; min_sup + 1];
        let mut full_tail = None;

        let mut events = Vec::new();
        let mut considered = 0usize;
        for item in extension_items {
            considered += 1;
            let entry = event_for_item(
                db,
                x_tids,
                &positions,
                &probs,
                item,
                min_sup,
                &mut dp_scratch,
            );
            events.extend(match entry {
                None => None,
                Some(Entry::Event(event)) => Some(event),
                Some(Entry::FullCover(item)) => {
                    let tail = *full_tail.get_or_insert_with(|| {
                        tail_at_least_with(&probs, min_sup, &mut dp_scratch)
                    });
                    full_cover_event(item, &probs, tail)
                }
            });
        }
        Self::from_parts(probs, min_sup, events, considered)
    }

    /// Assemble a family from already-built events (shared by
    /// [`NonClosureEvents::build`] and [`EventTable::family_excluding`]).
    /// The total mass is summed in event order, so families with equal
    /// event lists are bitwise identical however they were produced.
    fn from_parts(
        probs: Vec<f64>,
        min_sup: usize,
        events: Vec<NcEvent>,
        considered: usize,
    ) -> Self {
        let total_mass = events.iter().map(|e| e.prob).sum();
        Self {
            probs,
            min_sup,
            events,
            total_mass,
            considered,
            samplers: OnceLock::new(),
        }
    }

    /// Number of extension items examined at construction (the paper's
    /// `k = m − |X|`); at least the number of retained events.
    pub fn considered_items(&self) -> usize {
        self.considered
    }

    /// Number of retained (positive-probability) events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no extension can ever tie `X`'s support — then
    /// `Pr_FC(X) = Pr_F(X)` exactly.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of positions (`k = |T(X)|`).
    pub fn num_positions(&self) -> usize {
        self.probs.len()
    }

    /// Total singleton mass `Σ Pr(C_e)`.
    pub fn total_mass(&self) -> f64 {
        self.total_mass
    }

    /// The extension item of event `i`.
    pub fn item(&self, i: usize) -> Item {
        self.events[i].item
    }

    /// `Pr(∧_{i∈subset} C_i)` for a sorted index subset.
    ///
    /// The conjunction forces every position outside the mask intersection
    /// absent and at least `min_sup` present inside it.
    pub fn joint(&self, subset: &[usize]) -> f64 {
        self.joint_with(subset, &mut JointScratch::default())
    }

    /// [`NonClosureEvents::joint`] on caller-owned buffers, so a loop over
    /// many joints allocates once.
    fn joint_with(&self, subset: &[usize], scratch: &mut JointScratch) -> f64 {
        match subset {
            [] => 1.0,
            [i] => self.events[*i].prob,
            [first, rest @ ..] => {
                let mask = scratch
                    .mask
                    .get_or_insert_with(|| self.events[*first].mask.clone());
                mask.clone_from(&self.events[*first].mask);
                for &i in rest {
                    mask.and_assign(&self.events[i].mask);
                }
                scratch.probs.clear();
                let mut absent_factor = 1.0f64;
                for (pos, &p) in self.probs.iter().enumerate() {
                    if mask.contains(pos) {
                        scratch.probs.push(p);
                    } else {
                        absent_factor *= 1.0 - p;
                    }
                }
                if scratch.probs.len() < self.min_sup || absent_factor == 0.0 {
                    return 0.0;
                }
                if scratch.dp.len() < self.min_sup + 1 {
                    scratch.dp.resize(self.min_sup + 1, 0.0);
                }
                absent_factor * tail_at_least_with(&scratch.probs, self.min_sup, &mut scratch.dp)
            }
        }
    }

    /// Lemma 4.4 bounds on `Pr_FC(X) = pr_f − Pr(∪ C_e)` as
    /// `(lower, upper)`.
    ///
    /// Tiered for cost: the union bound `Σ Pr(C_e)` and the max-singleton
    /// bound need no pairwise joints; when they cannot already decide
    /// against `decision_threshold` (pass `pfct`; pass `None` to force the
    /// full computation), the de Caen / Kwerel bounds are evaluated over
    /// the `max_pairwise` highest-probability events with the dropped
    /// mass folded soundly into the upper union bound.
    pub fn fcp_bounds(
        &self,
        pr_f: f64,
        max_pairwise: usize,
        decision_threshold: Option<f64>,
    ) -> (f64, f64) {
        let (lo, hi, _) = self.fcp_bounds_explained(pr_f, max_pairwise, decision_threshold);
        (lo, hi)
    }

    /// [`NonClosureEvents::fcp_bounds`], additionally reporting which
    /// tier produced the sandwich ([`BoundTier`]). The `pfct`
    /// monotonicity carve needs the tier: a [`BoundTier::CheapEarly`]
    /// decision depends on the threshold the bounds were asked against,
    /// so a cached result set is only reusable below that decision's
    /// lower bound, while [`BoundTier::Refined`] and
    /// [`BoundTier::EmptyFamily`] sandwiches are threshold-independent.
    pub fn fcp_bounds_explained(
        &self,
        pr_f: f64,
        max_pairwise: usize,
        decision_threshold: Option<f64>,
    ) -> (f64, f64, BoundTier) {
        if self.events.is_empty() {
            return (pr_f, pr_f, BoundTier::EmptyFamily);
        }
        let s1 = self.total_mass;
        let max_single = self.events.iter().map(|e| e.prob).fold(0.0f64, f64::max);
        // Cheap sandwich: max_single ≤ Pr(∪) ≤ min(S1, 1).
        let mut lower_fc = (pr_f - s1.min(1.0)).max(0.0);
        let mut upper_fc = (pr_f - max_single).max(0.0);
        if let Some(threshold) = decision_threshold {
            if upper_fc <= threshold || lower_fc > threshold {
                return (lower_fc, upper_fc, BoundTier::CheapEarly);
            }
        }
        // Pairwise refinement over the heaviest events.
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by(|&a, &b| self.events[b].prob.total_cmp(&self.events[a].prob));
        order.truncate(max_pairwise.max(1));
        let dropped: f64 = s1 - order.iter().map(|&i| self.events[i].prob).sum::<f64>();
        let mut bounds =
            PairwiseUnionBounds::new(order.iter().map(|&i| self.events[i].prob).collect())
                .with_dropped_mass(dropped.max(0.0));
        let mut scratch = JointScratch::default();
        for (a, &i) in order.iter().enumerate() {
            for (b, &j) in order.iter().enumerate().skip(a + 1) {
                let pair = if i < j { [i, j] } else { [j, i] };
                let joint = self.joint_with(&pair, &mut scratch);
                // Guard against DP rounding pushing the joint a hair above
                // a marginal.
                let cap = self.events[i].prob.min(self.events[j].prob);
                bounds.set_pair(a, b, joint.min(cap));
            }
        }
        lower_fc = lower_fc.max((pr_f - bounds.upper()).max(0.0));
        upper_fc = upper_fc.min((pr_f - bounds.lower()).max(0.0));
        (lower_fc, upper_fc, BoundTier::Refined)
    }

    /// `Pr(∪ C_e)` by the pruned inclusion–exclusion walk
    /// ([`prob::union_probability`]), evaluating at most `term_budget`
    /// joints when one is given.
    ///
    /// Dominated events are dropped first: `mask_i ⊆ mask_j` implies
    /// `C_i ⊆ C_j`, so the union is unchanged (among equal masks the
    /// lowest index stays), and the walk's
    /// [`MAX_EXACT_EVENTS`](prob::inclusion_exclusion::MAX_EXACT_EVENTS)
    /// cap counts the events left. A subset whose mask intersection
    /// holds fewer than `min_sup` positions, or leaves out a position of
    /// probability 1, has joint 0, and so does every superset: the walk
    /// skips them all.
    pub fn exact_union(&self, term_budget: Option<u64>) -> UnionWalk {
        let kept: Vec<&NcEvent> = self
            .events
            .iter()
            .enumerate()
            .filter(|&(i, e)| {
                !self.events.iter().enumerate().any(|(j, d)| {
                    j != i && e.mask.is_subset(&d.mask) && (j < i || !d.mask.is_subset(&e.mask))
                })
            })
            .map(|(_, e)| e)
            .collect();
        let (k, m) = (self.probs.len(), kept.len());
        let mut lattice = Lattice {
            events: kept,
            probs: &self.probs,
            min_sup: self.min_sup,
            root: TidBitmap::full(k),
            masks: vec![TidBitmap::new(k); m],
            absent: vec![1.0; m],
            present: Vec::with_capacity(k),
            dp: vec![0.0; self.min_sup + 1],
        };
        prob::union_probability(&mut lattice, term_budget)
    }

    fn sampler(&self, i: usize) -> &ConditionalBernoulliSampler {
        let slots = self
            .samplers
            .get_or_init(|| self.events.iter().map(|_| OnceLock::new()).collect());
        slots[i].get_or_init(|| {
            ConditionalBernoulliSampler::new(self.events[i].mask_probs.clone(), self.min_sup)
        })
    }
}

/// The walk state of [`NonClosureEvents::exact_union`]: per depth, the
/// mask intersection and absence factor of the subset built so far, in
/// buffers allocated once per walk.
struct Lattice<'a> {
    events: Vec<&'a NcEvent>,
    probs: &'a [f64],
    min_sup: usize,
    /// Every position: the intersection of the empty subset.
    root: TidBitmap,
    masks: Vec<TidBitmap>,
    absent: Vec<f64>,
    /// Scratch: probabilities at the current intersection's positions.
    present: Vec<f64>,
    dp: Vec<f64>,
}

impl SubsetJoints for Lattice<'_> {
    fn num_events(&self) -> usize {
        self.events.len()
    }

    fn extend(&mut self, depth: usize, event: usize) -> f64 {
        let event = self.events[event];
        let (parents, rest) = self.masks.split_at_mut(depth);
        let (parent, parent_absent) = match depth {
            0 => (&self.root, 1.0),
            _ => (&parents[depth - 1], self.absent[depth - 1]),
        };
        let mask = &mut rest[0];
        parent.and_into(&event.mask, mask);
        if mask.count() < self.min_sup {
            return 0.0;
        }
        // Positions the new event drops from the intersection are forced
        // absent too.
        let absent = parent
            .diff_iter(&event.mask)
            .fold(parent_absent, |acc, pos| acc * (1.0 - self.probs[pos]));
        self.absent[depth] = absent;
        if absent == 0.0 {
            return 0.0;
        }
        if depth == 0 {
            return event.prob;
        }
        self.present.clear();
        self.present.extend(mask.iter().map(|pos| self.probs[pos]));
        absent * tail_at_least_with(&self.present, self.min_sup, &mut self.dp)
    }
}

/// Which tier of [`NonClosureEvents::fcp_bounds_explained`] produced
/// the returned sandwich (see that method's docs for why callers care).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundTier {
    /// No non-closure events: `(pr_f, pr_f)` exactly, independent of any
    /// decision threshold.
    EmptyFamily,
    /// The cheap `(S1, max-singleton)` sandwich already decided against
    /// the supplied threshold, so the pairwise refinement was skipped.
    /// The bounds returned from this tier are a function of the
    /// threshold (a different threshold may trigger the refinement).
    CheapEarly,
    /// The full de Caen / Kwerel pairwise refinement ran; the bounds are
    /// threshold-independent.
    Refined,
}

/// Outcome of the naive world-sampling estimator.
#[derive(Debug, Clone, Copy)]
pub struct NaiveSampleEstimate {
    /// Estimated `Pr{X is frequent closed}` (NOT the union term).
    pub fcp: f64,
    /// Worlds sampled.
    pub samples: usize,
}

impl NonClosureEvents {
    /// The paper's *naive sampling method* (Section IV.B.4): sample `n`
    /// unconditioned possible worlds (restricted to `T(X)`, which is all
    /// that matters) and return the fraction in which `X` is a frequent
    /// closed itemset.
    ///
    /// Unlike [`crate::fcp::approx_fcp`] this estimates the FCP directly
    /// rather than the non-closure union, so its *relative* accuracy on
    /// rare events is poor and — the paper's criticism — "we cannot know
    /// the exact number of samplings that we need to run before all
    /// samplings end": there is no a-priori `n` giving an `(ε, δ)`
    /// relative-error guarantee. Kept as the baseline the coverage
    /// algorithm is measured against.
    pub fn naive_sampling_fcp<R: Rng + ?Sized>(
        &self,
        samples: usize,
        rng: &mut R,
    ) -> NaiveSampleEstimate {
        let k = self.probs.len();
        let mut hits = 0usize;
        for _ in 0..samples {
            // Draw the world restricted to T(X).
            let mut present = TidBitmap::new(k);
            let mut count = 0usize;
            for (pos, &p) in self.probs.iter().enumerate() {
                if rng.random::<f64>() < p {
                    present.insert(pos);
                    count += 1;
                }
            }
            if count < self.min_sup {
                continue;
            }
            // X is closed in the world iff no extension covers every
            // present supporting transaction.
            let tied = self
                .events
                .iter()
                .any(|event| present.is_subset(&event.mask));
            hits += !tied as usize;
        }
        NaiveSampleEstimate {
            fcp: hits as f64 / samples.max(1) as f64,
            samples,
        }
    }
}

impl UnionEventSystem for NonClosureEvents {
    /// A sampled world, restricted to the positions of `T(X)`: the set of
    /// *present* positions.
    type World = TidBitmap;

    fn num_events(&self) -> usize {
        self.events.len()
    }

    fn event_prob(&self, i: usize) -> f64 {
        self.events[i].prob
    }

    fn sample_world_given(&self, i: usize, rng: &mut dyn Rng) -> TidBitmap {
        let event = &self.events[i];
        let sampler = self.sampler(i);
        let mut draws = Vec::with_capacity(event.mask_probs.len());
        sampler.sample_into(rng, &mut draws);
        // Positions outside the mask are forced absent by C_i; map the
        // conditional draws back onto mask positions.
        let mut world = TidBitmap::new(self.probs.len());
        for (draw_idx, pos) in event.mask.iter().enumerate() {
            if draws[draw_idx] {
                world.insert(pos);
            }
        }
        world
    }

    fn world_satisfies(&self, world: &TidBitmap, j: usize) -> bool {
        let event = &self.events[j];
        world.is_subset(&event.mask) && world.count() >= self.min_sup
    }
}

/// A memoizable *superset* of a non-closure event family: one entry per
/// database item whose event can have positive probability, built once
/// for a tid-set `T` and reusable for **every** itemset `X` with
/// `T(X) = T`.
///
/// The per-event computation depends only on `(T, e, min_sup)` — never on
/// `X` itself — so two itemsets with identical supporting tuples (exactly
/// the situation subset pruning exploits) share all of it. The evaluator
/// keys a small LRU of these tables by tid-set fingerprint;
/// [`EventTable::family_excluding`] then projects the table onto a
/// concrete `X` by dropping `X`'s own items, reproducing
/// [`NonClosureEvents::build`] bit-for-bit.
pub struct EventTable {
    /// The supporting tuples the table was built for.
    tids: TidBitmap,
    /// Existential probabilities of `tids`, position-indexed.
    probs: Vec<f64>,
    min_sup: usize,
    /// Entries for ALL items, ascending item order: positive-probability
    /// events, and full-cover items whose event is built on projection.
    entries: Vec<Entry>,
    /// The full-cover tail `Pr{sup ≥ min_sup}` over all of `tids`,
    /// computed by the first projection that keeps a full-cover entry.
    /// Under `Mpfci`'s prunings an evaluated itemset usually has no
    /// full-cover item but its own, so most tables never run this DP.
    full_tail: OnceLock<f64>,
    /// Items examined (= the database's item-id range).
    considered: usize,
}

impl EventTable {
    /// Build the all-items event table for the supporting tuples `tids`.
    pub fn build(db: &UncertainDatabase, tids: &TidBitmap, min_sup: usize) -> Self {
        let min_sup = min_sup.max(1);
        let positions: Vec<usize> = tids.iter().collect();
        let probs: Vec<f64> = positions.iter().map(|&tid| db.probability(tid)).collect();
        let mut dp_scratch = vec![0.0f64; min_sup + 1];
        let considered = db.num_items();
        let entries = (0..considered as u32)
            .filter_map(|id| {
                event_for_item(
                    db,
                    tids,
                    &positions,
                    &probs,
                    Item(id),
                    min_sup,
                    &mut dp_scratch,
                )
            })
            .collect();
        Self {
            tids: tids.clone(),
            probs,
            min_sup,
            entries,
            full_tail: OnceLock::new(),
            considered,
        }
    }

    /// The tid-set the table was built for — callers verify full equality
    /// on fingerprint-keyed cache hits.
    pub fn tids(&self) -> &TidBitmap {
        &self.tids
    }

    /// The support threshold the table was built for.
    pub fn min_sup(&self) -> usize {
        self.min_sup
    }

    /// Project the table onto the itemset whose items are `exclude`
    /// (sorted or not): the family of every *other* item's event.
    ///
    /// Produces exactly what `NonClosureEvents::build(db, tids, all items
    /// except exclude, min_sup)` would — same events, same order, same
    /// floats — because every entry was computed by the same shared
    /// constructor and item order is preserved. A kept full-cover entry
    /// costs one tail DP over all positions, run once per table.
    pub fn family_excluding(&self, exclude: &[Item]) -> NonClosureEvents {
        let events: Vec<NcEvent> = self
            .entries
            .iter()
            .filter_map(|entry| match entry {
                Entry::Event(e) if !exclude.contains(&e.item) => Some(e.clone()),
                Entry::FullCover(item) if !exclude.contains(item) => {
                    let tail = *self
                        .full_tail
                        .get_or_init(|| tail_at_least(&self.probs, self.min_sup));
                    full_cover_event(*item, &self.probs, tail)
                }
                _ => None,
            })
            .collect();
        NonClosureEvents::from_parts(
            self.probs.clone(),
            self.min_sup,
            events,
            self.considered - exclude.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use utdb::PossibleWorlds;

    fn table2() -> UncertainDatabase {
        UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
        ])
    }

    fn items(db: &UncertainDatabase, s: &str) -> Vec<Item> {
        s.split_whitespace()
            .map(|x| db.dictionary().get(x).unwrap())
            .collect()
    }

    fn family_for(db: &UncertainDatabase, x: &[Item], min_sup: usize) -> NonClosureEvents {
        let tids = db.tidset_of_itemset(x).into_bitmap();
        let ext = (0..db.num_items() as u32)
            .map(Item)
            .filter(|i| !x.contains(i));
        NonClosureEvents::build(db, &tids, ext, min_sup)
    }

    /// Oracle: Pr(C_e) measured by world enumeration.
    fn brute_event_prob(db: &UncertainDatabase, x: &[Item], e: Item, min_sup: usize) -> f64 {
        let mut xe = x.to_vec();
        xe.push(e);
        xe.sort_unstable();
        let x_tids = db.tidset_of_itemset(x);
        let xe_tids = db.tidset_of_itemset(&xe);
        PossibleWorlds::new(db)
            .filter(|&(mask, _)| {
                let diff_absent = x_tids
                    .difference(&xe_tids)
                    .iter()
                    .all(|tid| mask >> tid & 1 == 0);
                let sup_xe = xe_tids.iter().filter(|&t| mask >> t & 1 == 1).count();
                diff_absent && sup_xe >= min_sup
            })
            .map(|(_, p)| p)
            .sum()
    }

    #[test]
    fn singleton_probabilities_match_world_oracle() {
        let db = table2();
        for x_s in ["a b c", "a b c d", "d"] {
            let x = items(&db, x_s);
            for min_sup in 1..=3 {
                let fam = family_for(&db, &x, min_sup);
                for i in 0..fam.len() {
                    let e = fam.item(i);
                    let oracle = brute_event_prob(&db, &x, e, min_sup);
                    assert!(
                        (fam.event_prob(i) - oracle).abs() < 1e-10,
                        "X={x_s} e={e} ms={min_sup}: {} vs {oracle}",
                        fam.event_prob(i)
                    );
                }
            }
        }
    }

    #[test]
    fn abc_family_is_the_single_d_event() {
        // For X = {a,b,c} at min_sup 2 the only co-occurring extension is
        // d: Pr(C_d) = (1-0.6)(1-0.7) * Pr{sup(abcd) >= 2} = .12 * .81.
        let db = table2();
        let fam = family_for(&db, &items(&db, "a b c"), 2);
        assert_eq!(fam.len(), 1);
        assert!((fam.event_prob(0) - 0.12 * 0.81).abs() < 1e-12);
        // Pr_FC(abc) = Pr_F - Pr(C_d) = 0.9726 - 0.0972 = 0.8754.
        let (lo, hi) = fam.fcp_bounds(0.9726, 16, None);
        assert!(lo <= 0.8754 + 1e-9 && 0.8754 <= hi + 1e-9);
        assert!((hi - lo) < 1e-9, "single event: bounds are tight");
    }

    #[test]
    fn maximal_itemset_has_empty_family() {
        let db = table2();
        let fam = family_for(&db, &items(&db, "a b c d"), 2);
        assert!(fam.is_empty());
        let (lo, hi) = fam.fcp_bounds(0.81, 16, None);
        assert_eq!((lo, hi), (0.81, 0.81));
    }

    #[test]
    fn joints_match_world_oracle() {
        // For X = {d}: extensions a, b, c all cover T(d) fully; their
        // joints must match direct enumeration.
        let db = table2();
        let x = items(&db, "d");
        let min_sup = 1;
        let fam = family_for(&db, &x, min_sup);
        assert!(fam.len() >= 2);
        let x_tids = db.tidset_of_itemset(&x);
        for i in 0..fam.len() {
            for j in (i + 1)..fam.len() {
                let (ei, ej) = (fam.item(i), fam.item(j));
                let oracle: f64 = PossibleWorlds::new(&db)
                    .filter(|&(mask, _)| {
                        let mut sup = 0usize;
                        let mut ok = true;
                        for tid in x_tids.iter() {
                            let present = mask >> tid & 1 == 1;
                            let has_both =
                                db.tidset_of(ei).contains(tid) && db.tidset_of(ej).contains(tid);
                            if present && !has_both {
                                ok = false;
                                break;
                            }
                            sup += (present && has_both) as usize;
                        }
                        ok && sup >= min_sup
                    })
                    .map(|(_, p)| p)
                    .sum();
                let joint = fam.joint(&[i, j]);
                assert!(
                    (joint - oracle).abs() < 1e-10,
                    "C_{ei} ∧ C_{ej}: {joint} vs {oracle}"
                );
            }
        }
    }

    #[test]
    fn joint_of_empty_subset_is_one_and_singleton_is_event_prob() {
        let db = table2();
        let fam = family_for(&db, &items(&db, "d"), 1);
        assert_eq!(fam.joint(&[]), 1.0);
        for i in 0..fam.len() {
            assert_eq!(fam.joint(&[i]), fam.event_prob(i));
        }
    }

    #[test]
    fn bounds_sandwich_exact_union() {
        let db = table2();
        for (x_s, ms) in [("d", 1), ("a", 2), ("a b", 2), ("c", 3)] {
            let x = items(&db, x_s);
            let fam = family_for(&db, &x, ms);
            if fam.is_empty() {
                continue;
            }
            let exact_union = prob::exact_union_probability(fam.len(), |s| fam.joint(s));
            let pr_f = pfim::frequent_probability(&db, &x, ms);
            let exact_fc = (pr_f - exact_union).max(0.0);
            let (lo, hi) = fam.fcp_bounds(pr_f, 16, None);
            assert!(
                lo <= exact_fc + 1e-9 && exact_fc <= hi + 1e-9,
                "X={x_s} ms={ms}: [{lo}, {hi}] vs {exact_fc}"
            );
        }
    }

    #[test]
    fn bounds_with_event_cap_remain_sound() {
        let db = table2();
        let x = items(&db, "d");
        let fam = family_for(&db, &x, 1);
        let pr_f = pfim::frequent_probability(&db, &x, 1);
        let exact_union = prob::exact_union_probability(fam.len(), |s| fam.joint(s));
        let exact_fc = (pr_f - exact_union).max(0.0);
        for cap in 1..=fam.len() {
            let (lo, hi) = fam.fcp_bounds(pr_f, cap, None);
            assert!(
                lo <= exact_fc + 1e-9 && exact_fc <= hi + 1e-9,
                "cap={cap}: [{lo}, {hi}] vs {exact_fc}"
            );
        }
    }

    #[test]
    fn early_decision_skips_pairwise() {
        // With a decision threshold far below the cheap lower bound, the
        // tiered computation must return the cheap sandwich unchanged.
        let db = table2();
        let x = items(&db, "a b c");
        let fam = family_for(&db, &x, 2);
        let (lo, hi) = fam.fcp_bounds(0.9726, 16, Some(0.0));
        assert!(lo > 0.0, "cheap lower bound decides: {lo} {hi}");
    }

    #[test]
    fn sampled_worlds_satisfy_their_event() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let db = table2();
        let fam = family_for(&db, &items(&db, "d"), 1);
        let mut rng = SmallRng::seed_from_u64(17);
        for i in 0..fam.len() {
            for _ in 0..200 {
                let w = fam.sample_world_given(i, &mut rng);
                assert!(fam.world_satisfies(&w, i));
            }
        }
    }

    #[test]
    fn naive_sampling_tracks_exact_fcp() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let db = table2();
        for (x_s, ms) in [("a b c", 2), ("a", 2), ("d", 1)] {
            let x = items(&db, x_s);
            let fam = family_for(&db, &x, ms);
            let exact = crate::exact::exact_fcp_by_worlds(&db, &x, ms);
            let mut rng = SmallRng::seed_from_u64(41);
            let est = fam.naive_sampling_fcp(200_000, &mut rng);
            assert!(
                (est.fcp - exact).abs() < 0.01,
                "X={x_s}: naive {} vs exact {exact}",
                est.fcp
            );
        }
    }

    #[test]
    fn event_table_projection_is_bitwise_identical_to_direct_build() {
        let db = table2();
        for (x_s, ms) in [("a b c", 2), ("d", 1), ("a", 2), ("a b", 2), ("c", 3)] {
            let x = items(&db, x_s);
            let direct = family_for(&db, &x, ms);
            let tids = db.tidset_of_itemset(&x).into_bitmap();
            let table = EventTable::build(&db, &tids, ms);
            assert_eq!(table.tids(), &tids);
            assert_eq!(table.min_sup(), ms);
            let projected = table.family_excluding(&x);
            assert_eq!(projected.considered_items(), direct.considered_items());
            assert_eq!(projected.len(), direct.len());
            assert_eq!(
                projected.total_mass().to_bits(),
                direct.total_mass().to_bits(),
                "X={x_s}"
            );
            for i in 0..direct.len() {
                assert_eq!(projected.item(i), direct.item(i));
                assert_eq!(
                    projected.event_prob(i).to_bits(),
                    direct.event_prob(i).to_bits(),
                    "X={x_s} event {i}"
                );
            }
            // Joints and bounds go through masks and mask probabilities —
            // exercise them too.
            if direct.len() >= 2 {
                assert_eq!(
                    projected.joint(&[0, 1]).to_bits(),
                    direct.joint(&[0, 1]).to_bits()
                );
            }
            let (lo_a, hi_a) = direct.fcp_bounds(0.9, 16, None);
            let (lo_b, hi_b) = projected.fcp_bounds(0.9, 16, None);
            assert_eq!(
                (lo_a.to_bits(), hi_a.to_bits()),
                (lo_b.to_bits(), hi_b.to_bits())
            );
        }
    }

    #[test]
    fn event_table_covers_x_items_with_full_masks() {
        // Items of X always have T(X∪e) = T(X): their table entry is the
        // full-mask event whose tail is the plain frequentness tail.
        let db = table2();
        let x = items(&db, "a b c");
        let tids = db.tidset_of_itemset(&x).into_bitmap();
        let table = EventTable::build(&db, &tids, 2);
        // All four items co-occur with abc on its full tid-set or a
        // subset; a, b, c entries must carry prob == Pr{sup(abc) >= 2}.
        let pr_f = pfim::frequent_probability(&db, &x, 2);
        let fam_all = table.family_excluding(&[]);
        for i in 0..fam_all.len() {
            if x.contains(&fam_all.item(i)) {
                assert!((fam_all.event_prob(i) - pr_f).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn karp_luby_on_family_matches_inclusion_exclusion() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let db = table2();
        for (x_s, ms) in [("d", 1), ("a", 2), ("a b", 2)] {
            let x = items(&db, x_s);
            let fam = family_for(&db, &x, ms);
            if fam.is_empty() {
                continue;
            }
            let exact = prob::exact_union_probability(fam.len(), |s| fam.joint(s));
            let mut rng = SmallRng::seed_from_u64(23);
            let n = prob::dnf::required_samples(fam.len(), 0.05, 0.05);
            let est = prob::estimate_union(&fam, prob::Budget::Fixed(n), &mut rng);
            assert!(
                (est.estimate - exact).abs() <= 0.05 * exact + 0.01,
                "X={x_s} ms={ms}: {} vs {exact}",
                est.estimate
            );
        }
    }

    /// The unpruned `2^m − 1`-term inclusion–exclusion sum over every
    /// event, each joint computed from scratch by [`NonClosureEvents::joint`]:
    /// the reference the pruned walk must match.
    fn all_subsets_union(fam: &NonClosureEvents) -> f64 {
        let m = fam.len();
        let mut subset = Vec::with_capacity(m);
        let mut total = 0.0f64;
        for mask in 1u32..(1u32 << m) {
            subset.clear();
            subset.extend((0..m).filter(|i| mask >> i & 1 == 1));
            let term = fam.joint(&subset);
            if subset.len() % 2 == 1 {
                total += term;
            } else {
                total -= term;
            }
        }
        total
    }

    /// A tiny database whose item tid-sets are fresh, copied (equal
    /// masks), thinned (nested masks) or widened copies of earlier ones,
    /// with an occasional certain row (an absence factor of 0).
    fn structured_db(seed: u64, rows: usize, num_items: usize) -> UncertainDatabase {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tidsets: Vec<Vec<bool>> = Vec::new();
        for _ in 0..num_items {
            let fresh = |rng: &mut SmallRng| (0..rows).map(|_| rng.random_bool(0.6)).collect();
            let set = if tidsets.is_empty() {
                fresh(&mut rng)
            } else {
                let from = tidsets[rng.random_range(0..tidsets.len())].clone();
                match rng.random_range(0..4u32) {
                    0 => fresh(&mut rng),
                    1 => from,
                    2 => from.iter().map(|&t| t && rng.random_bool(0.7)).collect(),
                    _ => from.iter().map(|&t| t || rng.random_bool(0.3)).collect(),
                }
            };
            tidsets.push(set);
        }
        let lines: Vec<(String, f64)> = (0..rows)
            .filter_map(|r| {
                let names: Vec<String> = (0..num_items)
                    .filter(|&i| tidsets[i][r])
                    .map(|i| format!("i{i}"))
                    .collect();
                let p = if rng.random_bool(0.1) {
                    1.0
                } else {
                    rng.random_range(0.3..1.0)
                };
                (!names.is_empty()).then(|| (names.join(" "), p))
            })
            .collect();
        let refs: Vec<(&str, f64)> = lines.iter().map(|(s, p)| (s.as_str(), *p)).collect();
        UncertainDatabase::parse_symbolic(&refs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The pruned walk over the undominated events equals the full
        /// `2^m` sum and possible-world enumeration, and a budget one
        /// term short of what the walk took makes it give up.
        #[test]
        fn pruned_walk_matches_the_full_sum_and_the_worlds(
            seed in 0u64..u64::MAX,
            rows in 3usize..=9,
            num_items in 2usize..=7,
            min_sup in 1usize..=4,
        ) {
            let db = structured_db(seed, rows, num_items);
            for x_id in 0..db.num_items() as u32 {
                let x = [Item(x_id)];
                let fam = family_for(&db, &x, min_sup);
                let walk = fam.exact_union(None);
                let union = walk.prob().expect("families this small finish");
                let reference = all_subsets_union(&fam);
                prop_assert!(
                    (union - reference).abs() <= 1e-12,
                    "X={x_id} ms={min_sup}: walk {union} vs 2^m {reference}"
                );
                let pr_f = pfim::frequent_probability(&db, &x, min_sup);
                let worlds = crate::exact::exact_fcp_by_worlds(&db, &x, min_sup);
                let by_walk = (pr_f - union).clamp(0.0, pr_f);
                prop_assert!(
                    (by_walk - worlds).abs() <= 1e-12,
                    "X={x_id} ms={min_sup}: walk FCP {by_walk} vs worlds {worlds}"
                );
                let terms = walk.terms();
                prop_assert!(terms < 1u64 << fam.len());
                prop_assert_eq!(fam.exact_union(Some(terms)), walk);
                if terms > 0 {
                    prop_assert_eq!(
                        fam.exact_union(Some(terms - 1)),
                        UnionWalk::GaveUp { terms: terms - 1 }
                    );
                }
            }
        }
    }

    #[test]
    fn dominated_events_are_dropped_before_the_walk() {
        // For X = {d}, the extensions a, b and c all cover T(d): three
        // equal masks, of which only the first is walked.
        let db = table2();
        let fam = family_for(&db, &items(&db, "d"), 1);
        assert_eq!(fam.len(), 3);
        let walk = fam.exact_union(None);
        assert_eq!(walk.terms(), 1);
        assert!((walk.prob().unwrap() - all_subsets_union(&fam)).abs() < 1e-12);
    }

    #[test]
    fn short_intersections_prune_their_sublattice() {
        // Four incomparable extensions of x, any two sharing only the
        // last row: every pair falls below min_sup 2, so the walk takes
        // the 4 singletons and 6 pairs and skips the 5 larger subsets.
        let db = UncertainDatabase::parse_symbolic(&[
            ("x p", 0.9),
            ("x p", 0.8),
            ("x q", 0.7),
            ("x q", 0.9),
            ("x r", 0.6),
            ("x r", 0.9),
            ("x s", 0.8),
            ("x s", 0.7),
            ("x p q r s", 0.5),
        ]);
        let x = items(&db, "x");
        let fam = family_for(&db, &x, 2);
        assert_eq!(fam.len(), 4);
        let walk = fam.exact_union(None);
        assert_eq!(walk.terms(), 10);
        assert!((walk.prob().unwrap() - all_subsets_union(&fam)).abs() < 1e-12);
        let pr_f = pfim::frequent_probability(&db, &x, 2);
        let worlds = crate::exact::exact_fcp_by_worlds(&db, &x, 2);
        assert!(((pr_f - walk.prob().unwrap()) - worlds).abs() < 1e-12);
    }
}
