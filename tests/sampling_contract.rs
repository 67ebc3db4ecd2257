//! The `(ε, δ)` contract of sampled FCP evaluation, checked statistically.
//!
//! Over a seeded battery of small non-closure families, each with an
//! exact union from the inclusion–exclusion walk, every budget the miner
//! samples with must miss the exact union by more than `ε·exact` on at
//! most a `δ` share of the families, plus three binomial standard
//! deviations of slack for the finite battery:
//!
//! * the paper's fixed budget on one thread (`ApproxOnly`, the Naive
//!   baseline, `Auto`'s fallback);
//! * the same budget chunked over four worker threads;
//! * the stopping rule capped at that budget (`ApproxAdaptive`).

use pfcim::core::{estimate_fcp, NonClosureEvents};
use pfcim::prob::dnf::{required_samples, Budget};
use pfcim::utdb::{Item, ItemDictionary, UncertainDatabase, UncertainTransaction};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const EPSILON: f64 = 0.1;
const DELTA: f64 = 0.1;
const FAMILIES: usize = 200;

fn random_utdb(rng: &mut SmallRng, rows: usize, num_items: u32) -> UncertainDatabase {
    let mut txs = Vec::new();
    while txs.len() < rows {
        let items: Vec<Item> = (0..num_items)
            .filter(|_| rng.random::<f64>() < 0.6)
            .map(Item)
            .collect();
        if !items.is_empty() {
            txs.push(UncertainTransaction::new(
                items,
                0.2 + 0.75 * rng.random::<f64>(),
            ));
        }
    }
    UncertainDatabase::new(txs, ItemDictionary::new())
}

/// `FAMILIES` families of at least two events with a positive exact
/// union, and that union.
fn battery() -> Vec<(NonClosureEvents, f64)> {
    let mut rng = SmallRng::seed_from_u64(0x00c0_ffee);
    let mut out = Vec::new();
    while out.len() < FAMILIES {
        let rows = rng.random_range(6..=10);
        let db = random_utdb(&mut rng, rows, 6);
        let min_sup = rng.random_range(1..=3);
        for id in 0..db.num_items() as u32 {
            let x = [Item(id)];
            let tids = db.tidset_of_itemset(&x).into_bitmap();
            let ext = (0..db.num_items() as u32).map(Item).filter(|&i| i != x[0]);
            let events = NonClosureEvents::build(&db, &tids, ext, min_sup);
            let exact = events.exact_union(None).prob().expect("small family");
            if events.len() >= 2 && exact > 0.0 && out.len() < FAMILIES {
                out.push((events, exact));
            }
        }
    }
    out
}

/// Share of families whose estimated union misses the exact one by more
/// than `ε·exact`, sampling each with the paper's budget on `threads`, or
/// with the stopping rule capped at that budget.
fn miss_rate(families: &[(NonClosureEvents, f64)], threads: usize, stopping_rule: bool) -> f64 {
    let mut rng = SmallRng::seed_from_u64(0x05a3_b1e5 ^ threads as u64);
    let misses = families
        .iter()
        .filter(|(events, exact)| {
            let n = required_samples(events.considered_items(), EPSILON, DELTA);
            let budget = if stopping_rule {
                Budget::StoppingRule {
                    epsilon: EPSILON,
                    delta: DELTA,
                    cap: n,
                }
            } else {
                Budget::Fixed(n)
            };
            // pr_f = 1 keeps the clamp from touching the union term.
            let r = estimate_fcp(events, 1.0, budget, threads, &mut rng);
            (r.fnc - exact).abs() > EPSILON * exact
        })
        .count();
    misses as f64 / families.len() as f64
}

fn assert_contract(label: &str, rate: f64) {
    let slack = 3.0 * (DELTA * (1.0 - DELTA) / FAMILIES as f64).sqrt();
    assert!(
        rate <= DELTA + slack,
        "{label}: {rate} of {FAMILIES} families missed by more than ε·exact \
         (allowed δ + 3σ = {})",
        DELTA + slack
    );
}

#[test]
fn every_sampling_budget_meets_its_epsilon_delta_contract() {
    let families = battery();
    assert_contract("fixed, 1 thread", miss_rate(&families, 1, false));
    assert_contract("fixed, 4 chunks", miss_rate(&families, 4, false));
    assert_contract("stopping rule", miss_rate(&families, 1, true));
}
