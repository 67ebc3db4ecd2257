//! Input generation.
//!
//! The paper's protocol takes a fixed certain dataset (T20I10D30K, or
//! Mushroom) and draws the existential probabilities at random. The
//! benchmark does the same: the certain base of each protocol is one fixed
//! instance of the in-tree generator ([`BASE_SEED`], the instance the
//! repository's own measurements use), and `--seed` draws the
//! probabilities — and, for the stream, the feed's order. A seed thus
//! changes the input without changing which regime the workload is in.

use pfcim_bench::DatasetKind;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use utdb::gen::QuestConfig;
use utdb::{assign_gaussian_probabilities, assign_uniform_probabilities, UncertainDatabase};

/// Seed of the fixed certain base of every protocol.
const BASE_SEED: u64 = 42;

/// The HighProbUniform protocol's sparse Quest-style base (60 items,
/// average transaction length 4), at `rows` rows.
fn sparse_base(rows: usize) -> UncertainDatabase {
    QuestConfig {
        num_transactions: rows,
        avg_transaction_len: 4.0,
        avg_pattern_len: 2.0,
        num_items: 60,
        num_patterns: 20,
        correlation: 0.5,
        corruption_mean: 0.5,
        corruption_dev: 0.1,
    }
    .generate(&mut SmallRng::seed_from_u64(BASE_SEED))
}

/// HighProbUniform: 300 sparse rows, p uniform in [0.6, 0.9].
pub fn high_prob(seed: u64) -> UncertainDatabase {
    let mut rng = SmallRng::seed_from_u64(seed);
    assign_uniform_probabilities(&sparse_base(300), 0.6, 0.9, &mut rng)
}

/// T20I10D30KP40 at `rows` rows, p drawn from the clamped Gaussian
/// N(0.8, 0.1).
pub fn quest(seed: u64, rows: usize) -> UncertainDatabase {
    let base = QuestConfig::t20i10_p40(rows).generate(&mut SmallRng::seed_from_u64(BASE_SEED));
    let (mean, variance) = DatasetKind::Quest.default_gaussian();
    assign_gaussian_probabilities(&base, mean, variance, &mut SmallRng::seed_from_u64(seed))
}

/// A HighProbUniform feed of `rows` transactions for the stream: the
/// sparse base's rows in a seeded order, p uniform in [0.6, 0.9].
pub fn high_prob_feed(seed: u64, rows: usize) -> UncertainDatabase {
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = sparse_base(rows);
    let mut order: Vec<usize> = (0..base.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let shuffled = UncertainDatabase::new(
        order
            .into_iter()
            .map(|i| base.transaction(i).clone())
            .collect(),
        base.dictionary().clone(),
    );
    assign_uniform_probabilities(&shuffled, 0.6, 0.9, &mut rng)
}
