//! The default `FcpMethod::Auto` on the benchmark's sampling-bound cell,
//! HighProbUniform at its default support: every FCP the bounds leave
//! open is resolved by the pruned inclusion–exclusion walk within its
//! budget, so the mine draws no samples and equals an `ExactOnly` mine
//! bit for bit.

use pfcim_bench::datasets::{abs_min_sup, BenchDataset, Scale};
use pfcim_core::{FcpMethod, Miner, MinerConfig, MiningOutcome};

fn bits(outcome: &MiningOutcome) -> Vec<(Vec<utdb::Item>, u64, u64)> {
    outcome
        .results
        .iter()
        .map(|p| {
            (
                p.items.clone(),
                p.fcp.to_bits(),
                p.frequent_probability.to_bits(),
            )
        })
        .collect()
}

#[test]
fn default_auto_on_high_prob_draws_no_samples_and_equals_exact_only() {
    let dataset = BenchDataset::HighProb;
    for seed in [42, 1, 2] {
        let db = dataset.uncertain(Scale::Tiny, seed);
        let cfg =
            MinerConfig::new(abs_min_sup(&db, dataset.default_min_sup_rel()), 0.8).with_threads(1);
        assert_eq!(cfg.fcp_method, FcpMethod::Auto);
        let auto = Miner::new(&db).config(cfg.clone()).run();
        let exact = Miner::new(&db)
            .config(cfg.with_fcp_method(FcpMethod::ExactOnly))
            .run();
        assert!(
            auto.stats.fcp_exact > 0,
            "seed {seed}: nothing left to check"
        );
        assert_eq!(auto.stats.fcp_sampled, 0, "seed {seed}");
        assert_eq!(auto.stats.samples_drawn, 0, "seed {seed}");
        assert_eq!(bits(&auto), bits(&exact), "seed {seed}");
    }
}
