//! Golden pin for sampled mining output.
//!
//! Every seeded `ApproxFCP` path — fixed-budget sampling (`ApproxOnly`),
//! the stopping rule (`ApproxAdaptive`) and the Naive baseline — at one,
//! two and four threads, on an input whose sampled families hold several
//! non-closure events. The expected `fcp.to_bits()` of every result,
//! and the `samples_drawn` / `fcp_sampled` counters, are hard-coded, so
//! any change to the sampling code that moves a single RNG draw, a hit
//! count or a float operation fails here. (`tests/parallel_equivalence.rs`
//! only checks that a run reproduces itself.)

use pfcim::core::{Algorithm, FcpMethod, Miner, MinerConfig, NonClosureEvents, Variant};
use pfcim::utdb::{Item, UncertainDatabase};

fn db() -> UncertainDatabase {
    UncertainDatabase::parse_symbolic(&[
        ("a b c d e", 0.9),
        ("a b c d", 0.8),
        ("a b c e", 0.7),
        ("a b d e", 0.6),
        ("a c d e", 0.5),
        ("b c d e", 0.85),
        ("a b c", 0.75),
        ("a b", 0.65),
        ("c d e", 0.55),
        ("a", 0.95),
    ])
}

const MIN_SUP: usize = 2;
const PFCT: f64 = 0.3;
const SEED: u64 = 0x5eed_601d;

/// One pinned run: results as `(items, fcp bits)`, then `samples_drawn`
/// and `fcp_sampled`.
type Golden = (&'static [(&'static str, u64)], u64, u64);

fn run(method: FcpMethod, algorithm: Algorithm, threads: usize) -> (Vec<(String, u64)>, u64, u64) {
    let db = db();
    // No bound pruning: every evaluated itemset is sampled, so every
    // emitted probability below came out of the estimator.
    let cfg = MinerConfig::new(MIN_SUP, PFCT)
        .with_variant(Variant::NoBound)
        .with_fcp_method(method)
        .with_seed(SEED)
        .with_threads(threads);
    let out = Miner::new(&db).config(cfg).algorithm(algorithm).run();
    let results = out
        .results
        .iter()
        .map(|r| {
            let names: Vec<&str> = r
                .items
                .iter()
                .map(|&i| db.dictionary().symbol(i).unwrap())
                .collect();
            (names.join(" "), r.fcp.to_bits())
        })
        .collect();
    (results, out.stats.samples_drawn, out.stats.fcp_sampled)
}

fn check(label: &str, method: FcpMethod, algorithm: Algorithm, threads: usize, want: Golden) {
    let (results, samples, sampled) = run(method, algorithm, threads);
    let rendered: Vec<String> = results
        .iter()
        .map(|(items, bits)| format!("(\"{items}\", 0x{bits:016x}),"))
        .collect();
    let actual = format!(
        "{label}: [\n{}\n], samples_drawn {samples}, fcp_sampled {sampled}",
        rendered.join("\n")
    );
    let expected: Vec<(String, u64)> = want.0.iter().map(|&(s, b)| (s.to_string(), b)).collect();
    assert_eq!(results, expected, "{actual}");
    assert_eq!((samples, sampled), (want.1, want.2), "{actual}");
}

#[test]
fn the_input_samples_multi_event_families() {
    // Guard for the pins below: the sampled itemsets include families of
    // two or more events, so the canonical check really compares events.
    let db = db();
    let (results, samples, sampled) = run(FcpMethod::ApproxOnly, Algorithm::Dfs, 1);
    assert!(sampled > 0 && samples > 0);
    let widest = results
        .iter()
        .map(|(items, _)| {
            let x: Vec<Item> = items
                .split_whitespace()
                .map(|s| db.dictionary().get(s).unwrap())
                .collect();
            let tids = db.tidset_of_itemset(&x).into_bitmap();
            let ext = (0..db.num_items() as u32)
                .map(Item)
                .filter(|i| !x.contains(i));
            NonClosureEvents::build(&db, &tids, ext, MIN_SUP).len()
        })
        .max()
        .unwrap();
    assert!(widest >= 2, "widest sampled family: {widest} events");
}

#[test]
fn approx_only_output_is_pinned() {
    for (threads, want) in [(1, APPROX_T1), (2, APPROX_T2), (4, APPROX_T4)] {
        let label = format!("ApproxOnly/threads={threads}");
        check(&label, FcpMethod::ApproxOnly, Algorithm::Dfs, threads, want);
    }
}

#[test]
fn approx_adaptive_output_is_pinned() {
    for (threads, want) in [(1, ADAPTIVE_T1), (2, ADAPTIVE_T2), (4, ADAPTIVE_T4)] {
        let label = format!("ApproxAdaptive/threads={threads}");
        check(
            &label,
            FcpMethod::ApproxAdaptive,
            Algorithm::Dfs,
            threads,
            want,
        );
    }
}

#[test]
fn naive_output_is_pinned() {
    for (threads, want) in [(1, NAIVE_T1), (2, NAIVE_T2), (4, NAIVE_T4)] {
        let label = format!("Naive/threads={threads}");
        check(&label, FcpMethod::Auto, Algorithm::Naive, threads, want);
    }
}

const APPROX_T1: Golden = (
    &[
        ("a", 0x3fef1143425b3932),
        ("a b", 0x3feac338b74946be),
        ("a b c", 0x3fec5604189374bc),
        ("a b c d", 0x3fe70a3d70a3d70b),
        ("a b c e", 0x3fe428f5c28f5c28),
        ("a b d", 0x3fdeb851eb851eb8),
        ("a b d e", 0x3fe147ae147ae148),
        ("a b e", 0x3fdae147ae147ae0),
        ("a c", 0x3fdc72d4011197a0),
        ("a c d", 0x3fd9999999999999),
        ("a c d e", 0x3fdccccccccccccc),
        ("a c e", 0x3fd6666666666665),
        ("b", 0x3fe6d58a0f6d0f82),
        ("b c", 0x3fe836eaad4f0b5b),
        ("b c d", 0x3fe5c28f5c28f5c3),
        ("b c d e", 0x3fe87ae147ae147a),
        ("b c e", 0x3fe30a3d70a3d70a),
        ("b d", 0x3fda32e595bfd9dc),
        ("b d e", 0x3fe051eb851eb852),
        ("b e", 0x3fd7132e65f5b240),
        ("c", 0x3fe52508130be43b),
        ("c d", 0x3fe2e33bbace0963),
        ("c d e", 0x3fe796872b020c4a),
        ("c e", 0x3fe0b6ae00444f81),
        ("d", 0x3fd73a188c43a6dc),
        ("d e", 0x3fdcb3a5d7e4f058),
        ("e", 0x3fd3699ba61fcd32),
    ],
    83890,
    30,
);

const APPROX_T2: Golden = (
    &[
        ("a", 0x3fef12b4e03ea81c),
        ("a b", 0x3feac9f19c89a870),
        ("a b c", 0x3fec5604189374bc),
        ("a b c d", 0x3fe70a3d70a3d70b),
        ("a b c e", 0x3fe428f5c28f5c28),
        ("a b d", 0x3fdeb851eb851eb8),
        ("a b d e", 0x3fe147ae147ae148),
        ("a b e", 0x3fdae147ae147ae0),
        ("a c", 0x3fdc8aff54ee90ea),
        ("a c d", 0x3fd9999999999999),
        ("a c d e", 0x3fdccccccccccccc),
        ("a c e", 0x3fd6666666666665),
        ("b", 0x3fe6c37104b69436),
        ("b c", 0x3fe833edf990c9a8),
        ("b c d", 0x3fe5c28f5c28f5c3),
        ("b c d e", 0x3fe87ae147ae147a),
        ("b c e", 0x3fe30a3d70a3d70a),
        ("b d", 0x3fd9f44264ac55e4),
        ("b d e", 0x3fe051eb851eb852),
        ("b e", 0x3fd755258493b506),
        ("c", 0x3fe527dae0216e69),
        ("c d", 0x3fe30ce3fedc70c2),
        ("c d e", 0x3fe796872b020c4a),
        ("c e", 0x3fe0b57170036b07),
        ("d", 0x3fd70480d7d1533a),
        ("d e", 0x3fdcf2a4bcf06f0a),
        ("e", 0x3fd446034a19139e),
    ],
    83890,
    30,
);

const APPROX_T4: Golden = (
    &[
        ("a", 0x3fef12b4e03ea81c),
        ("a b", 0x3feac9f19c89a870),
        ("a b c", 0x3fec5604189374bc),
        ("a b c d", 0x3fe70a3d70a3d70b),
        ("a b c e", 0x3fe428f5c28f5c28),
        ("a b d", 0x3fdeb851eb851eb8),
        ("a b d e", 0x3fe147ae147ae148),
        ("a b e", 0x3fdae147ae147ae0),
        ("a c", 0x3fdc8aff54ee90ea),
        ("a c d", 0x3fd9999999999999),
        ("a c d e", 0x3fdccccccccccccc),
        ("a c e", 0x3fd6666666666665),
        ("b", 0x3fe6c37104b69436),
        ("b c", 0x3fe833edf990c9a8),
        ("b c d", 0x3fe5c28f5c28f5c3),
        ("b c d e", 0x3fe87ae147ae147a),
        ("b c e", 0x3fe30a3d70a3d70a),
        ("b d", 0x3fd9f44264ac55e4),
        ("b d e", 0x3fe051eb851eb852),
        ("b e", 0x3fd755258493b506),
        ("c", 0x3fe527dae0216e69),
        ("c d", 0x3fe30ce3fedc70c2),
        ("c d e", 0x3fe796872b020c4a),
        ("c e", 0x3fe0b57170036b07),
        ("d", 0x3fd70480d7d1533a),
        ("d e", 0x3fdcf2a4bcf06f0a),
        ("e", 0x3fd446034a19139e),
    ],
    83890,
    30,
);

const ADAPTIVE_T1: Golden = (
    &[
        ("a", 0x3fef10e78be33540),
        ("a b", 0x3fead358a2803dac),
        ("a b c", 0x3fec562d18edd5e3),
        ("a b c d", 0x3fe70a3d70a3d70b),
        ("a b c e", 0x3fe428f5c28f5c28),
        ("a b d", 0x3fdeb9cdb8e54455),
        ("a b d e", 0x3fe147ae147ae148),
        ("a b e", 0x3fdae2d4bef8ff4a),
        ("a c", 0x3fdc74dcce8a1090),
        ("a c d", 0x3fd99b493186db9d),
        ("a c d e", 0x3fdccccccccccccc),
        ("a c e", 0x3fd66815fe53a868),
        ("a d e", 0x3fd334e2cb207536),
        ("b", 0x3fe6cdeb6cff1226),
        ("b c", 0x3fe8411b95f8325e),
        ("b c d", 0x3fe5c30c85a8a511),
        ("b c d e", 0x3fe87ae147ae147a),
        ("b c e", 0x3fe30ad8d04b2c3e),
        ("b d", 0x3fd9cf2b62c6f220),
        ("b d e", 0x3fe052a51aedb36c),
        ("b e", 0x3fd6ec1597fae254),
        ("c", 0x3fe50afbabd05049),
        ("c d", 0x3fe312c6c4b59c2a),
        ("c d e", 0x3fe796e846caa18b),
        ("c e", 0x3fe0c453c83c66e0),
        ("d", 0x3fd6e235838e9358),
        ("d e", 0x3fdc9909f489227c),
        ("e", 0x3fd43838c848e2ae),
    ],
    26867,
    30,
);

const ADAPTIVE_T2: Golden = (
    &[
        ("a", 0x3fef10e78be33540),
        ("a b", 0x3feac6f5efda7f9c),
        ("a b c", 0x3fec562d18edd5e3),
        ("a b c d", 0x3fe70a3d70a3d70b),
        ("a b c e", 0x3fe428f5c28f5c28),
        ("a b d", 0x3fdeb9cdb8e54455),
        ("a b d e", 0x3fe147ae147ae148),
        ("a b e", 0x3fdae2d4bef8ff4a),
        ("a c", 0x3fdcd2034aa6bfd6),
        ("a c d", 0x3fd99b493186db9d),
        ("a c d e", 0x3fdccccccccccccc),
        ("a c e", 0x3fd66815fe53a868),
        ("a d e", 0x3fd334e2cb207536),
        ("b", 0x3fe6ab1edc948be6),
        ("b c", 0x3fe826f5b940808a),
        ("b c d", 0x3fe5c30c85a8a511),
        ("b c d e", 0x3fe87ae147ae147a),
        ("b c e", 0x3fe30ad8d04b2c3e),
        ("b d", 0x3fda48bc98f1cfce),
        ("b d e", 0x3fe052a51aedb36c),
        ("b e", 0x3fd74f53cb19f906),
        ("c", 0x3fe5590bedc7251a),
        ("c d", 0x3fe3017f0d1faa42),
        ("c d e", 0x3fe796e846caa18b),
        ("c e", 0x3fe084727b4d3e4c),
        ("d", 0x3fd62e8385f4de0c),
        ("d e", 0x3fdd69cef24ad5c4),
        ("e", 0x3fd44067ac3a7f9c),
    ],
    26869,
    30,
);

const ADAPTIVE_T4: Golden = (
    &[
        ("a", 0x3fef10e78be33540),
        ("a b", 0x3feac6f5efda7f9c),
        ("a b c", 0x3fec562d18edd5e3),
        ("a b c d", 0x3fe70a3d70a3d70b),
        ("a b c e", 0x3fe428f5c28f5c28),
        ("a b d", 0x3fdeb9cdb8e54455),
        ("a b d e", 0x3fe147ae147ae148),
        ("a b e", 0x3fdae2d4bef8ff4a),
        ("a c", 0x3fdcd2034aa6bfd6),
        ("a c d", 0x3fd99b493186db9d),
        ("a c d e", 0x3fdccccccccccccc),
        ("a c e", 0x3fd66815fe53a868),
        ("a d e", 0x3fd334e2cb207536),
        ("b", 0x3fe6ab1edc948be6),
        ("b c", 0x3fe826f5b940808a),
        ("b c d", 0x3fe5c30c85a8a511),
        ("b c d e", 0x3fe87ae147ae147a),
        ("b c e", 0x3fe30ad8d04b2c3e),
        ("b d", 0x3fda48bc98f1cfce),
        ("b d e", 0x3fe052a51aedb36c),
        ("b e", 0x3fd74f53cb19f906),
        ("c", 0x3fe5590bedc7251a),
        ("c d", 0x3fe3017f0d1faa42),
        ("c d e", 0x3fe796e846caa18b),
        ("c e", 0x3fe084727b4d3e4c),
        ("d", 0x3fd62e8385f4de0c),
        ("d e", 0x3fdd69cef24ad5c4),
        ("e", 0x3fd44067ac3a7f9c),
    ],
    26869,
    30,
);

const NAIVE_T1: Golden = (
    &[
        ("a", 0x3fef119bf79c0c22),
        ("a b", 0x3feac6c7c73e2f2c),
        ("a b c", 0x3fec5604189374bd),
        ("a b c d", 0x3fe70a3d70a3d70b),
        ("a b c e", 0x3fe428f5c28f5c29),
        ("a b d", 0x3fdeb851eb851eba),
        ("a b d e", 0x3fe147ae147ae148),
        ("a b e", 0x3fdae147ae147ae2),
        ("a c", 0x3fdc9dcbb29a6f40),
        ("a c d", 0x3fd999999999999b),
        ("a c d e", 0x3fdccccccccccccd),
        ("a c e", 0x3fd6666666666667),
        ("b", 0x3fe6c7667f0e7f30),
        ("b c", 0x3fe830f145d287f6),
        ("b c d", 0x3fe5c28f5c28f5c3),
        ("b c d e", 0x3fe87ae147ae147b),
        ("b c e", 0x3fe30a3d70a3d70a),
        ("b d", 0x3fd9fda7ac08dce4),
        ("b d e", 0x3fe051eb851eb852),
        ("b e", 0x3fd743c989fe55fc),
        ("c", 0x3fe51c8fabcb45b0),
        ("c d", 0x3fe324d7f2cb1f66),
        ("c d e", 0x3fe796872b020c4a),
        ("c e", 0x3fe08ca2d7a5f748),
        ("d", 0x3fd743072a56b4cc),
        ("d e", 0x3fdc9cbd849af0d2),
        ("e", 0x3fd37a0e5e4d2682),
    ],
    83890,
    30,
);

const NAIVE_T2: Golden = (
    &[
        ("a", 0x3fef11520b3b5c5a),
        ("a b", 0x3feab8f0c213fc9f),
        ("a b c", 0x3fec5604189374bd),
        ("a b c d", 0x3fe70a3d70a3d70b),
        ("a b c e", 0x3fe428f5c28f5c29),
        ("a b d", 0x3fdeb851eb851eba),
        ("a b d e", 0x3fe147ae147ae148),
        ("a b e", 0x3fdae147ae147ae2),
        ("a c", 0x3fdc5d58284d2bce),
        ("a c d", 0x3fd999999999999b),
        ("a c d e", 0x3fdccccccccccccd),
        ("a c e", 0x3fd6666666666667),
        ("b", 0x3fe6adf347fde1ce),
        ("b c", 0x3fe829c5fcd6b715),
        ("b c d", 0x3fe5c28f5c28f5c3),
        ("b c d e", 0x3fe87ae147ae147b),
        ("b c e", 0x3fe30a3d70a3d70a),
        ("b d", 0x3fda0a2eb5d990e4),
        ("b d e", 0x3fe051eb851eb852),
        ("b e", 0x3fd6c6cce4314346),
        ("c", 0x3fe520cbdf6b94f6),
        ("c d", 0x3fe3110e6c1114b3),
        ("c d e", 0x3fe796872b020c4a),
        ("c e", 0x3fe09f2f4b735a71),
        ("d", 0x3fd64be814f23326),
        ("d e", 0x3fdc58048abcf23e),
        ("e", 0x3fd380a2a7f8e3d8),
    ],
    83890,
    30,
);

const NAIVE_T4: Golden = (
    &[
        ("a", 0x3fef12a6175e84f4),
        ("a b", 0x3feabc7fd208e50c),
        ("a b c", 0x3fec5604189374bd),
        ("a b c d", 0x3fe70a3d70a3d70b),
        ("a b c e", 0x3fe428f5c28f5c29),
        ("a b d", 0x3fdeb851eb851eba),
        ("a b d e", 0x3fe147ae147ae148),
        ("a b e", 0x3fdae147ae147ae2),
        ("a c", 0x3fdc7d91ed73cd88),
        ("a c d", 0x3fd999999999999c),
        ("a c d e", 0x3fdccccccccccccd),
        ("a c e", 0x3fd6666666666665),
        ("b", 0x3fe6bdc9315d8db0),
        ("b c", 0x3fe83e15f64adc3c),
        ("b c d", 0x3fe5c28f5c28f5c3),
        ("b c d e", 0x3fe87ae147ae147b),
        ("b c e", 0x3fe30a3d70a3d70a),
        ("b d", 0x3fda10723ac1eae4),
        ("b d e", 0x3fe051eb851eb852),
        ("b e", 0x3fd73cd7f28f632c),
        ("c", 0x3fe526717996a952),
        ("c d", 0x3fe2fd44e55709ff),
        ("c d e", 0x3fe796872b020c4a),
        ("c e", 0x3fe090588868a4b6),
        ("d", 0x3fd73129ee3098ec),
        ("d e", 0x3fdcb95fecb7703a),
        ("e", 0x3fd383eccccec282),
    ],
    83890,
    30,
);
