//! Golden pin for exact and bound-decided mining output.
//!
//! A small dense Quest input (T20I10-style generator, Gaussian
//! probabilities) mined at `min_sup` = 20% of its rows — the regime of
//! the paper's own cells, where Lemma 4.4 bounds decide most itemsets and
//! the rest go to the inclusion–exclusion walk. `Mpfci` under `Auto` and
//! `ExactOnly`, and `NoSub` and `Bfs` (whose evaluated itemsets include
//! extensions covering their whole tid-set), at one and two threads.
//!
//! The expected `fcp.to_bits()` and `frequent_probability.to_bits()` of
//! every result, the outcome's `carve_ceiling` bits and the
//! `bound_decided` / `fcp_exact` counters are hard-coded, so any change
//! to event construction, the tail DP or the walk that moves a single
//! float operation fails here. A short `StreamMiner` walk over the same
//! rows is pinned too.

use pfcim::core::{
    EventTable, FcpMethod, Miner, MinerConfig, NullSink, PatternDelta, StreamConfig, StreamMiner,
    Variant,
};
use pfcim::utdb::gen::QuestConfig;
use pfcim::utdb::{assign_gaussian_probabilities, Item, TidBitmap, UncertainDatabase};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const ROWS: usize = 60;
/// 20% of the rows.
const MIN_SUP: usize = ROWS / 5;
const PFCT: f64 = 0.8;

fn db() -> UncertainDatabase {
    let base = QuestConfig {
        num_transactions: ROWS,
        avg_transaction_len: 5.0,
        avg_pattern_len: 4.0,
        num_items: 10,
        num_patterns: 10,
        correlation: 0.5,
        corruption_mean: 0.5,
        corruption_dev: 0.1,
    }
    .generate(&mut SmallRng::seed_from_u64(42));
    assign_gaussian_probabilities(&base, 0.8, 0.1, &mut SmallRng::seed_from_u64(7))
}

fn render(items: &[Item]) -> String {
    let ids: Vec<String> = items.iter().map(|i| i.0.to_string()).collect();
    ids.join(" ")
}

/// One pinned result: items, `fcp` bits, `frequent_probability` bits.
type Row = (&'static str, u64, u64);

/// One pinned run: results, then `carve_ceiling` bits and the
/// `bound_rejected`, `bound_decided` and `fcp_exact` counters.
type Golden = (&'static [Row], u64, [u64; 3]);

fn format_rows(rows: &[(String, u64, u64)]) -> String {
    rows.iter()
        .map(|(items, fcp, pf)| format!("(\"{items}\", 0x{fcp:016x}, 0x{pf:016x}),"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn owned(rows: &[Row]) -> Vec<(String, u64, u64)> {
    rows.iter()
        .map(|&(s, a, b)| (s.to_string(), a, b))
        .collect()
}

fn check(variant: Variant, method: FcpMethod, threads: usize, want: Golden) {
    let db = db();
    let cfg = MinerConfig::new(MIN_SUP, PFCT)
        .with_variant(variant)
        .with_fcp_method(method)
        .with_threads(threads);
    let out = Miner::new(&db).config(cfg).run();
    let results: Vec<(String, u64, u64)> = out
        .results
        .iter()
        .map(|r| {
            (
                render(&r.items),
                r.fcp.to_bits(),
                r.frequent_probability.to_bits(),
            )
        })
        .collect();
    let ceiling = out.carve_ceiling.to_bits();
    let s = &out.stats;
    let counters = [s.bound_rejected, s.bound_decided, s.fcp_exact];
    let actual = format!(
        "{variant:?}/{method:?}/threads={threads}: [\n{}\n], 0x{ceiling:016x}, {counters:?}",
        format_rows(&results)
    );
    assert_eq!(results, owned(want.0), "{actual}");
    assert_eq!((ceiling, counters), (want.1, want.2), "{actual}");
}

#[test]
fn mpfci_auto_output_is_pinned() {
    check(Variant::Mpfci, FcpMethod::Auto, 1, MPFCI);
    check(Variant::Mpfci, FcpMethod::Auto, 2, MPFCI);
}

#[test]
fn mpfci_exact_only_output_is_pinned() {
    check(Variant::Mpfci, FcpMethod::ExactOnly, 1, MPFCI);
    check(Variant::Mpfci, FcpMethod::ExactOnly, 2, MPFCI);
}

#[test]
fn no_sub_output_is_pinned() {
    check(Variant::NoSub, FcpMethod::Auto, 1, NO_SUB);
    check(Variant::NoSub, FcpMethod::Auto, 2, NO_SUB);
}

#[test]
fn bfs_output_is_pinned() {
    check(Variant::Bfs, FcpMethod::Auto, 1, BFS);
    check(Variant::Bfs, FcpMethod::Auto, 2, BFS);
}

const STREAM_WINDOW: usize = 24;
const STREAM_MIN_SUP: usize = STREAM_WINDOW / 5;

#[test]
fn stream_walk_is_pinned() {
    let db = db();
    let cfg = MinerConfig::new(STREAM_MIN_SUP, PFCT).with_fcp_method(FcpMethod::ExactOnly);
    let mut sm = StreamMiner::new(
        db.dictionary().clone(),
        StreamConfig::new(STREAM_WINDOW, cfg),
    );
    let mut deltas = Vec::new();
    for tx in db.transactions() {
        let step = sm.advance(tx.clone(), &mut NullSink);
        let (mut added, mut removed, mut updated) = (0u64, 0u64, 0u64);
        for delta in &step.deltas {
            match delta {
                PatternDelta::Added(_) => added += 1,
                PatternDelta::Removed(_) => removed += 1,
                PatternDelta::Updated { .. } => updated += 1,
            }
        }
        deltas.push((added, removed, updated));
    }
    let results: Vec<(String, u64, u64)> = sm
        .results()
        .iter()
        .map(|r| {
            (
                render(&r.items),
                r.fcp.to_bits(),
                r.frequent_probability.to_bits(),
            )
        })
        .collect();
    let actual = format!("stream: [\n{}\n], deltas {deltas:?}", format_rows(&results));
    assert_eq!(results, owned(STREAM_FINAL), "{actual}");
    assert_eq!(deltas, STREAM_DELTAS, "{actual}");
}

/// The tid-set of `x` as a bitmap.
fn tids_of(db: &UncertainDatabase, x: &[Item]) -> TidBitmap {
    db.tidset_of_itemset(x).into_bitmap()
}

#[test]
fn the_input_exercises_every_event_path() {
    // Guard for the pins above: among the itemsets the miners evaluate,
    // the input holds (1) an extension whose tail DP runs with fewer
    // than `min_sup` trials past the threshold (`n − k + 1 < k`), (2) a
    // full-cover extension that survives projection onto `X`, and (3)
    // an extension rejected because `|T(X∪e)| < min_sup`.
    let db = db();
    let items: Vec<Item> = (0..db.num_items() as u32).map(Item).collect();
    // Every single item and pair frequent with probability above pfct.
    let mut candidates: Vec<Vec<Item>> = Vec::new();
    for &a in &items {
        candidates.push(vec![a]);
        candidates.extend(items.iter().filter(|&&b| b > a).map(|&b| vec![a, b]));
    }
    candidates.retain(|x| pfcim::pfim::frequent_probability(&db, x, MIN_SUP) > PFCT);
    assert!(!candidates.is_empty());

    let (mut narrow_dp, mut full_cover, mut by_count) = (false, false, false);
    for x in &candidates {
        let x_tids = tids_of(&db, x);
        let k = x_tids.count();
        for &e in items.iter().filter(|e| !x.contains(e)) {
            let n = x_tids.and_count(db.bitmap_of(e));
            narrow_dp |= n < k && n >= MIN_SUP && n - MIN_SUP + 1 < MIN_SUP;
            by_count |= n > 0 && n < MIN_SUP;
            if n == k {
                let family = EventTable::build(&db, &x_tids, MIN_SUP).family_excluding(x);
                full_cover |= (0..family.len()).any(|i| family.item(i) == e);
            }
        }
    }
    assert!(narrow_dp, "no event DP with n − k + 1 < k");
    assert!(full_cover, "no full-cover entry survives projection");
    assert!(by_count, "no extension rejected by count");

    // Subset pruning fires under Mpfci, so NoSub and Bfs evaluate
    // itemsets that Mpfci skips — those with a full-cover extension.
    let out = Miner::new(&db)
        .config(MinerConfig::new(MIN_SUP, PFCT).with_threads(1))
        .run();
    assert!(out.stats.subset_pruned > 0);
    assert!(out.stats.bound_decided > 0 && out.stats.fcp_exact > 0);
}

const MPFCI: Golden = (
    &[
        ("0", 0x3feffffffffec55e, 0x3feffffffffffffe),
        ("0 2", 0x3fefffffd18c1e72, 0x3feffffffddb9c7d),
        ("0 2 3", 0x3feffecff1a35022, 0x3fefff144ff6adc4),
        ("0 2 3 6", 0x3fefde5ed0c0829e, 0x3fefde5ed5c4e4cd),
        ("0 2 6", 0x3feffe6911f18fe7, 0x3fefffe79b34058e),
        ("0 2 6 8", 0x3fed81a698785066, 0x3fefb28125f60051),
        ("0 2 6 8 9", 0x3fee619c765732c5, 0x3fee61bf6ff4f9d8),
        ("0 2 6 9", 0x3fed6d0abcd355de, 0x3fefb115389261ba),
        ("0 3", 0x3feffe6243d9bb7c, 0x3fefffface7a788f),
        ("0 3 6", 0x3feffd1866e57839, 0x3feffe6af5cdbdee),
        ("0 6", 0x3feffffffe324fd1, 0x3fefffffffc5ad91),
        ("0 6 7 8", 0x3fe9b0384eb3dcee, 0x3feaecad00562b8e),
        ("0 6 8", 0x3fedb20c88524070, 0x3fefffc5d9539a73),
        ("0 6 8 9", 0x3feffe2346603779, 0x3feffe26d91cceaf),
        ("0 6 9", 0x3fed9dd65d006b4e, 0x3fefffc4505a3a42),
        ("1", 0x3fed6060e4e684e3, 0x3fed658e41f8aa19),
        ("2", 0x3feffffff891a7f6, 0x3fefffffffffff9d),
        ("2 3", 0x3feff772fe2c42b3, 0x3fefffe87121ca33),
        ("2 3 6", 0x3feff1f986c99516, 0x3feffa22166ef544),
        ("2 6", 0x3feffffff98ef1dc, 0x3fefffffffbd0c76),
        ("2 6 8", 0x3fefffe492839e12, 0x3feffff4f8d7a416),
        ("2 6 8 9", 0x3feff2f8800b6152, 0x3feff303cb813b1b),
        ("2 6 9", 0x3fed9d275fe36803, 0x3feffe49bcca1bbc),
        ("3", 0x3feffe5fe32bca66, 0x3feffffff0adf7b8),
        ("3 6", 0x3feffe9acea2688b, 0x3feffff6216264b8),
        ("3 6 8", 0x3fec61a902f8f4dc, 0x3feed90051307070),
        ("3 6 8 9", 0x3fea0a3a10e81572, 0x3fea4dfeb4fcd1fe),
        ("3 6 9", 0x3fec4c7b2d64e282, 0x3feed3eda6c35ced),
        ("6", 0x3fefffffffff2eee, 0x3ff0000000000000),
        ("6 7 8", 0x3fefaac6959d3ddd, 0x3feff5d26d46724f),
        ("6 7 8 9", 0x3fef102bc369d917, 0x3fef102bc3b39539),
        ("6 8", 0x3fefffffe9ea42a9, 0x3ff0000000000000),
        ("6 8 9", 0x3feffffffffc2bc0, 0x3feffffffffc2bc4),
        ("6 9", 0x3fed9df246fc7f60, 0x3fefffffffffae4d),
        ("8", 0x3fef472da0d655b3, 0x3ff0000000000000),
    ],
    0x3fe9b0384eb3dcee,
    [14, 21, 14],
);
const NO_SUB: Golden = (
    &[
        ("0", 0x3feffffffffec55e, 0x3feffffffffffffe),
        ("0 2", 0x3fefffffd18c1e72, 0x3feffffffddb9c7d),
        ("0 2 3", 0x3feffecff1a35022, 0x3fefff144ff6adc4),
        ("0 2 3 6", 0x3fefde5ed0c0829e, 0x3fefde5ed5c4e4cd),
        ("0 2 6", 0x3feffe6911f18fe7, 0x3fefffe79b34058e),
        ("0 2 6 8", 0x3fed81a698785066, 0x3fefb28125f60051),
        ("0 2 6 8 9", 0x3fee619c765732c5, 0x3fee61bf6ff4f9d8),
        ("0 2 6 9", 0x3fed6d0abcd355de, 0x3fefb115389261ba),
        ("0 3", 0x3feffe6243d9bb7c, 0x3fefffface7a788f),
        ("0 3 6", 0x3feffd1866e57839, 0x3feffe6af5cdbdee),
        ("0 6", 0x3feffffffe324fd1, 0x3fefffffffc5ad91),
        ("0 6 7 8", 0x3fe9b0384eb3dcee, 0x3feaecad00562b8e),
        ("0 6 8", 0x3fedb20c88524070, 0x3fefffc5d9539a73),
        ("0 6 8 9", 0x3feffe2346603779, 0x3feffe26d91cceaf),
        ("0 6 9", 0x3fed9dd65d006b4e, 0x3fefffc4505a3a42),
        ("1", 0x3fed6060e4e684e3, 0x3fed658e41f8aa19),
        ("2", 0x3feffffff891a7f6, 0x3fefffffffffff9d),
        ("2 3", 0x3feff772fe2c42b3, 0x3fefffe87121ca33),
        ("2 3 6", 0x3feff1f986c99516, 0x3feffa22166ef544),
        ("2 6", 0x3feffffff98ef1dc, 0x3fefffffffbd0c76),
        ("2 6 8", 0x3fefffe492839e12, 0x3feffff4f8d7a416),
        ("2 6 8 9", 0x3feff2f8800b6152, 0x3feff303cb813b1b),
        ("2 6 9", 0x3fed9d275fe36803, 0x3feffe49bcca1bbc),
        ("3", 0x3feffe5fe32bca66, 0x3feffffff0adf7b8),
        ("3 6", 0x3feffe9acea2688b, 0x3feffff6216264b8),
        ("3 6 8", 0x3fec61a902f8f4dc, 0x3feed90051307070),
        ("3 6 8 9", 0x3fea0a3a10e81572, 0x3fea4dfeb4fcd1fe),
        ("3 6 9", 0x3fec4c7b2d64e282, 0x3feed3eda6c35ced),
        ("6", 0x3fefffffffff2eee, 0x3ff0000000000000),
        ("6 7 8", 0x3fefaac6959d3ddd, 0x3feff5d26d46724f),
        ("6 7 8 9", 0x3fef102bc369d917, 0x3fef102bc3b39539),
        ("6 8", 0x3fefffffe9ea42a9, 0x3ff0000000000000),
        ("6 8 9", 0x3feffffffffc2bc0, 0x3feffffffffc2bc4),
        ("6 9", 0x3fed9df246fc7f60, 0x3fefffffffffae4d),
        ("8", 0x3fef472da0d655b3, 0x3ff0000000000000),
    ],
    0x3fe9b0384eb3dcee,
    [15, 21, 14],
);
const BFS: Golden = (
    &[
        ("0", 0x3feffffffffec55e, 0x3feffffffffffffe),
        ("0 2", 0x3fefffffd18c1e78, 0x3feffffffddb9c83),
        ("0 2 3", 0x3feffecff1a35022, 0x3fefff144ff6adc4),
        ("0 2 3 6", 0x3fefde5ed0c0829e, 0x3fefde5ed5c4e4cd),
        ("0 2 6", 0x3feffe6911f18fe7, 0x3fefffe79b34058e),
        ("0 2 6 8", 0x3fed81a698785066, 0x3fefb28125f60051),
        ("0 2 6 8 9", 0x3fee619c765732c5, 0x3fee61bf6ff4f9d8),
        ("0 2 6 9", 0x3fed6d0abcd355de, 0x3fefb115389261ba),
        ("0 3", 0x3feffe6243d9ffa8, 0x3fefffface7abcbb),
        ("0 3 6", 0x3feffd1866e57839, 0x3feffe6af5cdbdee),
        ("0 6", 0x3feffffffe324fd2, 0x3fefffffffc5ad92),
        ("0 6 7 8", 0x3fe9b0384eb3dcee, 0x3feaecad00562b8e),
        ("0 6 8", 0x3fedb20c88524070, 0x3fefffc5d9539a73),
        ("0 6 8 9", 0x3feffe2346603779, 0x3feffe26d91cceaf),
        ("0 6 9", 0x3fed9dd65d006b4e, 0x3fefffc4505a3a42),
        ("1", 0x3fed6060e4e684e3, 0x3fed658e41f8aa19),
        ("2", 0x3feffffff891a7f6, 0x3fefffffffffff9d),
        ("2 3", 0x3feff772fe2c8b67, 0x3fefffe8712212e7),
        ("2 3 6", 0x3feff1f986c99516, 0x3feffa22166ef544),
        ("2 6", 0x3feffffff98ef1dc, 0x3fefffffffbd0c76),
        ("2 6 8", 0x3fefffe492839e12, 0x3feffff4f8d7a416),
        ("2 6 8 9", 0x3feff2f8800b6152, 0x3feff303cb813b1b),
        ("2 6 9", 0x3fed9d275fe36803, 0x3feffe49bcca1bbc),
        ("3", 0x3feffe5fe32bca66, 0x3feffffff0adf7b8),
        ("3 6", 0x3feffe9acea265b0, 0x3feffff6216261dd),
        ("3 6 8", 0x3fec61a902f8f4dc, 0x3feed90051307070),
        ("3 6 8 9", 0x3fea0a3a10e81572, 0x3fea4dfeb4fcd1fe),
        ("3 6 9", 0x3fec4c7b2d64e282, 0x3feed3eda6c35ced),
        ("6", 0x3fefffffffff2eee, 0x3ff0000000000000),
        ("6 7 8", 0x3fefaac6959d3ddd, 0x3feff5d26d46724f),
        ("6 7 8 9", 0x3fef102bc369d917, 0x3fef102bc3b39539),
        ("6 8", 0x3fefffffe9ea42a9, 0x3ff0000000000000),
        ("6 8 9", 0x3feffffffffc2bc0, 0x3feffffffffc2bc4),
        ("6 9", 0x3fed9df246fc7f60, 0x3fefffffffffae4d),
        ("8", 0x3fef472da0d655b3, 0x3ff0000000000000),
    ],
    0x3fe9b0384eb3dcee,
    [23, 21, 14],
);
const STREAM_FINAL: &[Row] = &[
    ("0 2 3 6", 0x3fef4eee54767b40, 0x3fef5adceaebb535),
    ("0 2 6", 0x3fefead0a7bc1ca1, 0x3fefffb6da6cdfbc),
    ("0 2 6 8 9", 0x3fefe946d3694c6b, 0x3feff362699e29a4),
    ("0 3 6", 0x3feff75262d2bf08, 0x3fefff5943506c03),
    ("0 4 6", 0x3fec15493c66ec19, 0x3fee98655a9a1e4f),
    ("0 6", 0x3feffedb8c45abf8, 0x3feffffffc269df5),
    ("0 6 7 8 9", 0x3feb2aee64bf8b90, 0x3fec109e1134ce13),
    ("0 6 8 9", 0x3fee48bdd2ccfaf4, 0x3fefff25e02c8370),
    ("2 3 6", 0x3fefef4d3626db04, 0x3fefff5943506c03),
    ("2 3 6 8 9", 0x3fef329397b0cafc, 0x3fef38f3671382e2),
    ("2 6", 0x3fefe2a8f7072411, 0x3fefffffb9336862),
    ("2 6 8 9", 0x3fefeacfd27b4332, 0x3fefffa7d4393789),
    ("3 4 6", 0x3feac14cb4fb38e4, 0x3fee53612c8b13d0),
    ("3 6", 0x3feffda87d5b866a, 0x3feffffff0c455ed),
    ("3 6 8 9", 0x3feb6f89df9b152b, 0x3fefe31e2f45392d),
    ("6", 0x3feffffefa0d83fe, 0x3ff0000000000000),
    ("6 7 8 9", 0x3fefea061b4ac9f6, 0x3fefea07f9ab6a5b),
    ("6 8", 0x3fea6dc2d49de316, 0x3feffffffffff766),
    ("6 8 9", 0x3feffffffe13915c, 0x3fefffffffffcec8),
    ("8", 0x3fedc2014c7e504e, 0x3fefffffffffff64),
];
const STREAM_DELTAS: &[(u64, u64, u64)] = &[
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (0, 0, 0),
    (1, 0, 0),
    (2, 0, 0),
    (0, 0, 3),
    (2, 0, 0),
    (2, 0, 5),
    (0, 0, 6),
    (2, 0, 1),
    (0, 0, 3),
    (1, 0, 8),
    (2, 0, 2),
    (1, 0, 7),
    (0, 0, 6),
    (0, 0, 11),
    (2, 0, 13),
    (0, 0, 7),
    (3, 0, 12),
    (1, 0, 15),
    (6, 0, 11),
    (3, 1, 24),
    (2, 0, 27),
    (0, 0, 17),
    (0, 8, 10),
    (0, 2, 19),
    (0, 2, 17),
    (0, 0, 17),
    (0, 0, 5),
    (1, 1, 16),
    (0, 1, 10),
    (5, 1, 13),
    (0, 0, 19),
    (0, 1, 18),
    (1, 0, 4),
    (4, 0, 19),
    (4, 1, 12),
    (0, 1, 24),
    (6, 0, 16),
    (0, 3, 20),
    (1, 2, 21),
    (5, 0, 26),
    (1, 0, 24),
    (0, 1, 24),
    (0, 1, 14),
    (1, 4, 22),
    (2, 2, 27),
    (2, 0, 28),
    (1, 9, 14),
    (0, 0, 15),
    (2, 0, 23),
    (3, 4, 21),
    (0, 1, 9),
    (0, 0, 14),
    (0, 1, 12),
    (1, 0, 11),
    (0, 3, 7),
];
