//! The kernel replay ledger: for itemsets taken from a workload's own
//! answers, time the public kernel calls under each layer and report the
//! cost per unit of work (per build, per sample, per inclusion–exclusion
//! term, per DP row operation, per bitmap word, per window operation).
//! A kernel change can then be traced into, or shown absent from, the
//! end-to-end numbers of the same workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pfcim_core::{approx_fcp, exact_fcp_inclusion_exclusion, EventTable, MinerConfig, Pfci};
use prob::TailDp;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use utdb::{SlidingWindow, UncertainDatabase};

use crate::measure::{median, Report};

/// Wall-clock spent on each kernel of the ledger.
const BUDGET: Duration = Duration::from_millis(120);
/// Itemsets replayed per workload.
const MAX_ITEMSETS: usize = 8;
/// Largest family replayed through exact inclusion–exclusion
/// (2^16 − 1 terms).
const MAX_IE_EVENTS: usize = 16;
/// Retired-prefix length at which the replayed window compacts (the
/// stream workload's window size).
const WINDOW_COMPACT_AFTER: usize = 256;

/// Run `f` until [`BUDGET`] is spent (at least once); `f` returns the
/// units of work it did. Returns nanoseconds per unit (0 without work).
fn ns_per_unit(mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += f();
        if start.elapsed() >= BUDGET {
            break;
        }
    }
    if units == 0 {
        0.0
    } else {
        start.elapsed().as_nanos() as f64 / units as f64
    }
}

/// Up to [`MAX_ITEMSETS`] answers, evenly spaced over the result set.
fn pick(results: &[Pfci]) -> Vec<&Pfci> {
    let step = results.len().div_ceil(MAX_ITEMSETS).max(1);
    results.iter().step_by(step).collect()
}

/// Replay the kernels over `db` for itemsets from `results`, mined under
/// `cfg`, and add the ledger's metrics to `report`.
pub fn replay(db: &UncertainDatabase, results: &[Pfci], cfg: &MinerConfig, report: &mut Report) {
    let picked = pick(results);
    let min_sup = cfg.min_sup;
    let tids: Vec<_> = picked
        .iter()
        .map(|p| db.tidset_of_itemset(&p.items).into_bitmap())
        .collect();
    let tables: Vec<EventTable> = tids
        .iter()
        .map(|t| EventTable::build(db, t, min_sup))
        .collect();
    let families: Vec<_> = picked
        .iter()
        .zip(&tables)
        .map(|(p, t)| t.family_excluding(&p.items))
        .collect();
    let sizes: Vec<f64> = families.iter().map(|f| f.len() as f64).collect();

    let mut i = 0usize;
    let build_ns = ns_per_unit(|| {
        if tids.is_empty() {
            return 0;
        }
        i = (i + 1) % tids.len();
        black_box(EventTable::build(db, &tids[i], min_sup));
        1
    });
    let bounds_ns = ns_per_unit(|| {
        if picked.is_empty() {
            return 0;
        }
        i = (i + 1) % picked.len();
        let family = tables[i].family_excluding(&picked[i].items);
        black_box(family.fcp_bounds(
            picked[i].frequent_probability,
            cfg.max_pairwise_events,
            Some(cfg.pfct),
        ));
        1
    });
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let sampled: Vec<usize> = (0..picked.len())
        .filter(|&j| !families[j].is_empty())
        .collect();
    let kl_ns = ns_per_unit(|| {
        if sampled.is_empty() {
            return 0;
        }
        i = (i + 1) % sampled.len();
        let j = sampled[i];
        let r = approx_fcp(
            &families[j],
            picked[j].frequent_probability,
            cfg.epsilon,
            cfg.delta,
            &mut rng,
        );
        r.samples as u64
    });
    let exact: Vec<usize> = (0..picked.len())
        .filter(|&j| (4..=MAX_IE_EVENTS).contains(&families[j].len()))
        .collect();
    let ie_ns = ns_per_unit(|| {
        if exact.is_empty() {
            return 0;
        }
        i = (i + 1) % exact.len();
        let j = exact[i];
        black_box(exact_fcp_inclusion_exclusion(db, &picked[j].items, min_sup));
        (1u64 << families[j].len()) - 1
    });

    // Frequentness DP rows over the answers' supporting tuples.
    let probs: Vec<Vec<f64>> = tids
        .iter()
        .map(|t| t.iter().map(|tid| db.probability(tid)).collect())
        .collect();
    let push_ns = ns_per_unit(|| {
        if probs.is_empty() {
            return 0;
        }
        i = (i + 1) % probs.len();
        let mut row = TailDp::new(min_sup);
        for &p in &probs[i] {
            row.push(p);
        }
        black_box(row.tail());
        probs[i].len() as u64
    });
    let rows: Vec<TailDp> = probs
        .iter()
        .map(|ps| TailDp::from_probs(min_sup, ps.iter().copied()))
        .collect();
    let mut downdates = 0u64;
    let mut attempts = 0u64;
    let downdate_ns = {
        let start = Instant::now();
        let mut spent = Duration::ZERO;
        while start.elapsed() < BUDGET && !rows.is_empty() {
            i = (i + 1) % rows.len();
            let mut row = rows[i].clone();
            let t0 = Instant::now();
            for &p in probs[i].iter().take(64) {
                attempts += 1;
                if row.try_remove_explained(p, cfg.dp_error_tol).is_err() {
                    break;
                }
                downdates += 1;
            }
            spent += t0.elapsed();
            black_box(row.tail());
        }
        if attempts == 0 {
            0.0
        } else {
            spent.as_nanos() as f64 / attempts as f64
        }
    };

    // Bitmap intersections of the answers' items.
    let pairs: Vec<_> = picked
        .iter()
        .filter(|p| p.items.len() >= 2)
        .map(|p| (p.items[0], p.items[p.items.len() - 1]))
        .collect();
    let and_ns = ns_per_unit(|| {
        if pairs.is_empty() {
            return 0;
        }
        i = (i + 1) % pairs.len();
        let (a, b) = (db.bitmap_of(pairs[i].0), db.bitmap_of(pairs[i].1));
        black_box(a.and_count(b));
        a.word_len() as u64
    });

    // The sliding window: push every row of the input, then pop them,
    // compacting as the stream miner's window does.
    let (mut push_time, mut pop_time, mut window_ops) = (Duration::ZERO, Duration::ZERO, 0u64);
    let start = Instant::now();
    while start.elapsed() < BUDGET && !db.is_empty() {
        let rows = db.transactions().to_vec();
        let mut window = SlidingWindow::new(db.dictionary().clone(), WINDOW_COMPACT_AFTER);
        let t0 = Instant::now();
        for tx in rows {
            window.push(tx);
        }
        let t1 = Instant::now();
        while window.pop().is_some() {}
        push_time += t1 - t0;
        pop_time += t1.elapsed();
        window_ops += db.len() as u64;
    }
    let per_window_op = |t: Duration| t.as_nanos() as f64 / window_ops.max(1) as f64;

    report.layer("events.build_ns", build_ns, "ns");
    report.layer("events.bounds_ns", bounds_ns, "ns");
    report.layer("events.family_size_p50", median(&sizes), "count");
    report.layer("prob.kl_ns_per_sample", kl_ns, "ns");
    report.layer("prob.ie_ns_per_term", ie_ns, "ns");
    report.layer("prob.dp_push_ns", push_ns, "ns");
    report.layer("prob.dp_downdate_ns", downdate_ns, "ns");
    report.layer(
        "prob.dp_downdate_accept_ratio",
        downdates as f64 / attempts.max(1) as f64,
        "ratio",
    );
    report.layer("utdb.and_count_ns_per_word", and_ns, "ns");
    report.layer("utdb.window_push_ns", per_window_op(push_time), "ns");
    report.layer("utdb.window_pop_ns", per_window_op(pop_time), "ns");
    report.notes.push(format!(
        "ledger: {} itemsets from the answers, family sizes {:?}",
        picked.len(),
        sizes
    ));
}
