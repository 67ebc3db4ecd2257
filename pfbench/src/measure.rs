//! What every workload reports, and the helpers that compute it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pfcim_core::{KernelStats, MinerStats, Pfci, Phase};
use utdb::UncertainDatabase;

use crate::spans::Rollup;

/// One workload run's measurements.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (mines, queries plus installs, or steps).
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong answer.
    pub failed: u64,
    /// Set-up repetitions, in seconds: some before the timed window and
    /// more between its operations, so that their median sees the same
    /// machine as the operations do.
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation, in seconds.
    pub latencies: Vec<f64>,
    /// Units of work done in the timed window (mines, queries or
    /// transactions).
    pub work: f64,
    /// Length of the timed window, in seconds, less the checks and
    /// set-ups made inside it.
    pub window_s: f64,
    /// Peak resident set size at the end of the timed window, in MiB
    /// (before the reference checks and the ledger, which are the
    /// benchmark's own work).
    pub peak_rss_mb: f64,
    /// What one operation is called in the issue's metric names
    /// (`mine`, `query`, `step`) and the throughput's name.
    pub op: &'static str,
    /// Throughput name in the issue's vocabulary.
    pub rate_name: &'static str,
    /// The tail percentile this workload reports when its sample count
    /// supports it.
    pub nominal_tail: f64,
    /// Per-layer metrics of a traced run: name, value, unit.
    pub layers: Vec<(String, f64, &'static str)>,
    /// "Where the time went" rows: layer, self seconds per operation,
    /// share, counts.
    pub table: Vec<TableRow>,
    /// The denominator of the table's shares, in seconds per operation.
    pub table_total_s: f64,
    /// Notes printed after the table.
    pub notes: Vec<String>,
}

/// One row of the "where the time went" table.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Layer metric name.
    pub layer: String,
    /// Self time per operation, in seconds.
    pub self_s: f64,
    /// Counts shown beside it.
    pub counts: String,
}

impl Report {
    /// Set a per-layer metric (a later value replaces an earlier one).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.layers.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => *entry = (name.to_owned(), value, unit),
            None => self.layers.push((name.to_owned(), value, unit)),
        }
    }

    /// The miner's own counters, summed over `ops` operations, as
    /// per-operation counts and ratios.
    pub fn miner_counters(&mut self, st: &MinerStats, k: &KernelStats, refusals: u64, ops: f64) {
        let ops = ops.max(1.0);
        let per = |x: u64| x as f64 / ops;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let evals = st.fcp_evaluations() + st.bound_decided;
        let lookups = k.bound_cache_hits + k.bound_cache_misses;
        for (name, value) in [
            ("mpfci.nodes", per(st.nodes_visited)),
            ("mpfci.pruned_ch", per(st.ch_pruned)),
            ("mpfci.pruned_superset", per(st.superset_pruned)),
            ("mpfci.pruned_subset", per(st.subset_pruned)),
            ("mpfci.pruned_infrequent", per(st.freq_pruned)),
            ("mpfci.bound_rejected", per(st.bound_rejected)),
            ("mpfci.bound_decided", per(st.bound_decided)),
            ("fcp.sampled_evals", per(st.fcp_sampled)),
            ("fcp.exact_evals", per(st.fcp_exact)),
            ("fcp.samples", per(st.samples_drawn)),
            (
                "fcp.samples_per_eval",
                ratio(st.samples_drawn, st.fcp_sampled),
            ),
            ("events.builds", per(k.bound_cache_misses)),
            ("utdb.bitmap_words", per(k.bitmap_words)),
            ("prob.dp_rows", per(k.dp_rows())),
            ("prob.dp_refusals", per(refusals)),
            ("cache.hits", per(k.bound_cache_hits)),
            ("cache.misses", per(k.bound_cache_misses)),
        ] {
            self.layer(name, value, "count");
        }
        for (name, value) in [
            ("mpfci.bound_decided_ratio", ratio(st.bound_decided, evals)),
            ("fcp.sampled_share", ratio(st.fcp_sampled, evals)),
            (
                "events.bound_cache_hit_ratio",
                ratio(k.bound_cache_hits, lookups),
            ),
            ("cache.hit_ratio", ratio(k.bound_cache_hits, lookups)),
            (
                "prob.dp_incremental_ratio",
                ratio(k.dp_incremental, k.dp_rows()),
            ),
        ] {
            self.layer(name, value, "ratio");
        }
    }

    /// The six miner phases' self times per operation, as layer metrics
    /// and table rows; returns their sum.
    pub fn phases(&mut self, rollup: &Rollup) -> f64 {
        let mut total = 0.0;
        for phase in Phase::ALL {
            let name = format!("mpfci.{}_s", phase.name());
            let s = rollup.self_s(phase.name());
            total += s;
            self.layer(&name, s, "s");
            self.table.push(TableRow {
                layer: name,
                self_s: s,
                counts: format!("calls={:.2}", rollup.calls(phase.name())),
            });
        }
        total
    }

    /// The percentile actually reported as the tail: the nominal one when
    /// at least ten samples lie beyond it, else the highest one that has
    /// ten, down to the median.
    pub fn tail_percentile(&self) -> f64 {
        let n = self.latencies.len() as f64;
        [0.99, 0.95, 0.9, 0.75]
            .into_iter()
            .filter(|&q| q <= self.nominal_tail)
            .find(|&q| n * (1.0 - q) >= 10.0)
            .unwrap_or(0.5)
    }
}

/// Quantile `q` of `values` (nearest rank on the sorted values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The directory generated inputs and span dumps go to: inside the
/// build directory (`CARGO_TARGET_DIR`, else `pfbench/target`), which the
/// checkout's `.gitignore` already excludes.
pub fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("pfbench/target"), PathBuf::from);
    let dir = base.join("pfbench-work");
    std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
    dir
}

/// Write `db` as a `.dat` input file and return its path.
pub fn write_input(db: &UncertainDatabase, name: &str) -> PathBuf {
    let path = work_dir().join(format!("{name}.dat"));
    utdb::io::write_dat(db, &path).expect("write the generated input");
    path
}

/// Load an input the way a user does, through `utdb::io`.
pub fn load(path: &Path) -> UncertainDatabase {
    utdb::io::read_dat(path).expect("read the generated input")
}

/// Results rendered exactly as the service renders them (numeric item
/// ids, six-digit `fcp` and `pr_f`) — the byte-identity currency of the
/// correctness checks.
pub fn render(results: &[Pfci]) -> String {
    let mut out = String::from("[");
    for (i, p) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ids: Vec<String> = p.items.iter().map(|it| it.0.to_string()).collect();
        let _ = write!(
            out,
            "{{\"items\":[{}],\"fcp\":{:.6},\"pr_f\":{:.6}}}",
            ids.join(","),
            p.fcp,
            p.frequent_probability
        );
    }
    out.push(']');
    out
}

/// Bit-exact equality of two result sets (itemsets, `fcp` and `pr_f`).
pub fn bit_identical(a: &[Pfci], b: &[Pfci]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.items == y.items
                && x.fcp.to_bits() == y.fcp.to_bits()
                && x.frequent_probability.to_bits() == y.frequent_probability.to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut r = Report {
            nominal_tail: 0.99,
            latencies: vec![1.0; 150],
            ..Report::default()
        };
        assert_eq!(r.tail_percentile(), 0.9);
        r.latencies = vec![1.0; 1000];
        assert_eq!(r.tail_percentile(), 0.99);
        r.latencies = vec![1.0; 12];
        assert_eq!(r.tail_percentile(), 0.5);
    }
}
