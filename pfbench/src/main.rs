//! `pfbench` — the end-to-end and per-layer benchmark of pfcim.
//!
//! ```text
//! cargo run --release --manifest-path pfbench/Cargo.toml -- \
//!     --workload batch-sampled --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload generates its input from `--seed`, writes it as a
//! `.dat` file, loads it back through `utdb::io` (the program sees only
//! that input), runs its operations for `--seconds`, and checks every
//! answer. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` a traced run prints the per-layer metrics and a "where the
//! time went" table. The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. See
//! `pfbench/README.md` for the workloads, the metrics and which layer
//! metric should move which end-to-end metric.

mod batch;
mod inputs;
mod ledger;
mod measure;
mod serve;
mod spans;
mod stream;

use std::fmt::Write as _;
use std::process::ExitCode;

use measure::{median, quantile, Report};

/// The workloads, by name.
const WORKLOADS: [&str; 4] = [
    "batch-sampled",
    "batch-paper",
    "serve-mixed",
    "stream-slide",
];

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 69] = [
    ("mpfci.freq_dp_s", "s"),
    ("mpfci.ch_bound_s", "s"),
    ("mpfci.event_build_s", "s"),
    ("mpfci.bound_eval_s", "s"),
    ("mpfci.fcp_exact_s", "s"),
    ("mpfci.fcp_sample_s", "s"),
    ("mpfci.other_s", "s"),
    ("mpfci.thread_s", "s"),
    ("mpfci.wall_s", "s"),
    ("mpfci.nodes", "count"),
    ("mpfci.pruned_ch", "count"),
    ("mpfci.pruned_superset", "count"),
    ("mpfci.pruned_subset", "count"),
    ("mpfci.pruned_infrequent", "count"),
    ("mpfci.bound_rejected", "count"),
    ("mpfci.bound_decided", "count"),
    ("mpfci.bound_decided_ratio", "ratio"),
    ("fcp.sampled_evals", "count"),
    ("fcp.exact_evals", "count"),
    ("fcp.samples", "count"),
    ("fcp.samples_per_eval", "count"),
    ("fcp.sampled_share", "ratio"),
    ("prob.kl_ns_per_sample", "ns"),
    ("prob.ie_ns_per_term", "ns"),
    ("prob.dp_rows", "count"),
    ("prob.dp_incremental_ratio", "ratio"),
    ("prob.dp_refusals", "count"),
    ("prob.dp_push_ns", "ns"),
    ("prob.dp_downdate_ns", "ns"),
    ("prob.dp_downdate_accept_ratio", "ratio"),
    ("events.builds", "count"),
    ("events.build_ns", "ns"),
    ("events.bounds_ns", "ns"),
    ("events.family_size_p50", "count"),
    ("events.bound_cache_hit_ratio", "ratio"),
    ("utdb.bitmap_words", "count"),
    ("utdb.and_count_ns_per_word", "ns"),
    ("utdb.window_push_ns", "ns"),
    ("utdb.window_pop_ns", "ns"),
    ("utdb.read_dat_s", "s"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("par.busy_s", "s"),
    ("par.idle_s", "s"),
    ("par.speedup_vs_t1", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.contended", "count"),
    ("serve.carved_ratio", "ratio"),
    ("serve.server_s_p50", "s"),
    ("serve.overhead_s_p50", "s"),
    ("serve.installs", "count"),
    ("serve.install_s", "s"),
    ("serve.refused", "count"),
    ("serve.snapshot_build_s", "s"),
    ("serve.cold_s_p50", "s"),
    ("serve.warm_s_p50", "s"),
    ("serve.carve_s_p50", "s"),
    ("stream.self_s", "s"),
    ("stream.row_downdates", "count"),
    ("stream.row_rebuilds", "count"),
    ("stream.downdate_ratio", "ratio"),
    ("stream.roots_mined", "count"),
    ("stream.roots_skipped_ratio", "ratio"),
    ("stream.patterns_carried", "count"),
    ("stream.deltas", "count"),
    ("stream.warm_fill_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "pfbench: {e}\nusage: pfbench --workload <{}> [--seed N] [--seconds S] \
                 [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        "batch-sampled" => batch::run(batch::Batch::Sampled, args.seed, args.seconds, args.trace),
        "batch-paper" => batch::run(batch::Batch::Paper, args.seed, args.seconds, args.trace),
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace),
        _ => stream::run(args.seed, args.seconds, args.trace),
    };
    print!("{}", render_report(&args, &report));
    ExitCode::SUCCESS
}

/// The human-readable report followed by the JSON result line.
fn render_report(args: &Args, r: &Report) -> String {
    let mut out = String::new();
    let tail_q = r.tail_percentile();
    let tail_name = format!("{}_s_p{}", r.op, (tail_q * 100.0).round());
    let end_to_end = [
        ("setup_s", median(&r.setup_s), "s"),
        ("latency_s_p50", median(&r.latencies), "s"),
        ("latency_s_tail", quantile(&r.latencies, tail_q), "s"),
        (
            "ops_per_s",
            r.work / r.window_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        ("peak_rss_mb", r.peak_rss_mb, "MiB"),
    ];
    let aliases = [
        format!("median of {} set-ups", r.setup_s.len()),
        format!("{}_s_p50, n={}", r.op, r.latencies.len()),
        format!("{tail_name}, n={}", r.latencies.len()),
        format!("{}, {:.0} in {:.2} s", r.rate_name, r.work, r.window_s),
        "VmHWM".to_owned(),
    ];
    let _ = writeln!(
        out,
        "# pfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for ((name, value, unit), alias) in end_to_end.iter().zip(&aliases) {
        let _ = writeln!(out, "{name:<16} {value:>14.6} {unit:<4} ({alias})");
    }
    let _ = writeln!(
        out,
        "{:<16} {:>14.6}      ({} of {} operations failed, were refused or wrong)",
        "error_rate",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    if args.trace {
        let _ = writeln!(
            out,
            "\nwhere the time went, per {} ({:.6} s):",
            r.op, r.table_total_s
        );
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>7}  counts",
            "layer", "self_s", "share"
        );
        for row in &r.table {
            let share = if r.table_total_s > 0.0 {
                row.self_s / r.table_total_s
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<28} {:>12.6} {:>6.1}%  {}",
                row.layer,
                row.self_s,
                share * 100.0,
                row.counts
            );
        }
        for note in &r.notes {
            let _ = writeln!(out, "# {note}");
        }
        let _ = writeln!(out, "\nper-layer metrics:");
        for (name, value, unit) in &r.layers {
            let _ = writeln!(out, "{name:<32} {value:>16.6} {unit}");
        }
    }
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = r
                    .layers
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(0.0, |(_, v, _)| *v);
                metric_json(name, value, unit)
            })
            .collect()
    } else {
        end_to_end
            .iter()
            .map(|&(name, value, unit)| metric_json(name, value, unit))
            .collect()
    };
    let _ = writeln!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    );
    out
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}
