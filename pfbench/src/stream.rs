//! The `stream-slide` workload: `StreamMiner::advance` over a
//! HighProbUniform feed, window 256, min_sup 8, pfct 0.8, `ExactOnly`,
//! one thread. A step is one arrival plus one expiry, so the
//! frequentness DP works by downdating instead of building.

use std::time::Instant;

use pfcim_core::{FcpMethod, Miner, MinerConfig, NullSink, StreamConfig, StreamMiner};
use pfcim_core::{KernelStats, MinerStats, StreamStats};
use utdb::UncertainDatabase;

use crate::measure::TableRow;
use crate::measure::{bit_identical, load, median, peak_rss_mb, secs, write_input, Report};
use crate::spans::{Rollup, SpanSink};
use crate::{inputs, ledger};

/// Window size in transactions.
const WINDOW: usize = 256;
/// Transactions in the generated feed; the stream wraps around it.
const FEED_ROWS: usize = 40_000;
/// Set-up repetitions before the timed window; one more follows each
/// check. The reported `setup_s` is the median of all of them.
const SETUP_REPS: usize = 3;
/// Steps between checks against a fresh batch mine of the window.
const CHECK_EVERY: u64 = 997;

fn config() -> MinerConfig {
    MinerConfig::new(8, 0.8)
        .with_fcp_method(FcpMethod::ExactOnly)
        .with_threads(1)
}

/// A stream miner whose window holds the first [`WINDOW`] rows of
/// `feed`, mined once — how a stream starts from a backlog.
fn warm_window(feed: &UncertainDatabase) -> StreamMiner {
    let mut sm = StreamMiner::new(
        feed.dictionary().clone(),
        StreamConfig::new(WINDOW, config()),
    );
    for tx in &feed.transactions()[..WINDOW] {
        sm.insert(tx.clone());
    }
    sm.refresh(&mut NullSink);
    sm
}

/// Does the maintained set equal a fresh batch mine of the window, bit
/// for bit?
fn matches_batch(sm: &StreamMiner) -> bool {
    let window = sm.window().dense_db();
    let fresh = Miner::new(&window).config(config()).run();
    bit_identical(sm.results(), &fresh.results)
}

/// Run the workload for `seconds`, traced or not.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report {
        op: "step",
        rate_name: "tx_per_s",
        nominal_tail: 0.99,
        ..Report::default()
    };
    let path = write_input(
        &inputs::high_prob_feed(seed, FEED_ROWS),
        &format!("stream-slide-{seed}"),
    );
    // One set-up: load the feed and fill and mine the window. Returns the
    // feed, the miner, and the seconds spent reading and filling.
    let setup = || {
        let t = Instant::now();
        let feed = load(&path);
        let read = secs(t);
        let t = Instant::now();
        let sm = warm_window(&feed);
        (feed, sm, read, secs(t))
    };
    let (mut read_s, mut fill_s) = (Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let (feed, sm, read, fill) = setup();
        read_s.push(read);
        fill_s.push(fill);
        state = Some((feed, sm));
    }
    let (feed, mut sm) = state.expect("at least one set-up");
    let rows = feed.transactions();

    let mut traced = Traced::default();
    let epoch = Instant::now();
    let stats_before = *sm.stats();
    let start = Instant::now();
    let mut paused = 0.0;
    let mut step = 0u64;
    let mut next = WINDOW;
    while secs(start) < seconds || step == 0 {
        step += 1;
        let tx = rows[next % rows.len()].clone();
        next += 1;
        if trace && step.is_multiple_of(2) {
            traced.step(&mut sm, tx, epoch, step);
        } else {
            let t = Instant::now();
            sm.advance(tx, &mut NullSink);
            report.latencies.push(secs(t));
        }
        report.attempted += 1;
        if step.is_multiple_of(CHECK_EVERY) {
            // A check and one more set-up, outside the measured time.
            let t = Instant::now();
            if !matches_batch(&sm) {
                report.failed += 1;
            }
            let (_, _, read, fill) = setup();
            read_s.push(read);
            fill_s.push(fill);
            paused += secs(t);
        }
    }
    report.window_s = secs(start) - paused;
    report.peak_rss_mb = peak_rss_mb();
    report.work = step as f64;
    report.setup_s = read_s.iter().zip(&fill_s).map(|(r, f)| r + f).collect();
    report.attempted += 1;
    if !matches_batch(&sm) {
        report.failed += 1;
    }
    if trace {
        let stats = *sm.stats();
        traced.report(&stats_before, &stats, &mut report);
        report.layer("utdb.read_dat_s", median(&read_s), "s");
        report.layer("stream.warm_fill_s", median(&fill_s), "s");
        let window = sm.window().dense_db();
        ledger::replay(&window, sm.results(), &config(), &mut report);
    }
    report
}

/// The traced half of a `--trace 1` run: every other step goes through a
/// [`SpanSink`], inside a `step` span of the benchmark's own.
#[derive(Default)]
struct Traced {
    rollup: Rollup,
    steps: Vec<f64>,
    stats: MinerStats,
    kernel: KernelStats,
    refusals: u64,
}

impl Traced {
    fn step(
        &mut self,
        sm: &mut StreamMiner,
        tx: utdb::UncertainTransaction,
        epoch: Instant,
        n: u64,
    ) {
        let mut sink = SpanSink::new(epoch);
        sink.begin_run(n as u32);
        let span = sink.enter("step");
        let step = sm.advance(tx, &mut sink);
        sink.exit(span);
        let spans = sink.take_spans();
        self.steps.push(spans[span].secs());
        self.rollup.add(&spans);
        if let Some(mined) = &step.mined {
            self.stats.absorb(&mined.stats);
            self.kernel.absorb(&mined.kernel);
            self.refusals += mined.audit.refusals();
        }
    }

    fn report(self, before: &StreamStats, after: &StreamStats, report: &mut Report) {
        let r = &self.rollup;
        report.table_total_s = r.thread_s();
        report.phases(r);
        let other = r.self_s("run") + r.self_s("node");
        report.layer("mpfci.other_s", other, "s");
        report.layer("mpfci.thread_s", r.thread_s(), "s");
        report.layer("mpfci.wall_s", median(&self.steps), "s");
        report.table.push(TableRow {
            layer: "mpfci.other_s".into(),
            self_s: other,
            counts: format!("runs={:.3} nodes={:.2}", r.calls("run"), r.calls("node")),
        });
        let stream_self = r.self_s("step");
        report.layer("stream.self_s", stream_self, "s");
        // Counters over the whole timed window (traced and untraced steps).
        let d = |f: fn(&StreamStats) -> u64| f(after).saturating_sub(f(before)) as f64;
        let steps = d(|s| s.steps).max(1.0);
        let downdates = d(|s| s.row_downdates);
        let rebuilds = d(|s| s.row_rebuilds);
        let skipped = d(|s| s.roots_skipped_count) + d(|s| s.roots_skipped_certificate);
        let deltas = d(|s| s.deltas_added) + d(|s| s.deltas_removed) + d(|s| s.deltas_updated);
        report.table.push(TableRow {
            layer: "stream.self_s".into(),
            self_s: stream_self,
            counts: format!(
                "downdates={:.2} rebuilds={:.3} roots_mined={:.2} per step",
                downdates / steps,
                rebuilds / steps,
                d(|s| s.roots_mined) / steps
            ),
        });
        for (name, value) in [
            ("stream.row_downdates", downdates / steps),
            ("stream.row_rebuilds", rebuilds / steps),
            ("stream.roots_mined", d(|s| s.roots_mined) / steps),
            ("stream.patterns_carried", d(|s| s.patterns_carried) / steps),
            ("stream.deltas", deltas / steps),
        ] {
            report.layer(name, value, "count");
        }
        let downdate_ratio = downdates / (downdates + rebuilds).max(1.0);
        report.layer("stream.downdate_ratio", downdate_ratio, "ratio");
        let affected = d(|s| s.roots_affected).max(1.0);
        report.layer("stream.roots_skipped_ratio", skipped / affected, "ratio");

        report.miner_counters(&self.stats, &self.kernel, self.refusals, r.ops as f64);
        report.layer("par.busy_s", median(&self.steps), "s");
        report.layer("par.speedup_vs_t1", 1.0, "ratio");
        let overhead = median(&self.steps) / median(&report.latencies);
        report.layer("trace.overhead_ratio", overhead, "ratio");
        report.notes.push(format!(
            "{} traced steps; stream counters cover all {steps} steps of the window",
            r.ops
        ));
        if let Some(path) = r.write("stream-slide") {
            report
                .notes
                .push(format!("spans written to {}", path.display()));
        }
    }
}
