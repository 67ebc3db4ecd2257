//! The batch workloads: one user mining one input, again and again.
//!
//! * `batch-sampled` — the HighProbUniform protocol (300 rows, uniform
//!   p∈[0.6,0.9]) at min_sup 3, pfct 0.8, ε=δ=0.1, the default
//!   `FcpMethod`, one thread: sampling-bound.
//! * `batch-paper` — the paper's T20I10D30KP40 protocol (Gaussian
//!   N(0.8, 0.1)) at 3000 rows, min_sup 20%, pfct 0.8, two threads:
//!   decided by bounds, with event building and the frequentness DP
//!   carrying the time.

use std::collections::BTreeMap;
use std::time::Instant;

use pfcim_core::{exact_fcp_inclusion_exclusion, FcpMethod, Miner, MinerConfig, MiningOutcome};
use pfcim_core::{Pfci, Phase};
use utdb::{Item, UncertainDatabase};

use crate::measure::{load, median, peak_rss_mb, render, secs, write_input, Report, TableRow};
use crate::spans::{Rollup, Span, SpanSink};
use crate::{inputs, ledger};

/// Set-up repetitions before the timed window; one more follows each
/// mine. The reported `setup_s` is the median of all of them.
const SETUP_REPS: usize = 5;

/// Traced one-thread mines of the `batch-paper` input, the baseline of
/// `par.speedup_vs_t1`.
const T1_MINES: usize = 3;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Sampling-bound HighProbUniform cell.
    Sampled,
    /// The paper's Quest cell at 3000 rows.
    Paper,
}

impl Batch {
    fn name(self) -> &'static str {
        match self {
            Batch::Sampled => "batch-sampled",
            Batch::Paper => "batch-paper",
        }
    }

    fn generate(self, seed: u64) -> UncertainDatabase {
        match self {
            Batch::Sampled => inputs::high_prob(seed),
            Batch::Paper => inputs::quest(seed, 3000),
        }
    }

    /// The tail percentile a 20-second run has ten mines beyond: p75 of
    /// about 55 sampled mines, and only the median of about 20 paper
    /// mines.
    fn nominal_tail(self) -> f64 {
        match self {
            Batch::Sampled => 0.75,
            Batch::Paper => 0.5,
        }
    }

    fn config(self, db: &UncertainDatabase) -> MinerConfig {
        match self {
            Batch::Sampled => MinerConfig::new(3, 0.8).with_threads(1),
            Batch::Paper => MinerConfig::new(db.len() / 5, 0.8).with_threads(2),
        }
    }
}

/// Checks a mine's answer against the workload's reference.
enum Check {
    /// The rendered answer of a reference mine made before timing.
    Identical(String),
    /// An `ExactOnly` mine: itemsets may differ only within ε of pfct,
    /// and every reported FCP lies within ε of the exact value.
    WithinEpsilon {
        exact: BTreeMap<Vec<Item>, f64>,
        /// Exact FCPs of reported itemsets missing from `exact`.
        extra: BTreeMap<Vec<Item>, f64>,
        epsilon: f64,
        pfct: f64,
    },
}

impl Check {
    fn new(batch: Batch, db: &UncertainDatabase, cfg: &MinerConfig) -> Check {
        match batch {
            Batch::Paper => {
                Check::Identical(render(&Miner::new(db).config(cfg.clone()).run().results))
            }
            Batch::Sampled => {
                let exact = Miner::new(db)
                    .config(cfg.clone().with_fcp_method(FcpMethod::ExactOnly))
                    .run();
                Check::WithinEpsilon {
                    exact: exact
                        .results
                        .iter()
                        .map(|p| (p.items.clone(), p.fcp))
                        .collect(),
                    extra: BTreeMap::new(),
                    epsilon: cfg.epsilon,
                    pfct: cfg.pfct,
                }
            }
        }
    }

    fn passes(&mut self, db: &UncertainDatabase, min_sup: usize, results: &[Pfci]) -> bool {
        match self {
            Check::Identical(expected) => render(results) == *expected,
            Check::WithinEpsilon {
                exact,
                extra,
                epsilon,
                pfct,
            } => {
                let near = |fcp: f64| (fcp - *pfct).abs() <= *epsilon;
                let mut ok = true;
                for p in results {
                    let truth = match exact.get(&p.items) {
                        Some(&f) => f,
                        None => {
                            let f = *extra.entry(p.items.clone()).or_insert_with(|| {
                                exact_fcp_inclusion_exclusion(db, &p.items, min_sup)
                                    .unwrap_or(f64::NAN)
                            });
                            ok &= near(f);
                            f
                        }
                    };
                    ok &= (p.fcp - truth).abs() <= *epsilon;
                }
                for (items, &f) in exact.iter() {
                    if !results.iter().any(|p| &p.items == items) {
                        ok &= near(f);
                    }
                }
                ok
            }
        }
    }
}

/// Run a batch workload for `seconds`, traced or not.
pub fn run(batch: Batch, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report {
        op: "mine",
        rate_name: "mines_per_s",
        nominal_tail: batch.nominal_tail(),
        ..Report::default()
    };
    let path = write_input(&batch.generate(seed), &format!("{}-{seed}", batch.name()));
    let setup = || {
        let t = Instant::now();
        (load(&path), secs(t))
    };
    let mut db = None;
    for _ in 0..SETUP_REPS {
        let (loaded, s) = setup();
        report.setup_s.push(s);
        db = Some(loaded);
    }
    let db = db.expect("at least one set-up");
    let cfg = batch.config(&db);
    let mut check = Check::new(batch, &db, &cfg);
    let mine = || Miner::new(&db).config(cfg.clone()).run();
    // Warm-up: one untimed mine, checked like the rest.
    let warm = mine();
    report.attempted += 1;
    if !check.passes(&db, cfg.min_sup, &warm.results) {
        report.failed += 1;
    }

    let mut traced = Traced::new();
    let start = Instant::now();
    let mut paused = 0.0;
    let mut n = 0u32;
    while secs(start) < seconds || n == 0 {
        n += 1;
        let outcome = if trace && n.is_multiple_of(2) {
            traced.mine(&db, &cfg)
        } else {
            let t = Instant::now();
            let outcome = mine();
            report.latencies.push(secs(t));
            outcome
        };
        // The check and one more set-up, outside the measured time.
        let t = Instant::now();
        report.attempted += 1;
        if outcome.timed_out || !check.passes(&db, cfg.min_sup, &outcome.results) {
            report.failed += 1;
        }
        report.setup_s.push(setup().1);
        paused += secs(t);
    }
    report.window_s = secs(start) - paused;
    report.peak_rss_mb = peak_rss_mb();
    report.work = f64::from(n);
    report.layer("utdb.read_dat_s", median(&report.setup_s), "s");
    if trace {
        traced.report(batch, &db, &cfg, &warm, &mut report);
    }
    report
}

/// The traced half of a `--trace 1` run: every other mine goes through a
/// [`SpanSink`].
struct Traced {
    epoch: Instant,
    rollup: Rollup,
    walls: Vec<f64>,
    steals: u64,
    last: Option<MiningOutcome>,
    /// Trace consistency: node spans equal the miner's node counter and
    /// phase spans cover the miner's own phase timers.
    consistent: bool,
}

impl Traced {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            rollup: Rollup::default(),
            walls: Vec::new(),
            steals: 0,
            last: None,
            consistent: true,
        }
    }

    fn mine(&mut self, db: &UncertainDatabase, cfg: &MinerConfig) -> MiningOutcome {
        let (outcome, spans, steals) = self.mine_once(db, cfg);
        self.walls.push(spans[0].secs());
        self.rollup.add(&spans);
        self.steals += steals;
        self.last = Some(outcome.clone());
        outcome
    }

    /// One traced mine: its outcome, its spans (the `mine` span first)
    /// and the pool's steal count. Checks the spans against the miner's
    /// own counters.
    fn mine_once(
        &mut self,
        db: &UncertainDatabase,
        cfg: &MinerConfig,
    ) -> (MiningOutcome, Vec<Span>, u64) {
        let mut sink = SpanSink::new(self.epoch);
        sink.begin_run(self.walls.len() as u32);
        let span = sink.enter("mine");
        let outcome = Miner::new(db).config(cfg.clone()).sink(&mut sink).run();
        sink.exit(span);
        let steals = sink.steals;
        let spans = sink.take_spans();
        let nodes = spans.iter().filter(|s| s.name == "node").count() as u64;
        self.consistent &= nodes == outcome.stats.nodes_visited;
        for phase in Phase::ALL {
            let covered: f64 = spans
                .iter()
                .filter(|s| s.name == phase.name())
                .map(Span::secs)
                .sum();
            self.consistent &= covered + 1e-9 >= outcome.timers.total(phase).as_secs_f64();
        }
        (outcome, spans, steals)
    }

    fn report(
        mut self,
        batch: Batch,
        db: &UncertainDatabase,
        cfg: &MinerConfig,
        warm: &MiningOutcome,
        report: &mut Report,
    ) {
        let mines = self.walls.len().max(1) as f64;
        let wall = median(&self.walls);
        let thread_s = self.rollup.thread_s();
        report.table_total_s = thread_s;
        let other = thread_s - report.phases(&self.rollup);
        report.layer("mpfci.other_s", other, "s");
        report.layer("mpfci.thread_s", thread_s, "s");
        report.layer("mpfci.wall_s", wall, "s");

        let o = self.last.take().unwrap_or_else(|| warm.clone());
        report.table.push(TableRow {
            layer: "mpfci.other_s".into(),
            self_s: other,
            counts: format!(
                "nodes={} (search, pruning, bitmaps, pool)",
                o.stats.nodes_visited
            ),
        });
        report.miner_counters(&o.stats, &o.kernel, o.audit.refusals(), 1.0);

        // The work-stealing pool. A one-thread mine takes the sequential
        // path: busy for its whole wall time, no tasks.
        let (tasks, busy) = if cfg.threads > 1 {
            (self.rollup.calls("task"), self.rollup.dur_s("task"))
        } else {
            (0.0, wall)
        };
        report.layer("par.tasks", tasks, "count");
        report.layer("par.steals", self.steals as f64 / mines, "count");
        report.layer("par.busy_s", busy, "s");
        report.layer(
            "par.idle_s",
            (cfg.threads as f64 * wall - busy).max(0.0),
            "s",
        );
        let speedup = if batch == Batch::Paper {
            // The plain one-thread baseline of the same problem.
            let t1_cfg = cfg.clone().with_threads(1);
            let t1_walls: Vec<f64> = (0..T1_MINES)
                .map(|_| self.mine_once(db, &t1_cfg).1[0].secs())
                .collect();
            report.notes.push(format!(
                "t=1 traced mines: median {:.4} s of {T1_MINES}; t={} traced median {:.4} s",
                median(&t1_walls),
                cfg.threads,
                wall
            ));
            median(&t1_walls) / wall
        } else {
            1.0
        };
        report.layer("par.speedup_vs_t1", speedup, "ratio");
        report.layer(
            "trace.overhead_ratio",
            wall / median(&report.latencies),
            "ratio",
        );
        report.notes.push(format!(
            "shares are of thread time per mine ({:.4} s; wall {:.4} s x {} threads)",
            thread_s, wall, cfg.threads
        ));
        if !self.consistent {
            report.failed += 1;
            report
                .notes
                .push("TRACE INCONSISTENT: spans do not match the miner's counters".into());
        }
        if let Some(path) = self.rollup.write(batch.name()) {
            report
                .notes
                .push(format!("spans written to {}", path.display()));
        }
        ledger::replay(db, &o.results, cfg, report);
    }
}
