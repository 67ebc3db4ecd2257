//! The `serve-mixed` workload: an in-process `Server` on 127.0.0.1:0
//! holds a Quest snapshot (the `batch-paper` protocol at [`ROWS`] rows).
//! Two client connections run a closed loop — analysts who wait for each
//! reply — with `max_concurrent` 2 and one mining thread per query.
//!
//! The clients work in cycles. Each cycle, each client sends, in a seeded
//! order after its first query:
//!
//! * one *base* query at its own min_sup level and pfct [`BASE_PFCT`] — a
//!   cold mine, whose outcome the carve cache keeps;
//! * [`CARVES`] *ladder* queries at the same level, repeating the base
//!   pfct or a hair above it, which the carve answers from the base
//!   outcome;
//! * [`WARMS`] looser-pfct queries at the same level, which cannot be
//!   carved but find the level's event tables in the snapshot cache;
//! * one query at each of its [`FRESH`] *fresh* min_sup levels: cold
//!   mines.
//!
//! Between cycles both clients wait at a barrier while one hot
//! `Server::install` of a replacement snapshot (the same input, reloaded
//! through `utdb::io`) invalidates the carve and event caches, so every
//! cycle starts cold. The planned class shares — carved 65%, warm 15%,
//! cold 20% — keep the median inside the carved mode and p95 inside the
//! cold mode (most looser-pfct queries explore nodes the base did not and
//! answer as cold mines, which moves the observed shares to about 65%, 4%
//! and 31% without moving either percentile out of its mode). Every answer is checked byte for byte
//! against a direct `Miner` run with the same parameters.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use pfcim_core::{http_get, Client, KernelStats, MinerConfig, MinerStats, Phase};
use pfcim_core::{ServeConfig, Server, Snapshot};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use utdb::UncertainDatabase;

use crate::measure::{load, median, peak_rss_mb, render, secs, write_input, Report, TableRow};
use crate::spans::{Rollup, SpanSink};
use crate::{inputs, ledger};

/// Rows of the served Quest snapshot.
const ROWS: usize = 600;
/// Client connections (and admission permits).
const CLIENTS: usize = 2;
/// Ladder queries per client per cycle.
const CARVES: usize = 13;
/// Looser-pfct queries per client per cycle.
const WARMS: usize = 3;
/// pfct of the base query; the ladder lies just above it.
const BASE_PFCT: f64 = 0.8;
/// Fresh min_sup levels per client, each mined once per cycle.
const FRESH: usize = 3;
/// pfct values the ladder draws from: the base pfct and values a hair
/// above it, all below the carve ceiling of a base outcome in practice
/// (a stricter value above the ceiling is mined instead, and shows as a
/// warm query).
const LADDER: [f64; 8] = [
    0.8, 0.80001, 0.80002, 0.80003, 0.80004, 0.80005, 0.80006, 0.80007,
];
/// Looser pfct values the warm queries draw from (without replacement).
const LOOSER: [f64; 4] = [0.7, 0.72, 0.74, 0.76];
/// The clients' base and fresh min_sup levels: 20% of the rows plus
/// distinct offsets, close together so that cold mines cost alike.
const LEVEL_OFFSETS: usize = CLIENTS * (1 + FRESH);
/// Set-up repetitions before the timed window; one more follows each
/// cycle. The reported `setup_s` is the median of all of them.
const SETUP_REPS: usize = 3;
const SNAPSHOT: &str = "quest";
const TIMEOUT: Duration = Duration::from_secs(120);

/// One planned query.
#[derive(Debug, Clone, Copy)]
struct Query {
    min_sup: usize,
    pfct: f64,
    seed: u64,
}

impl Query {
    fn body(&self) -> String {
        format!(
            "{{\"snapshot\":\"{SNAPSHOT}\",\"min_sup\":{},\"pfct\":{},\"threads\":1,\"seed\":{}}}",
            self.min_sup, self.pfct, self.seed
        )
    }

    fn key(&self) -> (usize, u64, u64) {
        (self.min_sup, self.pfct.to_bits(), self.seed)
    }
}

/// A client's fixed parameters for the run.
struct Plan {
    base_level: usize,
    fresh_levels: Vec<usize>,
    seed: u64,
}

impl Plan {
    /// Both clients' plans, over distinct levels.
    fn for_run(seed: u64, rows: usize) -> Vec<Plan> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e57_e000);
        let mut levels: Vec<usize> = (0..LEVEL_OFFSETS).map(|k| rows / 5 + k).collect();
        for i in (1..levels.len()).rev() {
            levels.swap(i, rng.random_range(0..=i));
        }
        (0..CLIENTS)
            .map(|c| {
                let fresh = CLIENTS + c * FRESH;
                Plan {
                    base_level: levels[c],
                    fresh_levels: levels[fresh..fresh + FRESH].to_vec(),
                    seed: 1000 + seed * 10 + c as u64,
                }
            })
            .collect()
    }

    /// One cycle of queries: the base query first, the rest shuffled.
    fn cycle(&self, rng: &mut SmallRng) -> Vec<(Query, &'static str)> {
        let q = |min_sup, pfct| Query {
            min_sup,
            pfct,
            seed: self.seed,
        };
        let mut rest = Vec::with_capacity(CARVES + WARMS + FRESH);
        for _ in 0..CARVES {
            rest.push((
                q(self.base_level, LADDER[rng.random_range(0..LADDER.len())]),
                "carve",
            ));
        }
        let mut looser = LOOSER.to_vec();
        for _ in 0..WARMS {
            let p = looser.swap_remove(rng.random_range(0..looser.len()));
            rest.push((q(self.base_level, p), "warm"));
        }
        for &fresh in &self.fresh_levels {
            rest.push((q(fresh, BASE_PFCT), "cold"));
        }
        for i in (1..rest.len()).rev() {
            rest.swap(i, rng.random_range(0..=i));
        }
        let mut cycle = vec![(q(self.base_level, BASE_PFCT), "cold")];
        cycle.extend(rest);
        cycle
    }
}

/// One answered query.
struct Answer {
    query: Query,
    /// Planned class: `carve`, `warm` or `cold`.
    planned: &'static str,
    latency_s: f64,
    server_s: f64,
    ok: bool,
    carved: bool,
    /// The miner's counters as the response reports them (a carved
    /// answer repeats its donor's).
    stats: MinerStats,
    kernel: KernelStats,
    refusals: u64,
    results: String,
    traced: bool,
}

/// The raw text of a scalar field of a flat response (first occurrence).
fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = resp.find(&tag)? + tag.len();
    let rest = &resp[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn num<T: std::str::FromStr + Default>(resp: &str, key: &str) -> T {
    field(resp, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_default()
}

fn stats_of(resp: &str) -> MinerStats {
    MinerStats {
        nodes_visited: num(resp, "nodes_visited"),
        superset_pruned: num(resp, "superset_pruned"),
        subset_pruned: num(resp, "subset_pruned"),
        ch_pruned: num(resp, "ch_pruned"),
        freq_pruned: num(resp, "freq_pruned"),
        bound_rejected: num(resp, "bound_rejected"),
        bound_decided: num(resp, "bound_decided"),
        fcp_exact: num(resp, "fcp_exact"),
        fcp_sampled: num(resp, "fcp_sampled"),
        samples_drawn: num(resp, "samples_drawn"),
        freq_prob_evals: num(resp, "freq_prob_evals"),
    }
}

fn kernel_of(resp: &str) -> KernelStats {
    KernelStats {
        dp_incremental: num(resp, "dp_incremental"),
        dp_recomputed: num(resp, "dp_recomputed"),
        bound_cache_hits: num(resp, "bound_cache_hits"),
        bound_cache_misses: num(resp, "bound_cache_misses"),
        bitmap_words: num(resp, "bitmap_words"),
    }
}

/// The `results` array of a response.
fn results_of(resp: &str) -> String {
    let start = resp.find("\"results\":").map(|i| i + "\"results\":".len());
    let end = resp.find(",\"stats\"");
    match (start, end) {
        (Some(s), Some(e)) if s <= e => resp[s..e].to_owned(),
        _ => String::new(),
    }
}

/// Load the input, wrap it in a snapshot and start the service on it.
/// Returns the server, the input, and the seconds spent reading the input
/// and building the snapshot and server.
fn start_server(path: &Path) -> (Server, UncertainDatabase, f64, f64) {
    let t = Instant::now();
    let db = load(path);
    let read_s = secs(t);
    let t = Instant::now();
    let snapshot = Snapshot::new(SNAPSHOT, db.clone());
    let cfg = ServeConfig {
        max_concurrent: CLIENTS,
        default_deadline: None,
    };
    let server = Server::bind("127.0.0.1:0", vec![snapshot], cfg).expect("bind the service");
    (server, db, read_s, secs(t))
}

/// Cumulative server-side phase seconds and node count, scraped from the
/// mounted `/metrics` route.
fn scrape(addr: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Ok((200, text)) = http_get(addr, "/metrics", TIMEOUT) {
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
                if let Ok(v) = value.parse() {
                    out.insert(name.to_owned(), v);
                }
            }
        }
    }
    out
}

/// Cache counters summed over the snapshots a run installed.
#[derive(Default, Clone, Copy)]
struct CacheTotals {
    hits: u64,
    misses: u64,
    contended: u64,
}

impl CacheTotals {
    fn add(&mut self, snapshot: &Snapshot) {
        let c = snapshot.cache();
        self.hits += c.hits();
        self.misses += c.misses();
        self.contended += c.contended();
    }
}

/// Run the workload for `seconds`, traced or not.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report {
        op: "query",
        rate_name: "queries_per_s",
        nominal_tail: 0.95,
        ..Report::default()
    };
    let path = write_input(&inputs::quest(seed, ROWS), &format!("serve-mixed-{seed}"));
    // Set-ups: (total, read, build) seconds each.
    let setups = Mutex::new(Vec::new());
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let (server, db, read, build) = start_server(&path);
        setups
            .lock()
            .expect("set-ups")
            .push((read + build, read, build));
        state = Some((server, db));
    }
    let (server, db) = state.expect("at least one set-up");
    let addr = server.local_addr().to_string();
    let plans = Plan::for_run(seed, db.len());

    let answers = Mutex::new(Vec::<Answer>::new());
    let client_spans = Mutex::new(Vec::new());
    let cache = Mutex::new(CacheTotals::default());
    let installs = Mutex::new(Vec::<f64>::new());
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let errors = Mutex::new(0u64);
    let paused = Mutex::new(0.0);
    let epoch = Instant::now();
    let metrics_before = trace.then(|| scrape(&addr));
    let start = Instant::now();
    thread::scope(|scope| {
        for (c, plan) in plans.iter().enumerate() {
            let (addr, answers, client_spans, cache, installs) =
                (&addr, &answers, &client_spans, &cache, &installs);
            let (barrier, stop, errors, server, path) = (&barrier, &stop, &errors, &server, &path);
            let (setups, paused) = (&setups, &paused);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(c as u64));
                let mut sink = SpanSink::new(epoch);
                let mut spans = Vec::new();
                let mut client = Client::connect(addr, TIMEOUT).ok();
                let mut cycle_no = 0u32;
                loop {
                    cycle_no += 1;
                    // Trace every other cycle, so the traced run also
                    // measures the untraced latency it is compared with.
                    let traced = trace && cycle_no.is_multiple_of(2);
                    let mut mine = Vec::new();
                    for (query, planned) in plan.cycle(&mut rng) {
                        sink.begin_run(cycle_no);
                        let span = traced.then(|| sink.enter("query"));
                        let t = Instant::now();
                        let resp = client
                            .as_mut()
                            .and_then(|cl| cl.request(&query.body()).ok());
                        let latency_s = secs(t);
                        if let Some(span) = span {
                            sink.exit(span);
                            spans.push(sink.take_spans());
                        }
                        let Some(resp) = resp else {
                            *errors.lock().expect("error count") += 1;
                            continue;
                        };
                        let carved = field(&resp, "carved") == Some("true");
                        mine.push(Answer {
                            query,
                            planned,
                            latency_s,
                            server_s: num(&resp, "elapsed_s"),
                            ok: field(&resp, "status") == Some("ok"),
                            carved,
                            stats: stats_of(&resp),
                            kernel: kernel_of(&resp),
                            refusals: ["err_tol", "row_validation", "degenerate"]
                                .iter()
                                .map(|k| num::<u64>(&resp, k))
                                .sum(),
                            results: results_of(&resp),
                            traced,
                        });
                    }
                    answers.lock().expect("answers").extend(mine);
                    if barrier.wait().is_leader() {
                        // A hot replacement of the same input, reloaded:
                        // invalidates the carve and event caches. (A
                        // `Snapshot::replace_database` successor shares
                        // its predecessor's generation counter, and
                        // `Server::install` of one never returns, so the
                        // replacement is a new snapshot of that name.)
                        let t = Instant::now();
                        let current = server.snapshots().remove(0);
                        cache.lock().expect("cache totals").add(&current);
                        server.install(Snapshot::new(SNAPSHOT, load(path)));
                        installs.lock().expect("installs").push(secs(t));
                        // One more set-up, outside the measured time.
                        let t = Instant::now();
                        let (spare, _, read, build) = start_server(path);
                        drop(spare);
                        setups
                            .lock()
                            .expect("set-ups")
                            .push((read + build, read, build));
                        *paused.lock().expect("paused time") += secs(t);
                        if secs(start) >= seconds {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                client_spans.lock().expect("client spans").extend(spans);
            });
        }
    });
    let window_s = secs(start) - paused.into_inner().expect("paused time");
    report.peak_rss_mb = peak_rss_mb();
    let metrics_after = trace.then(|| scrape(&addr));
    drop(server);
    let setups = setups.into_inner().expect("set-ups");
    report.setup_s = setups.iter().map(|s| s.0).collect();

    let answers = answers.into_inner().expect("answers");
    let errors = errors.into_inner().expect("error count");
    let installs = installs.into_inner().expect("installs");
    report.window_s = window_s;
    report.work = answers.len() as f64;
    report.attempted = answers.len() as u64 + errors + installs.len() as u64;
    report.failed = errors;

    // Check every answer against a direct mine with the same parameters.
    // A reference snapshot shares event tables between the reference
    // mines, which leaves their results bit-identical.
    let reference = Snapshot::new("reference", db.clone());
    let mut expected: BTreeMap<(usize, u64, u64), String> = BTreeMap::new();
    for a in &answers {
        let want = expected.entry(a.query.key()).or_insert_with(|| {
            let mut cfg = MinerConfig::new(a.query.min_sup, a.query.pfct).with_threads(1);
            cfg.seed = a.query.seed;
            render(&reference.miner().config(cfg).run().results)
        });
        if !a.ok || a.results != *want {
            report.failed += 1;
        }
    }
    for a in answers.iter().filter(|a| !a.traced) {
        report.latencies.push(a.latency_s);
    }

    if trace {
        let mut rollup = Rollup::default();
        for spans in client_spans.into_inner().expect("client spans") {
            rollup.add(&spans);
        }
        let totals = cache.into_inner().expect("cache totals");
        traced_report(
            &answers,
            &installs,
            totals,
            (
                metrics_before.unwrap_or_default(),
                metrics_after.unwrap_or_default(),
            ),
            &rollup,
            &mut report,
        );
        let read_s: Vec<f64> = setups.iter().map(|s| s.1).collect();
        let build_s: Vec<f64> = setups.iter().map(|s| s.2).collect();
        report.layer("utdb.read_dat_s", median(&read_s), "s");
        report.layer("serve.snapshot_build_s", median(&build_s), "s");
        let cfg = MinerConfig::new(plans[0].base_level, BASE_PFCT).with_threads(1);
        let base = reference.miner().config(cfg.clone()).run();
        ledger::replay(&db, &base.results, &cfg, &mut report);
    }
    report
}

fn traced_report(
    answers: &[Answer],
    installs: &[f64],
    cache: CacheTotals,
    (before, after): (BTreeMap<String, f64>, BTreeMap<String, f64>),
    rollup: &Rollup,
    report: &mut Report,
) {
    let queries = answers.len().max(1) as f64;
    let per = |x: f64| x / queries;
    let class = |a: &Answer| {
        if a.carved {
            "carve"
        } else if a.kernel.bound_cache_misses > a.kernel.bound_cache_hits {
            "cold"
        } else {
            "warm"
        }
    };
    let latencies_of = |name: &str| -> Vec<f64> {
        answers
            .iter()
            .filter(|a| class(a) == name)
            .map(|a| a.latency_s)
            .collect()
    };
    let carved = answers.iter().filter(|a| a.carved).count() as f64;
    report.layer("serve.carved_ratio", carved / queries, "ratio");
    let server: Vec<f64> = answers.iter().map(|a| a.server_s).collect();
    let overhead: Vec<f64> = answers.iter().map(|a| a.latency_s - a.server_s).collect();
    report.layer("serve.server_s_p50", median(&server), "s");
    report.layer("serve.overhead_s_p50", median(&overhead), "s");
    report.layer("serve.installs", installs.len() as f64, "count");
    report.layer("serve.install_s", median(installs), "s");
    report.layer(
        "serve.refused",
        answers.iter().filter(|a| !a.ok).count() as f64,
        "count",
    );
    report.layer("serve.cold_s_p50", median(&latencies_of("cold")), "s");
    report.layer("serve.warm_s_p50", median(&latencies_of("warm")), "s");
    report.layer("serve.carve_s_p50", median(&latencies_of("carve")), "s");
    let misplanned = answers.iter().filter(|a| class(a) != a.planned).count();
    report.notes.push(format!(
        "{} queries: {} carved, {} warm, {} cold; {} answered in another class than planned",
        answers.len(),
        carved,
        latencies_of("warm").len(),
        latencies_of("cold").len(),
        misplanned
    ));

    // Mining work: carved answers repeat their donor's counters, so only
    // mined answers count.
    let (mut stats, mut kernel, mut refusals) = (MinerStats::default(), KernelStats::default(), 0);
    for a in answers.iter().filter(|a| !a.carved) {
        stats.absorb(&a.stats);
        kernel.absorb(&a.kernel);
        refusals += a.refusals;
    }
    report.miner_counters(&stats, &kernel, refusals, queries);
    // The snapshot caches' own counters, over every installed snapshot.
    report.layer("cache.hits", per(cache.hits as f64), "count");
    report.layer("cache.misses", per(cache.misses as f64), "count");
    report.layer(
        "cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );
    report.layer("cache.contended", per(cache.contended as f64), "count");

    // Server-side phase seconds per query, from the mounted /metrics.
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let client_s = rollup.self_s("query");
    let mut phases = 0.0;
    for phase in Phase::ALL {
        let name = format!("mpfci.{}_s", phase.name());
        let s = per(delta(&format!("pfcim_phase_{}_s", phase.name())));
        phases += s;
        report.layer(&name, s, "s");
        report.table.push(TableRow {
            layer: name,
            self_s: s,
            counts: "server-side, from /metrics".into(),
        });
    }
    let mean_latency = per(answers.iter().map(|a| a.latency_s).sum());
    let mean_server = per(server.iter().sum());
    report.table_total_s = mean_latency;
    report.table.push(TableRow {
        layer: "mpfci.other_s".into(),
        self_s: mean_server - phases,
        counts: "server time outside the phases: search, carve, rendering".into(),
    });
    report.table.push(TableRow {
        layer: "serve.overhead_s".into(),
        self_s: mean_latency - mean_server,
        counts: format!(
            "framing, admission and loopback; client span {client_s:.6} s per traced query"
        ),
    });
    report.layer("mpfci.other_s", mean_server - phases, "s");
    report.layer("mpfci.wall_s", mean_server, "s");
    report.layer(
        "trace.overhead_ratio",
        median(
            &answers
                .iter()
                .filter(|a| a.traced)
                .map(|a| a.latency_s)
                .collect::<Vec<_>>(),
        ) / median(&report.latencies),
        "ratio",
    );
    if let Some(path) = rollup.write("serve-mixed") {
        report
            .notes
            .push(format!("client spans written to {}", path.display()));
    }
}
