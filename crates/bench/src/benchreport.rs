//! Versioned benchmark reports (`BENCH_<label>.json`): schema,
//! serialization, validation, and the
//! regression comparator behind `bench-report --baseline/--compare`.
//!
//! A report captures one run of the dataset × algorithm matrix
//! ([`crate::experiments::bench_cells`]): per-cell wall-clock and
//! throughput, the per-phase time breakdown, node-latency quantiles from
//! a [`pfcim_core::HistogramSink`], the pruning mix, and peak-memory
//! numbers (RSS high-water from `/proc/self/status`, plus allocator
//! counters when built with the `track-alloc` feature). Reports are
//! plain JSON so they diff and archive well; [`BenchReport::from_json`]
//! re-parses them with the workspace's one reader ([`pfcim_core::json`])
//! and schema-checks them, which is what `scripts/ci.sh` runs against
//! every emitted and every committed file.

use std::collections::BTreeMap;
use std::fmt;

use pfcim_core::json::{self, Value};
use pfcim_core::HistogramSummary;

/// Schema version stamped into every report. Version 2 added the
/// top-level `threads` field (the miner worker count the matrix ran
/// with); version 3 added the per-entry `kernel` counter map (the
/// [`pfcim_core::KernelStats`] counters: incremental-vs-recomputed DP
/// rows, bound-cache hits/misses, bitmap words scanned); version 4 added
/// the per-entry `span_s` profiler rollup (total seconds per span kind
/// from a sampled [`pfcim_core::SpanProfiler`]) and the `audit` map (the
/// [`pfcim_core::DpAudit`] per-reason DP decision counters); version 5
/// added the optional top-level `telemetry` block ([`TelemetryOverhead`]:
/// the measured wall-clock cost of running the matrix's reference cell
/// with a live telemetry session attached, which `bench-report` gates at
/// ≤5 %); version 6 added the optional top-level `serve` block
/// ([`ServeBench`]: throughput and cross-query cache behavior of an
/// in-process `pfcim_core::serve` service answering concurrent queries
/// over one shared [`pfcim_core::Snapshot`]); version 7 added the
/// optional top-level `stream` block ([`StreamBench`]: sustained
/// sliding-window transactions/s of a `StreamMiner` against a
/// re-mine-from-scratch baseline, plus the downdate-dominated row
/// maintenance ablation) and the `ServeBench` shard-contention fields
/// (`cache_shards` / `cache_contended` / `single_shard_contended`, the
/// measured sharded-vs-single lock A/B). Version-1 through version-6
/// documents are still accepted by [`BenchReport::from_json`]:
/// v1 reads as `threads = 1` — everything before the parallel miner was
/// sequential — pre-v3 entries read with an empty kernel map, pre-v4
/// entries read with empty span/audit maps, pre-v5/pre-v6 documents
/// read with no telemetry/serve blocks, and pre-v7 documents read with
/// no stream block and zeroed contention fields.
pub const SCHEMA_VERSION: u64 = 7;

/// Oldest schema version [`BenchReport::from_json`] still accepts.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// Cells faster than this, or slowdowns smaller than this, never count
/// as regressions — sub-5ms timings are dominated by noise.
pub const NOISE_FLOOR_S: f64 = 0.005;

// ---------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------

/// One cell of the benchmark matrix: a (dataset, algorithm, min_sup)
/// triple and everything measured while mining it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Dataset display name ([`crate::DatasetKind::name`]).
    pub dataset: String,
    /// Algorithm display name ([`crate::experiments::BenchAlgo::name`]).
    pub algo: String,
    /// Relative minimum support of the cell.
    pub min_sup_rel: f64,
    /// Wall-clock seconds of the mining run.
    pub elapsed_s: f64,
    /// True when the run hit the per-cell time budget (timings of such
    /// cells are floors, and the comparator skips them).
    pub timed_out: bool,
    /// Enumeration nodes visited.
    pub nodes: u64,
    /// Throughput: `nodes / elapsed_s`.
    pub nodes_per_s: f64,
    /// Result itemsets emitted.
    pub results: u64,
    /// Per-phase wall-clock totals, keyed by [`pfcim_core::Phase::name`].
    pub phase_s: BTreeMap<String, f64>,
    /// Pruning mix: how many candidates each rule eliminated.
    pub prune: BTreeMap<String, u64>,
    /// Kernel counters ([`pfcim_core::KernelStats::named`]): incremental
    /// vs recomputed DP rows, bound-cache hits/misses, bitmap words
    /// scanned. Empty for pre-v3 reports, which predate the counters.
    pub kernel: BTreeMap<String, u64>,
    /// Profiler span rollup: total seconds per span kind (`run`, `node`,
    /// phase names, pool span kinds) from a sampled
    /// [`pfcim_core::SpanProfiler`] attached to the cell. Empty for
    /// pre-v4 reports, which predate the profiler.
    pub span_s: BTreeMap<String, f64>,
    /// DP decision-audit counters ([`pfcim_core::DpAudit::named`]): how
    /// every frequentness-DP row was produced (incremental downdate vs
    /// each rebuild reason). Empty for pre-v4 reports.
    pub audit: BTreeMap<String, u64>,
    /// Node-to-node latency distribution (seconds).
    pub node_latency: HistogramSummary,
    /// Peak RSS in bytes over the cell (`0` when `/proc` is unreadable;
    /// monotone across cells when the kernel rejects the per-cell reset).
    pub peak_rss_bytes: u64,
    /// Allocator high-water bytes over the cell (`0` without the
    /// `track-alloc` feature).
    pub peak_alloc_bytes: u64,
    /// Allocations performed during the cell (`0` without `track-alloc`).
    pub allocations: u64,
}

impl BenchEntry {
    /// Identity of the cell for cross-report matching.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/min_sup={}",
            self.dataset, self.algo, self.min_sup_rel
        )
    }

    fn to_json(&self) -> String {
        let map_num = |m: &BTreeMap<String, f64>| {
            let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("{{{}}}", body.join(","))
        };
        let map_int = |m: &BTreeMap<String, u64>| {
            let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("{{{}}}", body.join(","))
        };
        format!(
            "{{\"dataset\":\"{}\",\"algo\":\"{}\",\"min_sup_rel\":{},\
             \"elapsed_s\":{},\"timed_out\":{},\"nodes\":{},\"nodes_per_s\":{},\
             \"results\":{},\"phase_s\":{},\"prune\":{},\"kernel\":{},\
             \"span_s\":{},\"audit\":{},\"node_latency\":{},\
             \"peak_rss_bytes\":{},\"peak_alloc_bytes\":{},\"allocations\":{}}}",
            self.dataset,
            self.algo,
            self.min_sup_rel,
            self.elapsed_s,
            self.timed_out,
            self.nodes,
            self.nodes_per_s,
            self.results,
            map_num(&self.phase_s),
            map_int(&self.prune),
            map_int(&self.kernel),
            map_num(&self.span_s),
            map_int(&self.audit),
            self.node_latency.to_json(),
            self.peak_rss_bytes,
            self.peak_alloc_bytes,
            self.allocations,
        )
    }
}

/// The measured cost of live telemetry (schema v5): the report's
/// reference cell mined twice — bare, then with a [`pfcim_core::
/// Telemetry`] session (sampler thread + attached sink) at the default
/// sample interval — both as a median of repeated runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryOverhead {
    /// Identity of the measured cell ([`BenchEntry::key`] format).
    pub cell: String,
    /// Sampler interval the overhead was measured at (milliseconds).
    pub sample_interval_ms: u64,
    /// Median wall-clock seconds without telemetry.
    pub baseline_s: f64,
    /// Median wall-clock seconds with the telemetry session attached.
    pub telemetry_s: f64,
    /// Relative cost in percent: `(telemetry/baseline − 1) · 100`.
    pub overhead_pct: f64,
}

impl TelemetryOverhead {
    fn to_json(&self) -> String {
        format!(
            "{{\"cell\":\"{}\",\"sample_interval_ms\":{},\"baseline_s\":{},\
             \"telemetry_s\":{},\"overhead_pct\":{}}}",
            self.cell,
            self.sample_interval_ms,
            self.baseline_s,
            self.telemetry_s,
            self.overhead_pct,
        )
    }

    fn from_json(v: &Value) -> Result<TelemetryOverhead, String> {
        Ok(TelemetryOverhead {
            cell: field_str(v, "cell")?,
            sample_interval_ms: field_u64(v, "sample_interval_ms")?,
            baseline_s: field_f64(v, "baseline_s")?,
            telemetry_s: field_f64(v, "telemetry_s")?,
            overhead_pct: field_f64(v, "overhead_pct")?,
        })
    }
}

impl fmt::Display for TelemetryOverhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3}s -> {:.3}s ({:+.1}%) at {}ms sampling",
            self.cell,
            self.baseline_s,
            self.telemetry_s,
            self.overhead_pct,
            self.sample_interval_ms
        )
    }
}

/// The measured behavior of the mining *service* (schema v6): an
/// in-process `pfcim serve` instance loaded with one snapshot, driven by
/// concurrent client connections issuing queries at two `pfct`
/// thresholds, so the cross-query artifacts — the snapshot's shared
/// bound-input cache and the monotonicity carve — are exercised exactly
/// as a long-running deployment would.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBench {
    /// Wire name of the snapshot the probe served.
    pub snapshot: String,
    /// Concurrent client connections the probe drove.
    pub clients: u64,
    /// Total queries answered (all with status `ok`).
    pub queries: u64,
    /// Service throughput over the probe: `queries / wall-clock`.
    pub queries_per_s: f64,
    /// Cross-query hit rate of the snapshot's shared bound-input cache:
    /// `hits / (hits + misses)` after all queries completed. Positive
    /// whenever two queries genuinely shared the snapshot.
    pub cache_hit_rate: f64,
    /// Queries answered by the monotonicity carve (filtered from a
    /// cached looser-threshold outcome) instead of a fresh mine.
    pub carved: u64,
    /// Shard count of the snapshot's bound-input cache during the probe
    /// (schema v7; `0` in older reports).
    pub cache_shards: u64,
    /// Contended lock acquisitions on the sharded cache over the probe —
    /// `try_lock` probes that found the shard mutex held (schema v7).
    pub cache_contended: u64,
    /// Contended acquisitions when the same workload is replayed against
    /// a forced *single-shard* cache of equal capacity — the other arm
    /// of the sharding A/B (schema v7).
    pub single_shard_contended: u64,
}

impl ServeBench {
    fn to_json(&self) -> String {
        format!(
            "{{\"snapshot\":\"{}\",\"clients\":{},\"queries\":{},\
             \"queries_per_s\":{},\"cache_hit_rate\":{},\"carved\":{},\
             \"cache_shards\":{},\"cache_contended\":{},\"single_shard_contended\":{}}}",
            self.snapshot,
            self.clients,
            self.queries,
            self.queries_per_s,
            self.cache_hit_rate,
            self.carved,
            self.cache_shards,
            self.cache_contended,
            self.single_shard_contended,
        )
    }

    fn from_json(v: &Value) -> Result<ServeBench, String> {
        Ok(ServeBench {
            snapshot: field_str(v, "snapshot")?,
            clients: field_u64(v, "clients")?,
            queries: field_u64(v, "queries")?,
            queries_per_s: field_f64(v, "queries_per_s")?,
            cache_hit_rate: field_f64(v, "cache_hit_rate")?,
            carved: field_u64(v, "carved")?,
            cache_shards: opt_field_u64(v, "cache_shards")?,
            cache_contended: opt_field_u64(v, "cache_contended")?,
            single_shard_contended: opt_field_u64(v, "single_shard_contended")?,
        })
    }
}

/// The measured behavior of sliding-window stream mining (schema v7): a
/// deterministic uncertain stream replayed through a
/// `pfcim_core::stream::StreamMiner`, against the same walk re-mined
/// from scratch at every step, plus a *downdate-dominated* ablation cell
/// where row maintenance is the whole cost — incremental DP downdates
/// versus rebuild-from-window, same results either way.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBench {
    /// Window capacity (transactions) of the main throughput walk.
    pub window: u64,
    /// Stream steps walked (arrivals; each also expires once warm).
    pub steps: u64,
    /// Sustained incremental throughput: `steps / wall-clock`.
    pub tx_per_s: f64,
    /// The re-mine-from-scratch baseline: the same walk with a full
    /// batch `Miner::run` over the window contents at every step.
    pub batch_tx_per_s: f64,
    /// `tx_per_s / batch_tx_per_s` — the incremental win.
    pub speedup_vs_batch: f64,
    /// Incremental DP downdates taken over the main walk.
    pub downdates: u64,
    /// Row rebuilds over the main walk (refused downdates + cold roots).
    pub rebuilds: u64,
    /// Wall-clock seconds of the downdate-dominated ablation cell with
    /// incremental row maintenance.
    pub ablation_incremental_s: f64,
    /// The same cell with `rebuild_rows` forced: every touched row is
    /// rebuilt from the window.
    pub ablation_rebuild_s: f64,
    /// `ablation_rebuild_s / ablation_incremental_s` — what the
    /// incremental maintenance is worth where it dominates.
    pub ablation_speedup: f64,
}

impl StreamBench {
    fn to_json(&self) -> String {
        format!(
            "{{\"window\":{},\"steps\":{},\"tx_per_s\":{},\"batch_tx_per_s\":{},\
             \"speedup_vs_batch\":{},\"downdates\":{},\"rebuilds\":{},\
             \"ablation_incremental_s\":{},\"ablation_rebuild_s\":{},\"ablation_speedup\":{}}}",
            self.window,
            self.steps,
            self.tx_per_s,
            self.batch_tx_per_s,
            self.speedup_vs_batch,
            self.downdates,
            self.rebuilds,
            self.ablation_incremental_s,
            self.ablation_rebuild_s,
            self.ablation_speedup,
        )
    }

    fn from_json(v: &Value) -> Result<StreamBench, String> {
        Ok(StreamBench {
            window: field_u64(v, "window")?,
            steps: field_u64(v, "steps")?,
            tx_per_s: field_f64(v, "tx_per_s")?,
            batch_tx_per_s: field_f64(v, "batch_tx_per_s")?,
            speedup_vs_batch: field_f64(v, "speedup_vs_batch")?,
            downdates: field_u64(v, "downdates")?,
            rebuilds: field_u64(v, "rebuilds")?,
            ablation_incremental_s: field_f64(v, "ablation_incremental_s")?,
            ablation_rebuild_s: field_f64(v, "ablation_rebuild_s")?,
            ablation_speedup: field_f64(v, "ablation_speedup")?,
        })
    }
}

impl fmt::Display for StreamBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window {}: {} steps at {:.0} tx/s ({:.1}x over re-mine at {:.0} tx/s), \
             {} downdates / {} rebuilds; downdate-dominated ablation {:.1}x",
            self.window,
            self.steps,
            self.tx_per_s,
            self.speedup_vs_batch,
            self.batch_tx_per_s,
            self.downdates,
            self.rebuilds,
            self.ablation_speedup,
        )
    }
}

impl fmt::Display for ServeBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} queries over {} clients, {:.0} queries/s, \
             cache hit rate {:.0}%, {} carved, contended locks \
             {} ({} shards) vs {} (1 shard)",
            self.snapshot,
            self.queries,
            self.clients,
            self.queries_per_s,
            self.cache_hit_rate * 100.0,
            self.carved,
            self.cache_contended,
            self.cache_shards,
            self.single_shard_contended,
        )
    }
}

/// A complete `BENCH_<label>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub version: u64,
    /// Report label; the file name is `BENCH_<label>.json`.
    pub label: String,
    /// Dataset scale the matrix ran at (`tiny`/`laptop`/`paper`).
    pub scale: String,
    /// Miner worker count the matrix ran with (`1` = sequential; schema
    /// v1 reports, which predate the parallel miner, parse as `1`).
    pub threads: u64,
    /// Unix timestamp of report creation.
    pub created_unix: u64,
    /// Measured telemetry overhead (schema v5; `None` for older reports
    /// or runs that skipped the measurement).
    pub telemetry: Option<TelemetryOverhead>,
    /// Measured service behavior (schema v6; `None` for older reports
    /// or runs that skipped the probe).
    pub serve: Option<ServeBench>,
    /// Measured sliding-window stream mining (schema v7; `None` for
    /// older reports or runs that skipped the walk).
    pub stream: Option<StreamBench>,
    /// One entry per matrix cell.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// The canonical file name for this report.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.label)
    }

    /// Serialize: one top-level object, one line per entry (diff-friendly).
    pub fn to_json(&self) -> String {
        let telemetry = match &self.telemetry {
            Some(t) => format!("  \"telemetry\": {},\n", t.to_json()),
            None => String::new(),
        };
        let serve = match &self.serve {
            Some(s) => format!("  \"serve\": {},\n", s.to_json()),
            None => String::new(),
        };
        let stream = match &self.stream {
            Some(s) => format!("  \"stream\": {},\n", s.to_json()),
            None => String::new(),
        };
        let mut out = format!(
            "{{\n  \"version\": {},\n  \"label\": \"{}\",\n  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"created_unix\": {},\n{telemetry}{serve}{stream}  \"entries\": [\n",
            self.version, self.label, self.scale, self.threads, self.created_unix
        );
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&e.to_json());
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse and schema-validate a report. Every missing or mistyped
    /// field is an error naming its path; the version must lie in
    /// [`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`] (v1 reports predate
    /// the `threads` field and parse as sequential runs), and a valid
    /// report covers at least two distinct algorithms (the regression
    /// gate is meaningless otherwise).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let version = field_u64(&root, "version")?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported schema version {version} \
                 (expected {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            ));
        }
        let report = BenchReport {
            version,
            label: field_str(&root, "label")?,
            scale: field_str(&root, "scale")?,
            threads: if version >= 2 {
                field_u64(&root, "threads")?
            } else {
                1
            },
            created_unix: field_u64(&root, "created_unix")?,
            telemetry: match root.get("telemetry") {
                // Optional at every version: pre-v5 documents simply
                // lack it, and v5 runs may skip the measurement.
                None | Some(Value::Null) => None,
                Some(v) => {
                    Some(TelemetryOverhead::from_json(v).map_err(|e| format!("telemetry: {e}"))?)
                }
            },
            serve: match root.get("serve") {
                // Optional at every version: pre-v6 documents simply
                // lack it, and v6 runs may skip the probe.
                None | Some(Value::Null) => None,
                Some(v) => Some(ServeBench::from_json(v).map_err(|e| format!("serve: {e}"))?),
            },
            stream: match root.get("stream") {
                // Optional at every version: pre-v7 documents simply
                // lack it, and v7 runs may skip the walk.
                None | Some(Value::Null) => None,
                Some(v) => Some(StreamBench::from_json(v).map_err(|e| format!("stream: {e}"))?),
            },
            entries: root
                .get("entries")
                .and_then(Value::as_arr)
                .ok_or("missing array field \"entries\"")?
                .iter()
                .enumerate()
                .map(|(i, v)| entry_from_json(v).map_err(|e| format!("entries[{i}]: {e}")))
                .collect::<Result<Vec<_>, _>>()?,
        };
        if report.entries.is_empty() {
            return Err("report has no entries".into());
        }
        let algos: std::collections::BTreeSet<&str> =
            report.entries.iter().map(|e| e.algo.as_str()).collect();
        if algos.len() < 2 {
            return Err(format!(
                "report covers only {:?}; at least two algorithms are required",
                algos
            ));
        }
        Ok(report)
    }
}

fn field_u64(v: &Value, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Value::as_u64)
        .ok_or(format!("missing integer field {name:?}"))
}

/// Like [`field_u64`], but an *absent* field reads as `0` — used for
/// fields added after a block's first schema version, so older
/// documents still parse. A present-but-mistyped field is still an
/// error.
fn opt_field_u64(v: &Value, name: &str) -> Result<u64, String> {
    match v.get(name) {
        None => Ok(0),
        Some(f) => f.as_u64().ok_or(format!("mistyped integer field {name:?}")),
    }
}

fn field_f64(v: &Value, name: &str) -> Result<f64, String> {
    v.get(name)
        .and_then(Value::as_f64)
        .ok_or(format!("missing number field {name:?}"))
}

fn field_str(v: &Value, name: &str) -> Result<String, String> {
    v.get(name)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or(format!("missing string field {name:?}"))
}

fn field_bool(v: &Value, name: &str) -> Result<bool, String> {
    v.get(name)
        .and_then(Value::as_bool)
        .ok_or(format!("missing bool field {name:?}"))
}

fn summary_from_json(v: &Value) -> Result<HistogramSummary, String> {
    Ok(HistogramSummary {
        count: field_u64(v, "count")?,
        min: field_f64(v, "min")?,
        max: field_f64(v, "max")?,
        mean: field_f64(v, "mean")?,
        sum: field_f64(v, "sum")?,
        p50: field_f64(v, "p50")?,
        p90: field_f64(v, "p90")?,
        p95: field_f64(v, "p95")?,
        p99: field_f64(v, "p99")?,
    })
}

fn entry_from_json(v: &Value) -> Result<BenchEntry, String> {
    let phase_s = v
        .get("phase_s")
        .and_then(Value::as_obj)
        .ok_or("missing object field \"phase_s\"")?
        .iter()
        .map(|(k, x)| {
            x.as_f64()
                .map(|x| (k.clone(), x))
                .ok_or(format!("phase_s[{k:?}] is not a number"))
        })
        .collect::<Result<BTreeMap<_, _>, _>>()?;
    let prune = v
        .get("prune")
        .and_then(Value::as_obj)
        .ok_or("missing object field \"prune\"")?
        .iter()
        .map(|(k, x)| {
            x.as_u64()
                .map(|x| (k.clone(), x))
                .ok_or(format!("prune[{k:?}] is not an integer"))
        })
        .collect::<Result<BTreeMap<_, _>, _>>()?;
    // Pre-v3 entries have no kernel map; read them as empty. The same
    // treatment applies to the v4 span/audit maps below.
    let opt_int_map = |name: &str| -> Result<BTreeMap<String, u64>, String> {
        match v.get(name) {
            None => Ok(BTreeMap::new()),
            Some(k) => k
                .as_obj()
                .ok_or(format!("field {name:?} is not an object"))?
                .iter()
                .map(|(k, x)| {
                    x.as_u64()
                        .map(|x| (k.clone(), x))
                        .ok_or(format!("{name}[{k:?}] is not an integer"))
                })
                .collect(),
        }
    };
    let opt_num_map = |name: &str| -> Result<BTreeMap<String, f64>, String> {
        match v.get(name) {
            None => Ok(BTreeMap::new()),
            Some(k) => k
                .as_obj()
                .ok_or(format!("field {name:?} is not an object"))?
                .iter()
                .map(|(k, x)| {
                    x.as_f64()
                        .map(|x| (k.clone(), x))
                        .ok_or(format!("{name}[{k:?}] is not a number"))
                })
                .collect(),
        }
    };
    let kernel = opt_int_map("kernel")?;
    let span_s = opt_num_map("span_s")?;
    let audit = opt_int_map("audit")?;
    Ok(BenchEntry {
        dataset: field_str(v, "dataset")?,
        algo: field_str(v, "algo")?,
        min_sup_rel: field_f64(v, "min_sup_rel")?,
        elapsed_s: field_f64(v, "elapsed_s")?,
        timed_out: field_bool(v, "timed_out")?,
        nodes: field_u64(v, "nodes")?,
        nodes_per_s: field_f64(v, "nodes_per_s")?,
        results: field_u64(v, "results")?,
        phase_s,
        prune,
        kernel,
        span_s,
        audit,
        node_latency: summary_from_json(
            v.get("node_latency")
                .ok_or("missing field \"node_latency\"")?,
        )
        .map_err(|e| format!("node_latency: {e}"))?,
        peak_rss_bytes: field_u64(v, "peak_rss_bytes")?,
        peak_alloc_bytes: field_u64(v, "peak_alloc_bytes")?,
        allocations: field_u64(v, "allocations")?,
    })
}

// ---------------------------------------------------------------------
// Regression comparison
// ---------------------------------------------------------------------

/// One cell whose wall-clock regressed past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Cell identity ([`BenchEntry::key`]).
    pub key: String,
    /// Baseline seconds.
    pub baseline_s: f64,
    /// Current seconds.
    pub current_s: f64,
    /// Slowdown in percent (`(current/baseline − 1) · 100`).
    pub pct: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3}s -> {:.3}s (+{:.1}%)",
            self.key, self.baseline_s, self.current_s, self.pct
        )
    }
}

/// Compare `current` against `baseline`: every matching cell slower by
/// more than `threshold_pct` percent (and past the [`NOISE_FLOOR_S`]
/// absolute floor) is a regression. Timed-out cells on either side, and
/// cells present in only one report, are skipped.
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    threshold_pct: f64,
) -> Vec<Regression> {
    let base: BTreeMap<String, &BenchEntry> =
        baseline.entries.iter().map(|e| (e.key(), e)).collect();
    let mut out = Vec::new();
    for cur in &current.entries {
        let Some(b) = base.get(&cur.key()) else {
            continue;
        };
        if b.timed_out || cur.timed_out {
            continue;
        }
        if cur.elapsed_s <= NOISE_FLOOR_S || cur.elapsed_s - b.elapsed_s <= NOISE_FLOOR_S {
            continue;
        }
        let pct = (cur.elapsed_s / b.elapsed_s - 1.0) * 100.0;
        if pct > threshold_pct {
            out.push(Regression {
                key: cur.key(),
                baseline_s: b.elapsed_s,
                current_s: cur.elapsed_s,
                pct,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Peak-RSS probing (Linux /proc; best-effort elsewhere)
// ---------------------------------------------------------------------

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where `/proc` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Ask the kernel to rebase the RSS high-water mark to the current RSS
/// (write `5` to `/proc/self/clear_refs`). Returns whether it worked;
/// when it doesn't, per-cell peaks degrade to a process-wide monotone
/// high-water, which the report schema documents.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(algo: &str, elapsed_s: f64) -> BenchEntry {
        let mut phase_s = BTreeMap::new();
        phase_s.insert("freq_dp".to_owned(), elapsed_s / 2.0);
        let mut prune = BTreeMap::new();
        prune.insert("superset".to_owned(), 12);
        let mut kernel = BTreeMap::new();
        kernel.insert("dp_incremental".to_owned(), 40);
        kernel.insert("dp_recomputed".to_owned(), 9);
        let mut span_s = BTreeMap::new();
        span_s.insert("node".to_owned(), elapsed_s / 3.0);
        span_s.insert("run".to_owned(), elapsed_s);
        let mut audit = BTreeMap::new();
        audit.insert("incremental".to_owned(), 40);
        audit.insert("fresh_root".to_owned(), 9);
        let mut latency = pfcim_core::Histogram::new();
        for v in [1e-6, 2e-6, 3e-6] {
            latency.record(v);
        }
        BenchEntry {
            dataset: "Mushroom".to_owned(),
            algo: algo.to_owned(),
            min_sup_rel: 0.4,
            elapsed_s,
            timed_out: false,
            nodes: 100,
            nodes_per_s: 100.0 / elapsed_s,
            results: 7,
            phase_s,
            prune,
            kernel,
            span_s,
            audit,
            node_latency: latency.summary(),
            peak_rss_bytes: 1 << 20,
            peak_alloc_bytes: 0,
            allocations: 0,
        }
    }

    fn sample_report(elapsed_s: f64) -> BenchReport {
        BenchReport {
            version: SCHEMA_VERSION,
            label: "test".to_owned(),
            scale: "tiny".to_owned(),
            threads: 4,
            created_unix: 1_754_000_000,
            telemetry: None,
            serve: None,
            stream: None,
            entries: vec![sample_entry("MPFCI", elapsed_s), sample_entry("Naive", 2.0)],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report(1.0);
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(parsed.file_name(), "BENCH_test.json");
    }

    #[test]
    fn telemetry_block_round_trips_and_stays_optional() {
        let mut report = sample_report(1.0);
        report.telemetry = Some(TelemetryOverhead {
            cell: "HighProb/MPFCI/min_sup=0.4".to_owned(),
            sample_interval_ms: 100,
            baseline_s: 0.5,
            telemetry_s: 0.51,
            overhead_pct: 2.0,
        });
        let json = report.to_json();
        assert!(json.contains("\"telemetry\": {\"cell\""));
        let parsed = BenchReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
        // A v4 document — no telemetry block — still parses, as None.
        let mut old = sample_report(1.0);
        old.version = 4;
        let parsed = BenchReport::from_json(&old.to_json()).unwrap();
        assert_eq!(parsed.telemetry, None);
        // A malformed block is an error, not silently None.
        let bad = json.replace("\"baseline_s\":0.5", "\"baseline_s\":\"slow\"");
        let err = BenchReport::from_json(&bad).unwrap_err();
        assert!(
            err.contains("telemetry") && err.contains("baseline_s"),
            "{err}"
        );
    }

    #[test]
    fn serve_block_round_trips_and_stays_optional() {
        let mut report = sample_report(1.0);
        report.serve = Some(ServeBench {
            snapshot: "highprob".to_owned(),
            clients: 4,
            queries: 32,
            queries_per_s: 210.5,
            cache_hit_rate: 0.75,
            carved: 3,
            cache_shards: 16,
            cache_contended: 12,
            single_shard_contended: 480,
        });
        let json = report.to_json();
        assert!(json.contains("\"serve\": {\"snapshot\""));
        let parsed = BenchReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
        // A v5 document — no serve block — still parses, as None.
        let mut old = sample_report(1.0);
        old.version = 5;
        let parsed = BenchReport::from_json(&old.to_json()).unwrap();
        assert_eq!(parsed.serve, None);
        // A malformed block is an error, not silently None.
        let bad = json.replace("\"queries_per_s\":210.5", "\"queries_per_s\":\"fast\"");
        let err = BenchReport::from_json(&bad).unwrap_err();
        assert!(
            err.contains("serve") && err.contains("queries_per_s"),
            "{err}"
        );
    }

    #[test]
    fn v6_serve_blocks_parse_with_zero_contention_fields() {
        // A v6 document: serve block predates the shard-contention A/B.
        let mut report = sample_report(1.0);
        report.version = 6;
        report.serve = Some(ServeBench {
            snapshot: "highprob".to_owned(),
            clients: 4,
            queries: 32,
            queries_per_s: 210.5,
            cache_hit_rate: 0.75,
            carved: 3,
            cache_shards: 0,
            cache_contended: 0,
            single_shard_contended: 0,
        });
        let v6_json = report.to_json().replace(
            ",\"cache_shards\":0,\"cache_contended\":0,\"single_shard_contended\":0",
            "",
        );
        assert!(!v6_json.contains("cache_shards"));
        let parsed = BenchReport::from_json(&v6_json).unwrap();
        assert_eq!(parsed, report);
        // Present-but-mistyped is still an error, not silently zero.
        let bad = report
            .to_json()
            .replace("\"cache_contended\":0", "\"cache_contended\":\"lots\"");
        let err = BenchReport::from_json(&bad).unwrap_err();
        assert!(
            err.contains("serve") && err.contains("cache_contended"),
            "{err}"
        );
    }

    #[test]
    fn stream_block_round_trips_and_stays_optional() {
        let mut report = sample_report(1.0);
        report.stream = Some(StreamBench {
            window: 64,
            steps: 300,
            tx_per_s: 1800.0,
            batch_tx_per_s: 240.0,
            speedup_vs_batch: 7.5,
            downdates: 950,
            rebuilds: 12,
            ablation_incremental_s: 0.04,
            ablation_rebuild_s: 0.6,
            ablation_speedup: 15.0,
        });
        let json = report.to_json();
        assert!(json.contains("\"stream\": {\"window\""));
        let parsed = BenchReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
        // A v6 document — no stream block — still parses, as None.
        let mut old = sample_report(1.0);
        old.version = 6;
        let parsed = BenchReport::from_json(&old.to_json()).unwrap();
        assert_eq!(parsed.stream, None);
        // A malformed block is an error, not silently None.
        let bad = json.replace("\"tx_per_s\":1800", "\"tx_per_s\":\"brisk\"");
        let err = BenchReport::from_json(&bad).unwrap_err();
        assert!(err.contains("stream") && err.contains("tx_per_s"), "{err}");
    }

    #[test]
    fn v1_reports_still_parse_as_sequential() {
        // A pre-parallelism document: version 1, no "threads" field.
        let mut report = sample_report(1.0);
        report.version = 1;
        report.threads = 7; // must be ignored by the v1 reader
        let v1_json = report.to_json().replace("\"threads\": 7,\n  ", "");
        assert!(!v1_json.contains("threads"));
        let parsed = BenchReport::from_json(&v1_json).unwrap();
        assert_eq!(parsed.version, 1);
        assert_eq!(parsed.threads, 1, "v1 reports are sequential by definition");
        assert_eq!(parsed.entries.len(), 2);
    }

    #[test]
    fn pre_v3_entries_parse_with_empty_kernel_map() {
        // A v2 document predating the kernel counters entirely.
        let mut report = sample_report(1.0);
        report.version = 2;
        let v2_json = report.to_json().replace(
            "\"kernel\":{\"dp_incremental\":40,\"dp_recomputed\":9},",
            "",
        );
        assert!(!v2_json.contains("kernel"));
        let parsed = BenchReport::from_json(&v2_json).unwrap();
        assert_eq!(parsed.version, 2);
        for e in &parsed.entries {
            assert!(e.kernel.is_empty());
        }
        // A malformed kernel map is still an error, not silently empty.
        let bad = sample_report(1.0)
            .to_json()
            .replace("\"dp_incremental\":40", "\"dp_incremental\":\"many\"");
        let err = BenchReport::from_json(&bad).unwrap_err();
        assert!(err.contains("dp_incremental"), "{err}");
    }

    #[test]
    fn pre_v4_entries_parse_with_empty_span_and_audit_maps() {
        // A v3 document predating the profiler rollup and audit map.
        let mut report = sample_report(1.0);
        report.version = 3;
        let v3_json = report
            .to_json()
            .replace("\"span_s\":{\"node\":0.3333333333333333,\"run\":1},", "")
            .replace("\"span_s\":{\"node\":0.6666666666666666,\"run\":2},", "")
            .replace("\"audit\":{\"fresh_root\":9,\"incremental\":40},", "");
        assert!(!v3_json.contains("span_s") && !v3_json.contains("audit"));
        let parsed = BenchReport::from_json(&v3_json).unwrap();
        assert_eq!(parsed.version, 3);
        for e in &parsed.entries {
            assert!(e.span_s.is_empty() && e.audit.is_empty());
        }
        // Malformed maps are still errors, not silently empty.
        let bad = sample_report(1.0)
            .to_json()
            .replace("\"fresh_root\":9", "\"fresh_root\":\"lots\"");
        let err = BenchReport::from_json(&bad).unwrap_err();
        assert!(err.contains("fresh_root"), "{err}");
    }

    #[test]
    fn validation_names_the_broken_field() {
        let mut report = sample_report(1.0);
        report.version = 99;
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("version 99"), "{err}");

        let good = sample_report(1.0).to_json();
        let err = BenchReport::from_json(&good.replace("\"nodes\"", "\"knots\"")).unwrap_err();
        assert!(err.contains("entries[0]") && err.contains("nodes"), "{err}");

        let err = BenchReport::from_json("{\"version\":1}").unwrap_err();
        assert!(err.contains("label"), "{err}");

        // v2 requires the threads field it introduced.
        let headless = sample_report(1.0)
            .to_json()
            .replace("\"threads\": 4,\n  ", "");
        let err = BenchReport::from_json(&headless).unwrap_err();
        assert!(err.contains("threads"), "{err}");
    }

    #[test]
    fn single_algorithm_reports_are_rejected() {
        let mut report = sample_report(1.0);
        report.entries.truncate(1);
        let err = BenchReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("two algorithms"), "{err}");
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let base = sample_report(1.0);
        // 30% slower: regression at a 20% threshold, fine at 50%.
        let slow = sample_report(1.3);
        let regs = compare(&base, &slow, 20.0);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].key.contains("MPFCI"));
        assert!((regs[0].pct - 30.0).abs() < 1.0);
        assert!(compare(&base, &slow, 50.0).is_empty());
        // Faster is never a regression.
        assert!(compare(&base, &sample_report(0.5), 20.0).is_empty());
    }

    #[test]
    fn compare_respects_noise_floor_and_timeouts() {
        let mut base = sample_report(0.001);
        let mut fast_but_double = sample_report(0.002);
        // 100% slower but both under the noise floor: not a regression.
        assert!(compare(&base, &fast_but_double, 20.0).is_empty());
        // Timed-out cells never gate.
        base = sample_report(1.0);
        fast_but_double = sample_report(10.0);
        for e in &mut fast_but_double.entries {
            e.timed_out = true;
        }
        assert!(compare(&base, &fast_but_double, 20.0).is_empty());
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            let peak = peak_rss_bytes().expect("VmHWM readable");
            assert!(peak > 0);
        }
    }
}
