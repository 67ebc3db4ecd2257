//! The benchmark's own span recorder.
//!
//! [`SpanSink`] is a [`MinerSink`] + [`ShardableSink`] that turns the
//! miner's `run_started` / `node_entered` / `phase_start` / `phase_end` /
//! `pool_span` / `run_finished` callbacks into spans — name, start, end,
//! parent span, track (thread of activity) and a run id shared by every
//! span of one operation — and keeps them in memory. The benchmark also
//! opens spans of its own around the calls it makes (a served query, a
//! stream step), in the same format. [`self_times`] then derives each
//! span name's *self* time: its duration minus the part of its interval
//! that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pfcim_core::par::{PoolSpan, PoolSpanKind};
use pfcim_core::{MinerConfig, MinerSink, MiningOutcome, Phase, ShardableSink};

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed (or, while recording, open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation this span belongs to.
    pub run: u32,
    /// Index of the parent span in the same list, or [`NO_PARENT`].
    pub parent: u32,
    /// What was measured: `mine`, `run`, `task`, `node`, a phase name,
    /// `step`, `query.*` or `install`.
    pub name: &'static str,
    /// Thread of activity: 0 is the caller, `1 + w` is pool worker `w`.
    pub track: u32,
    /// Offsets from the sink's epoch, in nanoseconds.
    pub start_ns: u64,
    /// End offset; equal to `start_ns` while the span is open.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Where an absorbed shard's spans landed, so that the pool's report of
/// the task that ran it can place them.
#[derive(Debug)]
struct Shard {
    /// The shard's spans.
    spans: std::ops::Range<usize>,
    /// Its root spans, re-parented under the task span.
    roots: Vec<usize>,
    /// Its spans still open when it finished, which end with the task.
    open: Vec<usize>,
}

/// Span recorder (see the module docs).
#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<usize>,
    /// Open node spans with their itemset depth, innermost last.
    nodes: Vec<(usize, usize)>,
    /// Absorbed shards, in submission order (= pool task index).
    shards: Vec<Shard>,
    /// Successful steals the pool reported.
    pub steals: u64,
}

impl SpanSink {
    /// An empty recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            nodes: Vec::new(),
            shards: Vec::new(),
            steals: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a new operation: later spans carry the new run id.
    pub fn begin_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().map_or(NO_PARENT, |&i| i as u32);
        let now = self.now_ns();
        self.spans.push(Span {
            run: self.run,
            parent,
            name,
            track: 0,
            start_ns: now,
            end_ns: now,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Close span `idx` and every span opened inside it.
    pub fn exit(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
        self.nodes.retain(|&(i, _)| i < idx);
    }

    /// Take the recorded spans, leaving the sink empty.
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.open.clear();
        self.nodes.clear();
        self.shards.clear();
        std::mem::take(&mut self.spans)
    }
}

impl MinerSink for SpanSink {
    fn run_started(&mut self, _algo: &str, _config: &MinerConfig) {
        self.enter("run");
    }

    fn node_entered(&mut self, depth: usize) {
        // The DFS has backtracked out of open nodes at this depth or
        // deeper; close them before opening the new one.
        while let Some(&(idx, d)) = self.nodes.last() {
            if d < depth {
                break;
            }
            self.exit(idx);
        }
        let idx = self.enter("node");
        self.nodes.push((idx, depth));
    }

    fn phase_start(&mut self, phase: Phase) {
        self.enter(phase.name());
    }

    fn phase_end(&mut self, _phase: Phase, _elapsed: Duration) {
        // Phases come in strict immediate pairs, so the innermost open
        // span is the phase being closed.
        if let Some(top) = self.open.pop() {
            self.spans[top].end_ns = self.now_ns();
        }
    }

    fn pool_span(&mut self, span: &PoolSpan) {
        match span.kind {
            PoolSpanKind::Task => {
                let parent = self.open.last().map_or(NO_PARENT, |&i| i as u32);
                let start_ns = self.at_ns(span.start);
                self.spans.push(Span {
                    run: self.run,
                    parent,
                    name: "task",
                    track: 1 + span.worker,
                    start_ns,
                    end_ns: start_ns + span.dur.as_nanos() as u64,
                });
                let task = self.spans.len() - 1;
                let end_ns = self.spans[task].end_ns;
                if let Some(shard) = self.shards.get(span.task) {
                    for i in shard.spans.clone() {
                        self.spans[i].track = 1 + span.worker;
                    }
                    for &r in &shard.roots {
                        self.spans[r].parent = task as u32;
                    }
                    for &o in &shard.open {
                        self.spans[o].end_ns = end_ns;
                    }
                }
            }
            PoolSpanKind::Steal => self.steals += 1,
            PoolSpanKind::Idle => {}
        }
    }

    fn run_finished(&mut self, _outcome: &MiningOutcome) {
        // Close the run span (and any node still open inside it).
        if let Some(&run) = self
            .open
            .iter()
            .rev()
            .find(|&&i| self.spans[i].name == "run")
        {
            self.exit(run);
        }
    }
}

impl ShardableSink for SpanSink {
    type Shard = SpanSink;

    fn make_shard(&self) -> SpanSink {
        let mut shard = SpanSink::new(self.epoch);
        shard.run = self.run;
        shard
    }

    fn absorb_shard(&mut self, mut shard: SpanSink) {
        // A shard sees no end-of-run callback: its innermost nodes stay
        // open. Until the pool reports when the task ended, close them at
        // the shard's last observed timestamp.
        let last = shard.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        for &i in &shard.open {
            shard.spans[i].end_ns = last;
        }
        let offset = self.spans.len();
        let open = shard.open.iter().map(|&i| offset + i).collect();
        let mut roots = Vec::new();
        for (i, mut s) in shard.spans.into_iter().enumerate() {
            if s.parent == NO_PARENT {
                // Until the pool reports which task ran this shard, hang
                // its roots under the caller's innermost open span.
                s.parent = self.open.last().map_or(NO_PARENT, |&p| p as u32);
                roots.push(offset + i);
            } else {
                s.parent += offset as u32;
            }
            self.spans.push(s);
        }
        self.shards.push(Shard {
            spans: offset..self.spans.len(),
            roots,
            open,
        });
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// union of its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push(i);
        }
    }
    let mut out = BTreeMap::new();
    let mut intervals = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        intervals.clear();
        intervals.extend(children[i].iter().map(|&c| {
            (
                spans[c].start_ns.max(s.start_ns),
                spans[c].end_ns.min(s.end_ns),
            )
        }));
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in &intervals {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Self time and span counts per span name, summed over the traced
/// operations of a run, plus the spans as JSON lines for writing out.
#[derive(Debug, Default)]
pub struct Rollup {
    /// Traced operations added.
    pub ops: usize,
    self_s: BTreeMap<&'static str, f64>,
    dur_s: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, u64>,
    jsonl: String,
}

/// Span dumps stop growing past this many bytes.
const MAX_DUMP_BYTES: usize = 8 << 20;

impl Rollup {
    /// Add one operation's spans.
    pub fn add(&mut self, spans: &[Span]) {
        self.ops += 1;
        for (name, s) in self_times(spans) {
            *self.self_s.entry(name).or_insert(0.0) += s;
        }
        for s in spans {
            *self.dur_s.entry(s.name).or_insert(0.0) += s.secs();
            *self.calls.entry(s.name).or_insert(0) += 1;
        }
        if self.jsonl.len() < MAX_DUMP_BYTES {
            self.jsonl.push_str(&to_jsonl(spans));
        }
    }

    fn per_op(&self, total: f64) -> f64 {
        total / self.ops.max(1) as f64
    }

    /// Self seconds of `name` spans per operation.
    pub fn self_s(&self, name: &str) -> f64 {
        self.per_op(self.self_s.get(name).copied().unwrap_or(0.0))
    }

    /// Seconds covered by `name` spans per operation.
    pub fn dur_s(&self, name: &str) -> f64 {
        self.per_op(self.dur_s.get(name).copied().unwrap_or(0.0))
    }

    /// `name` spans per operation.
    pub fn calls(&self, name: &str) -> f64 {
        self.per_op(self.calls.get(name).copied().unwrap_or(0) as f64)
    }

    /// Thread time per operation: the sum of every span's self time.
    pub fn thread_s(&self) -> f64 {
        self.per_op(self.self_s.values().sum())
    }

    /// Write the spans to `<work dir>/<workload>-spans.jsonl`; returns the
    /// path written.
    pub fn write(&self, workload: &str) -> Option<std::path::PathBuf> {
        let path = crate::measure::work_dir().join(format!("{workload}-spans.jsonl"));
        std::fs::write(&path, &self.jsonl).ok().map(|()| path)
    }
}

/// Spans as JSON lines: `{"run":..,"id":..,"parent":..,"name":..,
/// "track":..,"start_ns":..,"end_ns":..}` (`parent` is -1 for roots).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{{\"run\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"track\":{},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.run, s.name, s.track, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            run: 0,
            parent,
            name,
            track: 0,
            start_ns,
            end_ns,
        }
    }

    /// Spans of a real mine nest inside their parents, one `node` span
    /// per visited node, sequential and parallel alike.
    #[test]
    fn mine_spans_nest_and_count_the_nodes() {
        let db = utdb::UncertainDatabase::parse_symbolic(&[
            ("a b c d", 0.9),
            ("a b c", 0.6),
            ("a b c", 0.7),
            ("a b c d", 0.9),
            ("a b", 0.4),
            ("b c d", 0.8),
        ]);
        for threads in [1, 2] {
            let mut sink = SpanSink::new(Instant::now());
            let mine = sink.enter("mine");
            let outcome = pfcim_core::Miner::new(&db)
                .min_sup(2)
                .pfct(0.5)
                .threads(threads)
                .sink(&mut sink)
                .run();
            sink.exit(mine);
            let spans = sink.take_spans();
            let nodes = spans.iter().filter(|s| s.name == "node").count() as u64;
            assert_eq!(nodes, outcome.stats.nodes_visited, "threads={threads}");
            for s in &spans {
                assert!(s.start_ns <= s.end_ns);
                if s.parent != NO_PARENT {
                    let p = &spans[s.parent as usize];
                    assert!(
                        p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                        "{s:?} in {p:?}"
                    );
                }
            }
            let total: f64 = self_times(&spans).values().sum();
            if threads == 1 {
                // One thread: self times partition the mine's wall time.
                assert!((total - spans[mine].secs()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(NO_PARENT, "run", 0, 100),
            // Two overlapping children cover 10..60.
            span(0, "task", 10, 50),
            span(0, "task", 20, 60),
            span(1, "freq_dp", 15, 25),
        ];
        let t = self_times(&spans);
        assert!((t["run"] - 50e-9).abs() < 1e-15);
        assert!((t["task"] - (30e-9 + 40e-9)).abs() < 1e-15);
        assert!((t["freq_dp"] - 10e-9).abs() < 1e-15);
    }
}
