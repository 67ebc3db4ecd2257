//! Service-vs-batch differential suite for `pfcim_core::serve`.
//!
//! The mining service is a thin shell over the same engine the batch
//! CLI drives, so its answers must be *indistinguishable* from direct
//! [`Miner`] runs wherever the algorithm is deterministic:
//!
//! * Exact mode: the `results` payload of every service response —
//!   itemsets, `fcp`, `pr_f`, all rendered at fixed precision — is
//!   byte-identical to the direct run at the same `min_sup`/`pfct`, for
//!   every tested worker count, whether the queries arrive sequentially
//!   or as a simultaneous burst against one shared [`Snapshot`].
//! * Carved answers (the monotonicity carve: a stricter-`pfct` query
//!   filtered from a cached looser-`pfct` outcome) are held to the same
//!   standard — bit-identical to mining the stricter threshold directly.
//! * The snapshot's shared bound-input cache reconciles exactly with
//!   the per-query [`KernelStats`] counters every response carries: the
//!   cache's global hit/miss totals are the sum of the per-query
//!   `bound_cache_hits`/`bound_cache_misses`.
//!
//! Worker counts come from `PFCIM_TEST_THREADS` (comma-separated, as in
//! `scripts/ci.sh`), defaulting to `1,2,4,7`.

use std::time::Duration;

use pfcim::core::serve::query_once;
use pfcim::core::{Miner, MinerConfig, MiningOutcome, ServeConfig, Server, Snapshot};
use pfcim::utdb::UncertainDatabase;

fn table4() -> UncertainDatabase {
    UncertainDatabase::parse_symbolic(&[
        ("a b c d", 0.9),
        ("a b c", 0.6),
        ("a b c", 0.7),
        ("a b c d", 0.9),
        ("a b", 0.4),
        ("a", 0.4),
    ])
}

fn thread_counts() -> Vec<usize> {
    match std::env::var("PFCIM_TEST_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("PFCIM_TEST_THREADS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 7],
    }
}

const TIMEOUT: Duration = Duration::from_secs(30);

fn start_server() -> Server {
    Server::bind(
        "127.0.0.1:0",
        vec![Snapshot::new("t4", table4())],
        ServeConfig::default(),
    )
    .expect("bind service")
}

/// The `results` payload of a service response: everything between
/// `"results":` and `,"stats"`.
fn results_of(resp: &str) -> &str {
    let start = resp.find("\"results\":").expect("results key") + "\"results\":".len();
    let end = resp.find(",\"stats\"").expect("stats key");
    &resp[start..end]
}

/// Serialize a direct [`Miner`] outcome exactly as the service renders
/// its `results` array (fixed six-digit precision, numeric item ids).
fn results_of_outcome(outcome: &MiningOutcome) -> String {
    let body: Vec<String> = outcome
        .results
        .iter()
        .map(|p| {
            let ids: Vec<String> = p.items.iter().map(|it| it.0.to_string()).collect();
            format!(
                "{{\"items\":[{}],\"fcp\":{:.6},\"pr_f\":{:.6}}}",
                ids.join(","),
                p.fcp,
                p.frequent_probability
            )
        })
        .collect();
    format!("[{}]", body.join(","))
}

/// Extract an integer field (first occurrence) from a response.
fn int_field(resp: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let start = resp.find(&tag).unwrap_or_else(|| panic!("{key} in {resp}")) + tag.len();
    resp[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer field")
}

/// Two simultaneous queries against one `Snapshot` answer bit-identically
/// to the same queries issued sequentially, and both match the direct
/// batch engine — at every tested worker count.
#[test]
fn concurrent_queries_are_bit_identical_to_sequential_and_batch() {
    let db = table4();
    let server = start_server();
    let addr = server.local_addr().to_string();
    let pfcts = [0.5, 0.7];

    for &threads in &thread_counts() {
        // Ground truth: the batch engine, same config, no service.
        let expected: Vec<String> = pfcts
            .iter()
            .map(|&pfct| {
                let outcome = Miner::new(&db)
                    .config(MinerConfig::new(2, pfct).with_threads(threads))
                    .run();
                results_of_outcome(&outcome)
            })
            .collect();

        // A simultaneous burst: every query carries a distinct seed so
        // each lands on its own carve key and genuinely mines.
        let burst: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = pfcts
                .iter()
                .enumerate()
                .map(|(i, &pfct)| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let body = format!(
                            "{{\"snapshot\":\"t4\",\"min_sup\":2,\"pfct\":{pfct},\
                             \"threads\":{threads},\"seed\":{}}}",
                            1000 * threads + i
                        );
                        query_once(&addr, &body, TIMEOUT).expect("query")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The same queries again, sequentially (these revisit the carve
        // cache — carved answers are held to the same bit-identity bar).
        for (i, &pfct) in pfcts.iter().enumerate() {
            let body = format!(
                "{{\"snapshot\":\"t4\",\"min_sup\":2,\"pfct\":{pfct},\
                 \"threads\":{threads},\"seed\":{}}}",
                1000 * threads + i
            );
            let sequential = query_once(&addr, &body, TIMEOUT).expect("query");
            assert!(burst[i].contains("\"status\":\"ok\""), "{}", burst[i]);
            assert_eq!(
                results_of(&burst[i]),
                expected[i],
                "threads={threads} pfct={pfct}: concurrent service answer \
                 diverges from the batch engine"
            );
            assert_eq!(
                results_of(&sequential),
                expected[i],
                "threads={threads} pfct={pfct}: sequential service answer \
                 diverges from the batch engine"
            );
        }
    }
    server.shutdown();
}

/// The snapshot's shared bound-input cache reconciles exactly with the
/// per-query `KernelStats` every response carries, and queries sharing
/// the snapshot genuinely share entries (nonzero cross-query hits).
#[test]
fn snapshot_cache_counters_reconcile_with_per_query_kernel_stats() {
    let snapshot = Snapshot::new("t4", table4());
    // Snapshots are Arc-backed; this clone observes the server's cache.
    let probe = snapshot.clone();
    let server =
        Server::bind("127.0.0.1:0", vec![snapshot], ServeConfig::default()).expect("bind service");
    let addr = server.local_addr().to_string();

    let (mut hits, mut misses) = (0u64, 0u64);
    for seed in 0..6u64 {
        // Distinct seeds: distinct carve keys, so every query mines and
        // every response's kernel counters reflect real cache traffic.
        let body = format!("{{\"snapshot\":\"t4\",\"min_sup\":2,\"pfct\":0.5,\"seed\":{seed}}}");
        let resp = query_once(&addr, &body, TIMEOUT).expect("query");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        hits += int_field(&resp, "bound_cache_hits");
        misses += int_field(&resp, "bound_cache_misses");
    }
    server.shutdown();

    assert!(
        hits > 0,
        "queries sharing a snapshot recorded no cache hits"
    );
    assert_eq!(
        (probe.cache().hits(), probe.cache().misses()),
        (hits, misses),
        "snapshot cache totals diverge from the summed per-query KernelStats"
    );
}

/// A stricter-`pfct` query answered by the monotonicity carve is
/// bit-identical to mining the stricter threshold directly.
#[test]
fn carved_answers_are_bit_identical_to_direct_runs() {
    let db = table4();
    let server = start_server();
    let addr = server.local_addr().to_string();

    let looser = "{\"snapshot\":\"t4\",\"min_sup\":2,\"pfct\":0.6,\"seed\":9}";
    let stricter = "{\"snapshot\":\"t4\",\"min_sup\":2,\"pfct\":0.7,\"seed\":9}";
    let first = query_once(&addr, looser, TIMEOUT).expect("query");
    assert!(first.contains("\"carved\":false"), "{first}");
    let second = query_once(&addr, stricter, TIMEOUT).expect("query");
    assert!(
        second.contains("\"carved\":true"),
        "stricter query was not carved from the cached looser outcome: {second}"
    );
    server.shutdown();

    let direct = Miner::new(&db).config(MinerConfig::new(2, 0.7)).run();
    assert_eq!(
        results_of(&second),
        results_of_outcome(&direct),
        "carved answer diverges from mining pfct=0.7 directly"
    );
}

/// Integer request fields are read exactly: seeds 2^53 and 2^53 + 1,
/// which collapse onto one value when read through an `f64`, each answer
/// byte-identically to a direct sampled run with that seed, and the
/// second is mined afresh rather than carved from the first.
#[test]
fn seeds_above_two_to_the_53_stay_distinct() {
    let db = table4();
    let server = start_server();
    let addr = server.local_addr().to_string();
    let mut client = pfcim::core::Client::connect(&addr, TIMEOUT).expect("connect");
    for seed in [1u64 << 53, (1u64 << 53) + 1] {
        let resp = client
            .request(&format!(
                "{{\"snapshot\":\"t4\",\"min_sup\":2,\"pfct\":0.6,\
                 \"fcp_method\":\"approx\",\"threads\":1,\"seed\":{seed}}}"
            ))
            .expect("query");
        let direct = Miner::new(&db)
            .config(
                MinerConfig::new(2, 0.6)
                    .with_fcp_method(pfcim::core::FcpMethod::ApproxOnly)
                    .with_threads(1)
                    .with_seed(seed),
            )
            .run();
        assert_eq!(
            results_of(&resp),
            results_of_outcome(&direct),
            "seed {seed}"
        );
        assert!(resp.contains("\"carved\":false"), "seed {seed}: {resp}");
    }
    server.shutdown();
}
