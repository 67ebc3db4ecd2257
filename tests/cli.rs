//! End-to-end tests of the `pfcim` command-line binary.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pfcim"))
}

/// Write the running example to a file of the calling test's own: the
/// tests of this binary run in parallel and each deletes its file.
fn write_running_example(test: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("pfcim_cli_{test}_{}.dat", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "1 2 3 4 : 0.9").unwrap();
    writeln!(f, "1 2 3 : 0.6").unwrap();
    writeln!(f, "1 2 3 : 0.7").unwrap();
    writeln!(f, "1 2 3 4 : 0.9").unwrap();
    path
}

#[test]
fn mines_the_running_example() {
    let path = write_running_example("mines_the_running_example");
    let out = bin()
        .args([path.to_str().unwrap(), "--min-sup", "2", "--pfct", "0.8"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].starts_with("1 2 3 :"), "{stdout}");
    assert!(lines[1].starts_with("1 2 3 4 :"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn percentage_min_sup_and_variants_agree() {
    let path = write_running_example("percentage_min_sup_and_variants_agree");
    let mut outputs = Vec::new();
    for variant in ["mpfci", "bfs", "naive"] {
        let out = bin()
            .args([
                path.to_str().unwrap(),
                "--min-sup",
                "50%",
                "--variant",
                variant,
                "--epsilon",
                "0.05",
                "--delta",
                "0.05",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{variant}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let itemsets: Vec<String> = stdout
            .lines()
            .map(|l| l.split(':').next().unwrap().trim().to_owned())
            .collect();
        outputs.push(itemsets);
    }
    assert_eq!(outputs[0], outputs[1], "bfs disagrees with mpfci");
    assert_eq!(outputs[0], outputs[2], "naive disagrees with mpfci");
    std::fs::remove_file(&path).ok();
}

#[test]
fn stats_flag_reports_counters() {
    let path = write_running_example("stats_flag_reports_counters");
    let out = bin()
        .args([path.to_str().unwrap(), "--min-sup", "2", "--stats"])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("nodes="), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_flag_writes_registry_snapshot() {
    let path = write_running_example("metrics_flag_writes_registry_snapshot");
    let metrics =
        std::env::temp_dir().join(format!("pfcim_cli_metrics_{}.json", std::process::id()));
    let out = bin()
        .args([
            path.to_str().unwrap(),
            "--min-sup",
            "2",
            "--stats",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    // --stats now includes the histogram summaries...
    assert!(stderr.contains("metrics written to"), "{stderr}");
    assert!(stderr.contains("# node_depth:"), "{stderr}");
    // ...and --metrics wrote the full registry snapshot as JSON.
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.starts_with("{\"counters\":{"), "{json}");
    assert!(json.contains("\"nodes_visited\":"), "{json}");
    assert!(json.contains("\"node_depth\":{\"count\":"), "{json}");
    // Gauges are sorted alphabetically, so the cache-capacity gauge
    // added alongside the hit rate now leads the object.
    assert!(json.contains("\"elapsed_s\":"), "{json}");
    assert!(json.contains("\"event_cache_capacity\":"), "{json}");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = bin().output().unwrap(); // no args
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["/nonexistent.dat", "--min-sup", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let path = write_running_example("bad_usage_exits_nonzero");
    let out = bin()
        .args([path.to_str().unwrap(), "--min-sup", "150%"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args([
            path.to_str().unwrap(),
            "--min-sup",
            "2",
            "--variant",
            "quantum",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(&path).ok();
}

/// Run `pfcim` with `args` and assert a usage error: exit code 2, the
/// range message on stderr, and no panic.
fn assert_rejected(args: &[&str], message: &str) {
    let out = bin().args(args).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn out_of_range_mining_parameters_are_usage_errors() {
    let path = write_running_example("out_of_range_mining_parameters_are_usage_errors");
    let file = path.to_str().unwrap();
    let base = [file, "--min-sup", "1"];
    for (flag, value, message) in [
        ("--epsilon", "0", "epsilon must be positive"),
        ("--epsilon", "nan", "epsilon must be positive"),
        ("--delta", "1", "delta must lie in (0, 1)"),
        ("--pfct", "1.5", "pfct must lie in [0, 1)"),
    ] {
        let mut args = base.to_vec();
        args.extend([flag, value]);
        assert_rejected(&args, message);
    }
    assert_rejected(
        &["profile", file, "--min-sup", "2", "--delta", "2"],
        "delta must lie in (0, 1)",
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn stream_rejects_out_of_range_parameters_like_batch() {
    for (flag, value, message) in [
        ("--pfct", "1", "pfct must lie in [0, 1)"),
        ("--pfct", "-0.5", "pfct must lie in [0, 1)"),
        ("--min-sup", "0", "--min-sup must be at least 1"),
    ] {
        let mut args = vec!["stream", "-", "--window", "4", "--min-sup", "2"];
        args.extend([flag, value]);
        assert_rejected(&args, message);
    }
}

/// Assert a malformed-input error: exit code 1, a line-numbered message
/// on stderr, and no panic.
fn assert_malformed(out: std::process::Output, message: &str) {
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
}

#[test]
fn huge_item_ids_are_malformed_input() {
    let huge = u64::from(pfcim::utdb::MAX_ITEM_ID) + 1;
    let path = std::env::temp_dir().join(format!(
        "pfcim_cli_huge_item_ids_are_malformed_input_{}.dat",
        std::process::id()
    ));
    std::fs::write(
        &path,
        format!("1 2 : 0.5\n4000000000 : 0.5\n{huge} : 0.5\n"),
    )
    .unwrap();
    let out = bin()
        .args([path.to_str().unwrap(), "--min-sup", "1"])
        .output()
        .unwrap();
    assert_malformed(out, "line 2: item id 4000000000 above the maximum");
    std::fs::write(&path, format!("1 2 : 0.5\n{huge} : 0.5\n")).unwrap();
    let out = bin()
        .args([path.to_str().unwrap(), "--min-sup", "1"])
        .output()
        .unwrap();
    assert_malformed(out, &format!("line 2: item id {huge} above the maximum"));
    std::fs::remove_file(&path).ok();

    for id in [4_000_000_000u64, huge] {
        let mut child = bin()
            .args(["stream", "-", "--window", "4", "--min-sup", "1"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let feed = format!("{{\"items\":[1,2],\"p\":0.5}}\n{{\"items\":[{id}],\"p\":0.5}}\n");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(feed.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert_malformed(out, &format!("line 2: item id {id} above the maximum"));
    }
}

/// `pfcim query` escapes the strings it sends: a snapshot named `q"x` —
/// the name `pfcim serve` gives a file `q"x.dat` — answers exactly like a
/// batch run of the same data.
#[test]
fn query_escapes_snapshot_names() {
    let path = write_running_example("query_escapes_snapshot_names");
    let db = pfcim::utdb::io::read_dat(&path).unwrap();
    let server = pfcim::core::Server::bind(
        "127.0.0.1:0",
        vec![pfcim::core::Snapshot::new("q\"x", db)],
        pfcim::core::ServeConfig::default(),
    )
    .expect("bind service");
    let addr = server.local_addr().to_string();
    let mine = ["--min-sup", "2", "--pfct", "0.8"];
    let query = bin()
        .args(["query", &addr, "--snapshot", "q\"x"])
        .args(mine)
        .output()
        .unwrap();
    assert!(query.status.success(), "{query:?}");
    let batch = bin()
        .arg(path.to_str().unwrap())
        .args(mine)
        .output()
        .unwrap();
    assert!(batch.status.success(), "{batch:?}");
    assert!(!batch.stdout.is_empty());
    assert_eq!(
        String::from_utf8(query.stdout).unwrap(),
        String::from_utf8(batch.stdout).unwrap()
    );
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Feed `{"items":[1,2],"p":0.9}` and then `line` to `pfcim stream`;
/// returns the run and the window it dumped.
fn stream_after_valid_line(test: &str, line: &str) -> (std::process::Output, String) {
    let dump = std::env::temp_dir().join(format!("pfcim_cli_{test}_{}.dat", std::process::id()));
    let mut child = bin()
        .args(["stream", "-", "--window", "4", "--min-sup", "1"])
        .arg("--dump-final")
        .arg(&dump)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let feed = format!("{{\"items\":[1,2],\"p\":0.9}}\n{line}\n");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(feed.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let window = std::fs::read_to_string(&dump).unwrap_or_default();
    std::fs::remove_file(&dump).ok();
    (out, window)
}

#[test]
fn stream_lines_are_read_as_json() {
    // Only a top-level `p` is the probability: a string value "p", or a
    // `p` inside a nested object, is not; other keys are ignored.
    for (i, (line, window)) in [
        (r#"{"items":[1,3],"src":"p"}"#, "1 2 : 0.9\n1 3\n"),
        (
            r#"{"src":"p","items":[1,3],"p":0.8}"#,
            "1 2 : 0.9\n1 3 : 0.8\n",
        ),
        (r#"{"items":[1,3],"meta":{"p":0.2}}"#, "1 2 : 0.9\n1 3\n"),
    ]
    .into_iter()
    .enumerate()
    {
        let (out, dumped) = stream_after_valid_line(&format!("stream_lines_{i}"), line);
        assert!(out.status.success(), "{line}: {out:?}");
        assert_eq!(dumped, window, "{line}");
    }
    // Malformed JSON is malformed input, reported with its line number.
    for (i, line) in [
        r#"{"items":[1,3] "p":0.8}"#,
        r#"{"items":[1,3],"p":0.8,"p":0.2}"#,
        r#"{"items":[1,3],"p":0.8}}"#,
    ]
    .into_iter()
    .enumerate()
    {
        let (out, _) = stream_after_valid_line(&format!("stream_bad_{i}"), line);
        assert_malformed(out, "line 2: ");
    }
}
