//! Integration tests that execute the real `repro` and `swtrace`
//! binaries, exercising argument parsing, pcap I/O and experiment output
//! end to end.

use std::process::Command;

/// Run `bin`, handing back stdout, stderr and the exit code.
fn exec(bin: &str, args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn run(bin: &str, args: &[&str]) -> (String, String, bool) {
    let (stdout, stderr, code) = exec(bin, args);
    (stdout, stderr, code == Some(0))
}

fn run_code(args: &[&str]) -> (String, String, Option<i32>) {
    exec(env!("CARGO_BIN_EXE_repro"), args)
}

/// A per-process scratch path for an artifact a test asks `repro` for.
fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("repro-cli-{}-{name}", std::process::id()))
}

#[test]
fn repro_list_shows_every_experiment() {
    let (stdout, _, ok) = run(env!("CARGO_BIN_EXE_repro"), &["list"]);
    assert!(ok);
    for id in ["fig2a", "fig5", "fig10", "table4", "ablation-cuckoo"] {
        assert!(stdout.contains(id), "missing {id} in repro list");
    }
}

#[test]
fn repro_rejects_unknown_experiment() {
    let (_, stderr, ok) = run(env!("CARGO_BIN_EXE_repro"), &["fig99"]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment \"fig99\""));
}

#[test]
fn repro_rejects_unknown_flag_even_next_to_a_valid_experiment() {
    // A typo'd flag must not be silently swallowed just because the
    // other token names a real experiment.
    let (_, stderr, ok) = run(env!("CARGO_BIN_EXE_repro"), &["fig3", "--bogus-flag"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag \"--bogus-flag\""));
}

#[test]
fn repro_refuses_a_dispatcher_count_as_an_unknown_flag() {
    // The pipeline has one dispatcher and RTC one ingest per core: no
    // driver takes a dispatcher count, so the flag is refused by name.
    for driver in ["engine", "control", "soak"] {
        let (_, stderr, code) = run_code(&[driver, "--rx-queues", "2"]);
        assert_eq!(code, Some(2), "{driver}");
        assert!(
            stderr.contains("unknown flag \"--rx-queues\""),
            "{driver}: want the flag named, got: {stderr}"
        );
    }
}

/// A flag none of the selected drivers reads exits 2, naming the flag
/// and who does read it.
fn assert_refused(args: &[&str], flag: &str, readers: &str) {
    let (_, stderr, code) = run_code(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("{flag} is not read by"))
            && stderr.contains(&format!("it applies to: {readers}")),
        "{args:?}: {stderr}"
    );
}

#[test]
fn repro_engine_refuses_a_serve_flag() {
    assert_refused(&["engine", "--segments", "3"], "--segments", "serve|soak");
}

#[test]
fn repro_control_refuses_a_rate() {
    assert_refused(&["control", "--rate", "1.0"], "--rate", "engine/serve|soak");
}

#[test]
fn repro_soak_refuses_the_engine_summary() {
    assert_refused(&["soak", "--summary-out", "x"], "--summary-out", "engine");
}

#[test]
fn repro_paper_experiments_refuse_shape_flags() {
    assert_refused(
        &["fig3", "--shards", "2"],
        "--shards",
        "engine/control/serve|soak",
    );
}

/// Every row of the flag table (read back from `--help`) has a parser:
/// given a value of its metavar's kind next to `list`, each is parsed
/// and then — unless every selection reads it — refused by name; never
/// unknown, never a panic.
#[test]
fn repro_parses_every_flag_of_its_table() {
    let (help, _, ok) = run(env!("CARGO_BIN_EXE_repro"), &["--help"]);
    assert!(ok);
    let synopsis = help.split("\n\n").nth(2).expect("synopsis section");
    let mut flags = 0;
    for group in synopsis.split("\n  ").filter(|g| g.contains('[')) {
        let for_all = group.trim_start().starts_with("all:");
        for token in group.split('[').skip(1) {
            let token = token.split(']').next().unwrap();
            let (flag, metavar) = token.split_once(' ').unwrap_or((token, ""));
            let value = match metavar {
                "" => None,
                "N" | "R" => Some("1"),
                "MPPS" | "F" => Some("0.5"),
                choice => choice.split('|').next(),
            };
            let mut args = vec!["list", flag];
            args.extend(value);
            let (_, stderr, code) = run_code(&args);
            if for_all {
                assert_eq!(code, Some(0), "{args:?}: {stderr}");
            } else {
                assert_eq!(code, Some(2), "{args:?}: {stderr}");
                assert!(
                    stderr.contains(&format!("{flag} is not read by `list`")),
                    "{args:?}: {stderr}"
                );
            }
            flags += 1;
        }
    }
    // The synopsis lists every row of `repro`'s FLAGS table, once.
    let table = include_str!("../src/bin/repro.rs")
        .split("const FLAGS: &[Flag] = &[")
        .nth(1)
        .and_then(|t| t.split("\n];").next())
        .expect("the FLAGS table");
    let rows = table
        .lines()
        .filter(|l| l.trim_start().starts_with("(\"--"))
        .count();
    assert!(
        rows > 0 && flags == rows,
        "{flags} synopsis flags, {rows} FLAGS rows"
    );
}

/// Operator input that used to reach an assert (exit 101) exits 2 with
/// a named error, before any engine is built.
#[test]
fn repro_refuses_an_impossible_spike_or_rate_by_name() {
    for (args, named) in [
        (
            &["control", "--base", "3", "--peak", "2"][..],
            "--peak (2) must exceed --base (3)",
        ),
        (
            &["control", "--spike-start", "0.8", "--spike-end", "0.2"][..],
            "--spike-end (0.2) must not precede --spike-start (0.8)",
        ),
        (
            &["serve", "--rate", "inf"][..],
            "--rate needs a positive, finite Mpps value, got \"inf\"",
        ),
    ] {
        let (_, stderr, code) = run_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

/// A file that is not a capture, and a `--listen` address that does not
/// parse or is already taken, exit 2 naming the flag — not a panic.
#[test]
fn repro_refuses_a_non_capture_or_an_unbindable_listen_by_name() {
    let text = temp_path("not-a-capture.pcap");
    std::fs::write(&text, "these bytes are not a pcap file\n").unwrap();
    let source = format!("pcap:{}", text.display());
    let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let taken = held.local_addr().unwrap().to_string();
    for (args, named) in [
        (
            &["engine", "--source", &source][..],
            format!("--source pcap: cannot parse {}", text.display()),
        ),
        (
            &["serve", "--listen", "not-an-addr"][..],
            "--listen not-an-addr:".to_string(),
        ),
        (
            &["serve", "--listen", &taken][..],
            format!("--listen {taken}:"),
        ),
    ] {
        let (_, stderr, code) = run_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&named), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&text).ok();
}

/// `--batch N` is the dispatch unit: no batch carries more than N
/// packets, and a flat-out run fills them.
#[test]
fn repro_batch_caps_every_dispatch_batch() {
    let metrics = temp_path("batch-metrics.json");
    let (_, stderr, code) = run_code(&[
        "engine",
        "--shards",
        "1",
        "--packets",
        "20000",
        "--batch",
        "32",
        "--metrics-json",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).expect("valid JSON");
    std::fs::remove_file(&metrics).ok();
    let batches = &v["histograms"]["runtime.stage.batch_pkts"];
    assert_eq!(batches["max"].as_u64(), Some(32), "{batches}");
    assert_eq!(batches["sum"].as_u64(), Some(20_000), "{batches}");
}

/// `--segment-ms` drains every segment still running at its deadline,
/// and the drained segments conserve.
#[test]
fn repro_segment_ms_drains_each_segment_at_its_deadline() {
    let out = temp_path("segment-ms.json");
    let (_, stderr, code) = run_code(&[
        "serve",
        "--segments",
        "2",
        "--packets",
        "400000",
        "--rate",
        "0.5",
        "--segment-ms",
        "30",
        "--bench-json",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).expect("valid JSON");
    std::fs::remove_file(&out).ok();
    let timeline = v["timeline"].as_array().expect("timeline");
    assert_eq!(timeline.len(), 2);
    for seg in timeline {
        assert_eq!(seg["interrupted"].as_bool(), Some(true), "{seg}");
        assert_eq!(seg["conserved"].as_bool(), Some(true), "{seg}");
        assert!(seg["offered"].as_u64().unwrap() < 400_000, "{seg}");
    }
}

/// `--scale` picks the workload: the same packet budget replays a
/// different, larger generator trace.
#[test]
fn repro_scale_changes_the_replayed_workload() {
    let summary = |scale: &str| {
        let path = temp_path(&format!("scale-{scale}.txt"));
        let (_, stderr, code) = run_code(&[
            "engine",
            "--shards",
            "1",
            "--host-workers",
            "0",
            "--packets",
            "20000",
            "--scale",
            scale,
            "--summary-out",
            path.to_str().unwrap(),
        ]);
        assert_eq!(code, Some(0), "{stderr}");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text
    };
    let (one, two) = (summary("1"), summary("2"));
    assert!(one.starts_with("offered=20000") && two.starts_with("offered=20000"));
    assert_ne!(one, two);
}

/// The config-file edit path is gone: its flag is an unknown one.
#[test]
fn repro_serve_refuses_a_config_file_as_an_unknown_flag() {
    let (_, stderr, code) = run_code(&["serve", "--serve-config", "x"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag \"--serve-config\""),
        "{stderr}"
    );
}

#[test]
fn repro_soak_with_rtc_soaks_fused_cores() {
    // `soak --datapath rtc` used to drop the flag and soak the pipeline
    // (`pool_bound` = lanes × (64 + 2)); a fused core has no lane.
    let out = temp_path("soak-rtc.json");
    let (_, stderr, code) = run_code(&[
        "soak",
        "--datapath",
        "rtc",
        "--segments",
        "2",
        "--packets",
        "20000",
        "--flat-out",
        "--bench-json",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("soak clean"), "{stderr}");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).expect("valid JSON");
    std::fs::remove_file(&out).ok();
    assert_eq!(v["datapath"].as_str(), Some("rtc"));
    assert_eq!(v["pool_bound"].as_u64(), Some(0));
    assert_eq!(v["conserved"].as_bool(), Some(true));
    assert_eq!(v["timeline"].as_array().map(|t| t.len()), Some(2));
}

#[test]
fn repro_control_with_rtc_says_so_in_its_artifact() {
    let out = temp_path("control-rtc.json");
    let (_, stderr, code) = run_code(&[
        "control",
        "--datapath",
        "rtc",
        "--host-workers",
        "0",
        "--packets",
        "40000",
        "--bench-json",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).expect("valid JSON");
    std::fs::remove_file(&out).ok();
    assert_eq!(v["datapath"].as_str(), Some("rtc"));
    for run in ["controlled", "baseline"] {
        assert_eq!(v[run]["conserved"].as_bool(), Some(true), "{run}");
        assert_eq!(v[run]["offered"].as_u64(), Some(40_000), "{run}");
    }
}

#[test]
fn repro_rejects_a_bad_datapath_value() {
    let (_, stderr, ok) = run(
        env!("CARGO_BIN_EXE_repro"),
        &["engine", "--datapath", "fused"],
    );
    assert!(!ok);
    assert!(stderr.contains("--datapath must be `pipeline` or `rtc`"));
}

#[test]
fn repro_engine_rtc_runs_and_reports_the_datapath() {
    let (stdout, _, ok) = run(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "engine",
            "--datapath",
            "rtc",
            "--packets",
            "20000",
            "--json",
        ],
    );
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    let row = &v["rows"][0];
    assert!(
        row.as_array()
            .expect("row array")
            .iter()
            .any(|c| c.as_str() == Some("rtc")),
        "datapath column carries the mode: {row}"
    );
}

#[test]
fn repro_json_output_parses() {
    let (stdout, _, ok) = run(env!("CARGO_BIN_EXE_repro"), &["fig3", "--json"]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["id"], "fig3");
    assert!(v["rows"].as_array().map(|r| !r.is_empty()).unwrap_or(false));
}

#[test]
fn swtrace_pipeline_round_trips() {
    let dir = std::env::temp_dir().join(format!("swtrace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bg = dir.join("bg.pcap");
    let scan = dir.join("scan.pcap");
    let mixed = dir.join("mixed.pcap");
    let stress = dir.join("stress.pcap");
    let sw = env!("CARGO_BIN_EXE_swtrace");

    let (_, e, ok) = run(
        sw,
        &[
            "gen",
            "--preset",
            "caida2018",
            "--flows",
            "200",
            "--secs",
            "2",
            "--seed",
            "5",
            "-o",
            bg.to_str().unwrap(),
        ],
    );
    assert!(ok, "gen failed: {e}");
    let (_, e, ok) = run(
        sw,
        &[
            "attack",
            "portscan",
            "--delay-ms",
            "20",
            "--probes",
            "50",
            "-o",
            scan.to_str().unwrap(),
        ],
    );
    assert!(ok, "attack failed: {e}");
    let (_, e, ok) = run(
        sw,
        &[
            "merge",
            bg.to_str().unwrap(),
            scan.to_str().unwrap(),
            "-o",
            mixed.to_str().unwrap(),
        ],
    );
    assert!(ok, "merge failed: {e}");
    let (_, e, ok) = run(
        sw,
        &[
            "rewrite64",
            mixed.to_str().unwrap(),
            "-o",
            stress.to_str().unwrap(),
        ],
    );
    assert!(ok, "rewrite64 failed: {e}");

    let (info, _, ok) = run(sw, &["info", mixed.to_str().unwrap()]);
    assert!(ok);
    assert!(info.contains("packets"));
    assert!(info.contains("syn-only"));

    // The merged pcap parses back in-process with the right packet count.
    let merged = smartwatch_net::pcap::read(&std::fs::read(&mixed).unwrap()).unwrap();
    let background = smartwatch_net::pcap::read(&std::fs::read(&bg).unwrap()).unwrap();
    let scan_pkts = smartwatch_net::pcap::read(&std::fs::read(&scan).unwrap()).unwrap();
    assert_eq!(merged.len(), background.len() + scan_pkts.len());
    // And the 64 B rewrite really truncates every frame.
    let rewritten = smartwatch_net::pcap::read(&std::fs::read(&stress).unwrap()).unwrap();
    assert!(rewritten.iter().all(|p| p.wire_len == 64));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swtrace_reports_missing_output_flag() {
    let (_, stderr, ok) = run(env!("CARGO_BIN_EXE_swtrace"), &["gen", "--flows", "10"]);
    assert!(!ok);
    assert!(stderr.contains("-o"));
}
