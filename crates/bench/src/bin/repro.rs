//! `repro` — regenerate the paper's tables and figures.
//!
//! ```sh
//! repro all                # every experiment at default scale
//! repro fig5 table4        # selected experiments
//! repro all --scale 4      # bigger workloads (slower, tighter shapes)
//! repro fig10 --json       # machine-readable tables
//! repro fig5 --metrics-json m.json   # dump the metric registry
//! repro fig5 --trace-out trace.json  # chrome://tracing / Perfetto trace
//! repro engine --shards 4 --packets 1000000   # wall-clock runtime
//! repro engine --trace-sample 64 --trace-out t.json  # wall-clock spans
//! repro engine --listen 127.0.0.1:9184        # live /metrics plane
//! repro engine --flight-dump flight.json      # black-box event rings
//! repro control --peak 4.0 --bench-json BENCH_control.json  # control plane
//! repro serve --listen 127.0.0.1:9184 --segments 10   # service mode
//! repro soak --segments 5 --segment-ms 2000 --bench-json BENCH_serve.json
//! repro list               # experiment index
//! ```

use smartwatch_bench::exp_control::{
    bench_json as control_bench_json, control_run_full, ControlRunSpec,
};
use smartwatch_bench::exp_engine::{bench_json, engine_run_full, EngineRunSpec};
use smartwatch_bench::exp_serve::{serve_bench_json, serve_run_full, ServeSpec};
use smartwatch_bench::output::Table;
use smartwatch_bench::run_shape::{EngineSource, EngineWorkload, RunShape};
use smartwatch_bench::{all_experiments, signal, ExpCtx};
use smartwatch_runtime::{DatapathMode, Engine, EngineReport};

/// Who reads a flag, as a bit set. `serve` and `soak` are one driver
/// with two exit policies; `FIGS` is every virtual-time experiment
/// (and `all` / `list`).
const FIGS: u8 = 1;
const ENGINE: u8 = 2;
const CONTROL: u8 = 4;
const SERVE: u8 = 8;
/// The wall-clock drivers: every flag of the shared `RunShape`.
const RUNTIME: u8 = ENGINE | CONTROL | SERVE;
const ALL: u8 = FIGS | RUNTIME;
const READERS: [(u8, &str); 4] = [
    (FIGS, "experiments"),
    (ENGINE, "engine"),
    (CONTROL, "control"),
    (SERVE, "serve|soak"),
];

/// One row of the flags × drivers table: name, metavar of the value it
/// takes (empty for a switch), readers.
type Flag = (&'static str, &'static str, u8);

/// The flags × drivers table. `main` refuses a flag none of the selected
/// drivers reads, and the synopsis of `usage()` is rendered from it.
const FLAGS: &[Flag] = &[
    ("--scale", "N", ALL),
    ("--json", "", ALL),
    ("--metrics-json", "<path>", ALL),
    ("--trace-out", "<path>", ALL),
    ("--shards", "N", RUNTIME),
    ("--datapath", "pipeline|rtc", RUNTIME),
    ("--packets", "N", RUNTIME),
    ("--batch", "N", RUNTIME),
    ("--host-workers", "N", RUNTIME),
    ("--trace-sample", "N", RUNTIME),
    ("--workload", "stress|stress64|mix", RUNTIME),
    ("--source", "synthetic|compiled|pcap:<path>", RUNTIME),
    ("--listen", "ADDR", RUNTIME),
    ("--serve-hold-ms", "N", RUNTIME),
    ("--bench-json", "<path>", RUNTIME),
    ("--flight-dump", "<path>", RUNTIME),
    ("--summary-out", "<path>", ENGINE),
    ("--rate", "MPPS", ENGINE | SERVE),
    ("--base", "MPPS", CONTROL),
    ("--peak", "MPPS", CONTROL),
    ("--spike-start", "F", CONTROL),
    ("--spike-end", "F", CONTROL),
    ("--flat-out", "", SERVE),
    ("--segments", "N", SERVE),
    ("--segment-ms", "N", SERVE),
    ("--carry-flow-state", "", SERVE),
];

/// RSS growth first→last segment that `soak` tolerates: allocator noise,
/// not a leak.
const RSS_SLACK_BYTES: u64 = 64 << 20;

/// The readers of `mask`, by name: `engine/serve|soak`.
fn readers_label(mask: u8) -> String {
    if mask == ALL {
        return "all".to_string();
    }
    let names: Vec<&str> = READERS
        .iter()
        .filter(|(bit, _)| mask & bit != 0)
        .map(|(_, name)| *name)
        .collect();
    names.join("/")
}

/// Who reads the flags of a `repro <name>` selection.
fn reader_of(name: &str) -> u8 {
    match name {
        "engine" => ENGINE,
        "control" => CONTROL,
        "serve" | "soak" => SERVE,
        _ => FIGS,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1usize;
    let mut json = false;
    let mut metrics_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut summary_out: Option<String> = None;
    let mut flight_out: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut given: Vec<&Flag> = Vec::new();
    // Ctrl-C / SIGTERM drains a run gracefully: the engine quiesces
    // through the end-of-trace path and the summary still conserves.
    let mut shape = RunShape {
        watch_signals: true,
        ..RunShape::default()
    };
    // Read by several drivers that each keep their own default.
    let mut packets: Option<usize> = None;
    let mut rate: Option<f64> = None;
    let mut flat_out = false;
    let mut engine_spec = EngineRunSpec::default();
    let mut control_spec = ControlRunSpec::default();
    let mut serve_spec = ServeSpec::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(flag) = FLAGS.iter().find(|(name, ..)| name == a) else {
            if a == "-h" || a == "--help" {
                print!("{}", usage());
                return;
            }
            selected.push(a.clone());
            continue;
        };
        given.push(flag);
        // A flag with a metavar takes the next token, whatever it is.
        let (name, metavar, _) = *flag;
        let v = if metavar.is_empty() {
            ""
        } else {
            it.next()
                .unwrap_or_else(|| die(&format!("{a} needs a value: {metavar}")))
        };
        match name {
            "--shards" => shape.shards = positive(v, a),
            "--datapath" => {
                shape.datapath = match v {
                    "pipeline" => DatapathMode::Pipeline,
                    "rtc" => DatapathMode::Rtc,
                    _ => die("--datapath must be `pipeline` or `rtc`"),
                };
            }
            "--packets" => packets = Some(positive(v, a)),
            "--batch" => shape.batch = positive(v, a),
            "--host-workers" => shape.host_workers = natural(v, a),
            "--trace-sample" => shape.trace_sample = natural(v, a),
            "--workload" => {
                shape.workload = match v {
                    // `stress64` is the spelled-out alias: the stress
                    // workload is already 64-byte truncated.
                    "stress" | "stress64" => EngineWorkload::Stress,
                    "mix" => EngineWorkload::Mix,
                    _ => die("--workload must be `stress`, `stress64` or `mix`"),
                };
            }
            "--source" => shape.source = EngineSource::parse(v).unwrap_or_else(|e| die(&e)),
            "--listen" => shape.listen = Some(v.to_string()),
            "--serve-hold-ms" => shape.serve_hold_ms = natural(v, a),
            "--rate" => {
                rate = Some(mpps(v, a));
                flat_out = false;
            }
            "--flat-out" => flat_out = true,
            "--base" => control_spec.base_mpps = mpps(v, a),
            "--peak" => control_spec.peak_mpps = mpps(v, a),
            "--spike-start" => control_spec.spike_start = fraction(v, a),
            "--spike-end" => control_spec.spike_end = fraction(v, a),
            "--segments" => serve_spec.segments = positive(v, a),
            "--segment-ms" => serve_spec.segment_ms = natural(v, a),
            "--carry-flow-state" => serve_spec.carry_flow_state = true,
            "--bench-json" => bench_out = Some(v.to_string()),
            "--summary-out" => summary_out = Some(v.to_string()),
            "--flight-dump" => flight_out = Some(v.to_string()),
            "--scale" => scale = positive(v, a),
            "--json" => json = true,
            "--metrics-json" => metrics_json = Some(v.to_string()),
            "--trace-out" => trace_out = Some(v.to_string()),
            other => unreachable!("flag table row {other} has no parser"),
        }
    }
    if selected.is_empty() {
        print!("{}", usage());
        return;
    }

    let experiments = all_experiments();
    // Reject unknown tokens up front: a typo'd flag must not be
    // silently swallowed as a never-matched "experiment name" just
    // because another selection happened to run.
    for name in &selected {
        let known = matches!(
            name.as_str(),
            "list" | "all" | "engine" | "control" | "serve" | "soak"
        ) || experiments.iter().any(|(id, _)| name == id);
        if !known {
            if name.starts_with('-') {
                die(&format!("unknown flag {name:?}; try `repro --help`"));
            }
            die(&format!("unknown experiment {name:?}; try `repro list`"));
        }
    }
    // A flag does what it says in every selected driver or is refused:
    // one that none of them reads would be dropped without a word.
    let readers = selected.iter().fold(0, |mask, s| mask | reader_of(s));
    if let Some((name, _, takers)) = given.iter().find(|(.., takers)| takers & readers == 0) {
        die(&format!(
            "{name} is not read by `{}`; it applies to: {}",
            selected.join(" "),
            readers_label(*takers)
        ));
    }
    if selected.iter().any(|s| s == "list") {
        println!("available experiments:");
        for (id, _) in &experiments {
            println!("  {id}");
        }
        return;
    }
    let run_all = selected.iter().any(|s| s == "all");
    let ctx = ExpCtx::new(scale);
    let mut ran = 0;
    let wants = |name: &str| selected.iter().any(|s| s == name);
    let runtime_drivers = ["engine", "control", "serve", "soak"]
        .iter()
        .filter(|d| wants(d))
        .count();
    if (bench_out.is_some() || flight_out.is_some()) && runtime_drivers > 1 {
        die("--bench-json/--flight-dump apply to one of `engine`/`control`/`serve`/`soak` per invocation");
    }
    if wants("serve") && wants("soak") {
        die("`serve` and `soak` are one service run each; pick one per invocation");
    }
    if wants("control") {
        control_spec.validate().unwrap_or_else(|e| die(&e));
    }
    if runtime_drivers > 0 {
        signal::install();
    }
    // Every driver gets the one parsed shape; `--packets` and `--rate`
    // are handed to each driver that reads them, which otherwise keeps
    // its own default.
    let shaped = |own: &RunShape| RunShape {
        packets: packets.unwrap_or(own.packets),
        ..shape.clone()
    };
    engine_spec.shape = shaped(&engine_spec.shape);
    engine_spec.rate_mpps = rate;
    control_spec.shape = shaped(&control_spec.shape);
    serve_spec.shape = shaped(&serve_spec.shape);
    serve_spec.rate_mpps = if flat_out {
        None
    } else {
        rate.or(serve_spec.rate_mpps)
    };
    // The one post-run path of the wall-clock drivers: print the table,
    // write the requested artifacts and apply the black-box rule — an
    // anomalous run (one stderr line per reason) dumps its flight
    // recorder unconditionally, so the evidence survives even when
    // nobody asked for it.
    let post_run = |name: &str,
                    table: &Table,
                    engine: &Engine,
                    bench: &dyn Fn() -> String,
                    anomalies: &[String]| {
        print_table(table, json);
        if let Some(path) = &bench_out {
            write_file(path, &bench());
            eprintln!("repro: {name} bench report written to {path}");
        }
        if let Some(path) = &flight_out {
            write_file(path, &engine.flight().to_json());
            eprintln!("repro: flight recorder written to {path}");
        }
        for line in anomalies {
            eprintln!("repro: {line}");
        }
        if !anomalies.is_empty() {
            write_file("FLIGHT_anomaly.json", &engine.flight().to_json());
            eprintln!("repro: anomaly flight dump written to FLIGHT_anomaly.json");
        }
    };

    if wants("engine") {
        let (table, report, engine) =
            engine_run_full(&ctx, &engine_spec).unwrap_or_else(|e| die(&e));
        // Flat-out runs apply backpressure instead of dropping, so any
        // drop there is as anomalous as a conservation failure.
        let unexpected_drops = engine_spec.rate_mpps.is_none()
            && report.ingest_dropped() + report.shed() + report.steer_dropped() > 0;
        let mut anomalies = Vec::new();
        if !report.conserved() || unexpected_drops {
            anomalies.push(format!(
                "anomalous engine run (conserved={}, ingest_dropped={}, shed={}, \
                 steer_dropped={})",
                report.conserved(),
                report.ingest_dropped(),
                report.shed(),
                report.steer_dropped(),
            ));
        }
        let bench = || bench_json(&engine_spec, &report);
        post_run("engine", &table, &engine, &bench, &anomalies);
        if let Some(path) = &summary_out {
            write_file(path, &report.deterministic_summary());
            eprintln!("repro: deterministic summary written to {path}");
        }
        ran += 1;
    }
    if wants("control") {
        let (table, outcome, engine) =
            control_run_full(&ctx, &control_spec).unwrap_or_else(|e| die(&e));
        let mut anomalies = Vec::new();
        if !outcome.controlled.conserved() || !outcome.baseline.conserved() {
            anomalies.push(conservation_line("controlled", &outcome.controlled));
            anomalies.push(conservation_line("baseline", &outcome.baseline));
        }
        let bench = || control_bench_json(&control_spec, &outcome);
        post_run("control", &table, &engine, &bench, &anomalies);
        ran += 1;
    }
    if wants("serve") || wants("soak") {
        let (table, outcome, engine) =
            serve_run_full(&ctx, &serve_spec).unwrap_or_else(|e| die(&e));
        // The endurance gate: conservation every segment, lane buffers
        // within the mesh's count, RSS growth inside the slack budget. `soak`
        // fails the process on a violation; `serve` reports it (and
        // both leave the flight-recorder evidence behind).
        let violations: Vec<String> = outcome
            .violations(RSS_SLACK_BYTES)
            .iter()
            .map(|v| format!("soak violation: {v}"))
            .collect();
        let bench = || serve_bench_json(&serve_spec, &outcome);
        post_run("serve", &table, &engine, &bench, &violations);
        if wants("soak") {
            if !violations.is_empty() {
                std::process::exit(1);
            }
            eprintln!(
                "repro: soak clean — {} segment(s) conserved, final-segment pool growth {}, \
                 RSS {:+} bytes",
                outcome.segments.len(),
                outcome.steady_pool_growth(),
                outcome.rss_growth_bytes(),
            );
        }
        ran += 1;
    }
    for (id, f) in &experiments {
        if run_all || selected.iter().any(|s| s == id) {
            print_table(&f(&ctx), json);
            ran += 1;
        }
    }
    if ran == 0 {
        die(&format!(
            "no experiment matched {selected:?}; try `repro list`"
        ));
    }
    if let Some(path) = metrics_json {
        write_file(&path, &ctx.registry.snapshot().to_json());
        eprintln!("repro: metrics written to {path}");
    }
    if let Some(path) = trace_out {
        write_file(&path, &ctx.tracer.to_chrome_json());
        eprintln!(
            "repro: trace written to {path} (open in chrome://tracing or Perfetto; \
             {} spans dropped at full rings)",
            ctx.tracer.total_dropped()
        );
    } else if ctx.tracer.total_dropped() > 0 {
        eprintln!(
            "repro: tracer dropped {} spans at full rings (no --trace-out given)",
            ctx.tracer.total_dropped()
        );
    }
}

fn print_table(table: &Table, json: bool) {
    if json {
        println!("{}", table.to_json());
    } else {
        println!("{}", table.render());
    }
}

fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        die(&format!("writing {path}: {e}"));
    }
}

/// One line of conservation evidence for an anomalous run.
fn conservation_line(name: &str, r: &EngineReport) -> String {
    format!(
        "{name} run conserved={} (offered={}, processed={}, ingest_dropped={}, \
         shed={}, steer_dropped={})",
        r.conserved(),
        r.offered,
        r.processed(),
        r.ingest_dropped(),
        r.shed(),
        r.steer_dropped(),
    )
}

/// The flags read by exactly `readers`, as one wrapped synopsis line:
/// `  engine/serve|soak: [--rate MPPS]`.
fn synopsis(readers: u8) -> String {
    const INDENT: &str = "\n        ";
    let mut out = format!("  {}:", readers_label(readers));
    let mut col = out.len();
    for (name, arg, _) in FLAGS.iter().filter(|(.., mask)| *mask == readers) {
        let sep = if arg.is_empty() { "" } else { " " };
        let token = format!(" [{name}{sep}{arg}]");
        if col + token.len() > 76 {
            out.push_str(INDENT);
            col = INDENT.len() - 1;
        }
        col += token.len();
        out.push_str(&token);
    }
    out + "\n"
}

/// The help text. The synopsis is rendered from [`FLAGS`] (one line per
/// set of readers; the table keeps equal sets adjacent); the `(readers)`
/// tag of each flag paragraph below is checked against the table by
/// `usage_agrees_with_the_flag_table`.
fn usage() -> String {
    let mut out = "repro — regenerate the SmartWatch paper's tables and figures

usage: repro <experiment…|all|list|engine|control|serve|soak>… [flags]

flags, under the selections that read them — a flag none of the selected
drivers reads is refused (`experiments` = everything `repro list` shows):
"
    .to_string();
    let mut readers: Vec<u8> = FLAGS.iter().map(|(.., mask)| *mask).collect();
    readers.dedup();
    for mask in readers {
        out += &synopsis(mask);
    }
    out + "
  --json          (all) print tables as JSON instead of aligned text
  --metrics-json  (all) dump every counter/gauge/histogram the selected
                  experiments registered (deterministic for a seed)
  --trace-out     (all) dump the event trace in chrome-trace format
                  (load in chrome://tracing or ui.perfetto.dev);
                  with a wall-clock driver and --trace-sample it
                  also carries the wall-clock thread spans
  --source        (engine/control/serve|soak) what is ingested:
                  `synthetic` (default) replays pre-built Packet
                  structs; `compiled` serialises the workload once
                  into packed wire frames and parses + digests the
                  header bytes in place (the zero-copy data plane);
                  `pcap:<path>` replays a capture file through the
                  same wire path, cycled to --packets
  --bench-json    (engine/control/serve|soak) write the headline
                  wall-clock numbers as JSON (control adds the mode
                  timeline and the per-epoch controller decision audit;
                  engine adds the flowcache hit-mix/probe section;
                  serve|soak write the per-segment timeline)
  --summary-out   (engine) write the byte-stable deterministic
                  summary (exact counters, no wall-clock values)
                  — what CI diffs against its committed golden
  --datapath      (engine/control/serve|soak) thread topology:
                  `pipeline` (default) runs one dispatcher feeding N
                  shards over SPSC lanes; `rtc` fuses dispatcher and
                  shard into N run-to-completion cores, each with its
                  own ingest (zero queue crossings, identical
                  decisions)
  --trace-sample  (engine/control/serve|soak) with --trace-out, time 1
                  unit of work in N per engine thread (an ingest block
                  and the batches it makes, an epoch)
                  and write those readings as spans (0 = no spans; the
                  stage histograms sample 1 in 16 without a tracer)
  --listen        (engine/control/serve|soak) serve /metrics,
                  /stats.json and /flight.json live during the run
                  (e.g. 127.0.0.1:9184; port 0 = ephemeral); serve|soak
                  add the POST /admin/* control surface
  --serve-hold-ms (engine/control/serve|soak) keep --listen endpoints
                  up this long after the run ends
  --flight-dump   (engine/control/serve|soak) write the flight recorder
                  (per-thread black-box event rings) as JSON;
                  anomalous runs auto-dump FLIGHT_anomaly.json
  --rate          (engine/serve|soak) open-loop offered rate in Mpps
                  (engine: flat-out unless given; serve|soak: 1.0
                  unless given, --flat-out for none)

`repro engine` runs the sharded wall-clock runtime (OS threads,
measured Mpps — machine-dependent, unlike every other experiment).
Default: 2 shards, 200k packets, flat-out, 64B stress
workload. `--datapath rtc` replaces the dispatcher and its
lanes with N fused run-to-completion cores, each ingesting its
own flows (the multi-queue NIC model).
control, serve and soak build their engine, replay input, --listen
socket and signal handling from the same flags.

`repro control` replays one overload spike twice — with the
adaptive control plane (Alg. 4 mode switching, steering
snapshots, load shedding) and without — and reports both
(400k packets unless --packets says otherwise).
`repro control-sim` is its deterministic virtual-time sibling.

`repro serve` keeps one engine resident and replays the
workload in --segments drain/restart segments; --listen mounts
the POST /admin/* control socket next to the read-only
endpoints — the one way to edit the running engine — and
--segment-ms drains any over-long segment gracefully. The
controller is resident: a pin (/admin/mode, /admin/shed) stands
across segments until released; a steering-table edit
(/admin/steer) lasts for the segment that applied it.
`repro soak` is the endurance gate: the same loop, but
conservation / flat pool-allocation / bounded RSS (64 MiB of
growth) violations fail the process and auto-dump
FLIGHT_anomaly.json. SIGINT/SIGTERM drain any
runtime driver gracefully — the summary still conserves.

Experiments map 1:1 to the paper's evaluation (see DESIGN.md §3
and EXPERIMENTS.md for the paper-vs-measured record).
"
}

/// The value of `flag`, which must parse and pass `ok`, or exit 2
/// saying what the flag needs.
fn parse<T: std::str::FromStr>(v: &str, flag: &str, what: &str, ok: impl Fn(&T) -> bool) -> T {
    match v.parse() {
        Ok(x) if ok(&x) => x,
        _ => die(&format!("{flag} needs {what}, got {v:?}")),
    }
}

fn positive(v: &str, flag: &str) -> usize {
    parse(v, flag, "an integer ≥ 1", |n| *n >= 1)
}

fn natural<T: std::str::FromStr>(v: &str, flag: &str) -> T {
    parse(v, flag, "an integer ≥ 0", |_| true)
}

fn mpps(v: &str, flag: &str) -> f64 {
    parse(v, flag, "a positive, finite Mpps value", |r: &f64| {
        r.is_finite() && *r > 0.0
    })
}

fn fraction(v: &str, flag: &str) -> f64 {
    parse(v, flag, "a fraction in [0, 1]", |f| (0.0..=1.0).contains(f))
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `usage()` lists every flag of the table under exactly its
    /// readers, and each flag paragraph's `(readers)` tag is the
    /// table's.
    #[test]
    fn usage_agrees_with_the_flag_table() {
        let text = usage();
        let sections: Vec<&str> = text.split("\n\n").collect();
        let (synopsis, paragraphs) = (sections[2], sections[3]);

        // "  <readers>: [--flag ARG] …", continuation lines indented.
        let mut listed: Vec<(String, String)> = Vec::new();
        let mut readers = String::new();
        for line in synopsis.lines().filter(|l| l.starts_with("  ")) {
            if !line.starts_with("   ") {
                readers = line.trim_start().split(':').next().unwrap().to_string();
            }
            for token in line.split('[').skip(1) {
                let name = token.split([' ', ']']).next().unwrap();
                listed.push((name.to_string(), readers.clone()));
            }
        }
        let table: Vec<(String, String)> = FLAGS
            .iter()
            .map(|(name, _, mask)| (name.to_string(), readers_label(*mask)))
            .collect();
        assert_eq!(listed, table, "synopsis vs flag table");

        let mut tagged = 0;
        for line in paragraphs.lines() {
            let Some(rest) = line.strip_prefix("  --") else {
                continue;
            };
            let name = format!("--{}", rest.split(' ').next().unwrap());
            let tag = rest
                .split_once('(')
                .and_then(|(_, r)| r.split_once(')'))
                .map(|(tag, _)| tag)
                .unwrap_or_else(|| panic!("{name} paragraph carries no (readers) tag"));
            let row = FLAGS
                .iter()
                .find(|f| f.0 == name)
                .unwrap_or_else(|| panic!("usage() documents {name}, the table has no such flag"));
            assert_eq!(
                tag,
                readers_label(row.2),
                "{name} paragraph names its readers"
            );
            tagged += 1;
        }
        assert!(tagged >= 10, "the flag paragraphs were found: {tagged}");
    }
}
