//! `swbench` — the repository benchmark.
//!
//! ```text
//! swbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what BENCHMARK.json's command invokes)
//! swbench all [--seed n] [--seconds s] [--quick] [--out dir]         every workload, both modes, results.json
//! swbench compare <a.json> <b.json>                                  judge two results.json files
//! swbench manifest                                                   print BENCHMARK.json from the catalogue
//! ```
//!
//! A run prints every metric of its mode by name with its unit, then —
//! as the last line of standard output — one JSON object with exactly
//! the keys `correct`, `attempted`, `failed` and `metrics`. See
//! `benchmark/README.md` for the workload and metric catalogue.

mod alloc;
mod catalogue;
mod probe;
mod run;
mod span;
mod stats;
mod suite;
mod walk;
mod workload;

use serde_json::{Number, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where span files and `results.json` go unless `--out` says otherwise
/// (relative to the working directory, the root of the checkout).
const DEFAULT_OUT: &str = "benchmark/out";
/// Seconds per run under `--quick`.
const QUICK_SECONDS: f64 = 2.0;

/// `--flag value` pairs and bare flags, in order.
struct Flags(Vec<String>);

impl Flags {
    /// Remove `--name <value>` and return the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }

    /// Remove a bare `--name`; true when it was there.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn positive_seconds(s: f64) -> Result<f64, String> {
    if s.is_finite() && s > 0.0 && s <= 600.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be in (0, 600], got {s}"))
    }
}

/// One run of one workload; the contract `BENCHMARK.json` describes.
fn single(mut f: Flags) -> Result<bool, String> {
    let name = f.value("--workload")?.ok_or("--workload is required")?;
    let w = workload::by_name(&name).ok_or_else(|| {
        let known: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed: u64 = f.parsed("--seed")?.unwrap_or(1);
    let seconds = positive_seconds(
        f.parsed("--seconds")?
            .unwrap_or(catalogue::RUN_SECONDS as f64),
    )?;
    let trace = match f.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let out = PathBuf::from(f.value("--out")?.unwrap_or_else(|| DEFAULT_OUT.into()));
    let report = f.value("--report")?.map(PathBuf::from);
    f.finish()?;

    let outcome = run::run(w, seed, seconds, trace, &out);
    println!(
        "{} seed={seed} seconds={seconds} trace={} threads_available={}",
        w.name,
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (m, v) in &outcome.metrics {
        println!("  {:<46} {:>16.6} {}", m.name, v, m.unit);
    }
    println!(
        "  attempted={} failed={} failed_share={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }

    let metrics = Value::Object(
        outcome
            .metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(Number::F(*v))),
                        ("unit".into(), Value::String(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let mut fields = vec![
        ("correct".to_string(), Value::Bool(outcome.correct)),
        (
            "attempted".to_string(),
            Value::Number(Number::U(outcome.attempted)),
        ),
        (
            "failed".to_string(),
            Value::Number(Number::U(outcome.failed)),
        ),
        ("metrics".to_string(), metrics),
    ];
    let line = serde_json::to_string(&Value::Object(fields.clone())).map_err(|e| e.to_string())?;
    if let Some(path) = report {
        fields.push((
            "summary_digest".into(),
            Value::String(format!("{:016x}", outcome.summary_digest)),
        ));
        fields.push((
            "errors".into(),
            Value::Array(outcome.errors.iter().cloned().map(Value::String).collect()),
        ));
        let text =
            serde_json::to_string_pretty(&Value::Object(fields)).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(outcome.correct)
}

fn dispatch(mut args: Vec<String>) -> Result<bool, String> {
    let sub = match args.first() {
        Some(a) if !a.starts_with("--") => args.remove(0),
        _ => return single(Flags(args)),
    };
    let mut f = Flags(args);
    match sub.as_str() {
        "all" => {
            let quick = f.flag("--quick");
            let opts = suite::AllOpts {
                seed: f.parsed("--seed")?.unwrap_or(1),
                seconds: positive_seconds(f.parsed("--seconds")?.unwrap_or(if quick {
                    QUICK_SECONDS
                } else {
                    catalogue::RUN_SECONDS as f64
                }))?,
                quick,
                out: PathBuf::from(f.value("--out")?.unwrap_or_else(|| DEFAULT_OUT.into())),
            };
            f.finish()?;
            suite::all(&opts)
        }
        "compare" => match f.0.as_slice() {
            [a, b] => suite::compare(Path::new(a), Path::new(b)),
            _ => Err("usage: swbench compare <a.json> <b.json>".into()),
        },
        "manifest" => {
            f.finish()?;
            let text =
                serde_json::to_string_pretty(&suite::manifest()).map_err(|e| e.to_string())?;
            println!("{text}");
            Ok(true)
        }
        other => Err(format!(
            "unknown subcommand {other:?}; expected all, compare or manifest"
        )),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("swbench: {e}");
            ExitCode::from(2)
        }
    }
}
