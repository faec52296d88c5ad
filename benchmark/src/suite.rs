//! `swbench all` — every workload, each in its own child process, merged
//! into `results.json` — and `swbench compare` over two such files.

use crate::catalogue::{self, Better, END_TO_END};
use crate::workload::WORKLOADS;
use serde_json::{Number, Value};
use std::path::Path;
use std::process::Command;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> Value {
    Value::Number(Number::F(v))
}

/// Options of `swbench all`.
pub struct AllOpts {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: std::path::PathBuf,
}

/// Run one mode of one workload in a child process and return the
/// report it wrote. The child's own output passes through.
fn child(name: &str, trace: bool, opts: &AllOpts) -> Result<Value, String> {
    let report = opts.out.join(format!(
        "report_{name}_{}.json",
        if trace { "layers" } else { "e2e" }
    ));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out)
        .arg("--report")
        .arg(&report)
        .status()
        .map_err(|e| format!("cannot start child for {name}: {e}"))?;
    let text = std::fs::read_to_string(&report)
        .map_err(|e| format!("{name}: no report at {} ({status}): {e}", report.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{name}: bad report: {e}"))
}

/// Run every workload (end-to-end run, then traced run), print the
/// merged table, write `results.json`. `Ok(true)` when every check of
/// every workload passed.
pub fn all(opts: &AllOpts) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    let mut workloads = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        println!("== {} — {}", w.name, w.why);
        let e2e = child(w.name, false, opts)?;
        let layers = child(w.name, true, opts)?;
        let count = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        let attempted = count(&e2e, "attempted") + count(&layers, "attempted");
        let failed = count(&e2e, "failed") + count(&layers, "failed");
        let correct = [&e2e, &layers]
            .iter()
            .all(|v| v.get("correct").and_then(Value::as_bool) == Some(true));
        ok &= correct && failed == 0;
        workloads.push((
            w.name.to_string(),
            obj(vec![
                ("correct", Value::Bool(correct)),
                ("attempted", Value::Number(Number::U(attempted))),
                ("failed", Value::Number(Number::U(failed))),
                ("failed_share", num(failed as f64 / attempted.max(1) as f64)),
                (
                    "summary_digest",
                    e2e.get("summary_digest").cloned().unwrap_or(Value::Null),
                ),
                (
                    "end_to_end",
                    e2e.get("metrics").cloned().unwrap_or(Value::Null),
                ),
                (
                    "per_layer",
                    layers.get("metrics").cloned().unwrap_or(Value::Null),
                ),
            ]),
        ));
    }

    // Source- and topology-independence: the same trace as model packets
    // on a fused core and as wire frames through the 2-thread pipeline
    // must produce the same deterministic summary.
    let digest = |name: &str| {
        workloads
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.get("summary_digest").cloned())
    };
    if digest("stress64_rtc") != digest("wire_pipeline") {
        println!("CHECK FAILED: stress64_rtc and wire_pipeline summaries differ");
        ok = false;
    }

    let doc = obj(vec![
        ("quick", Value::Bool(opts.quick)),
        ("seed", Value::Number(Number::U(opts.seed))),
        ("seconds", num(opts.seconds)),
        ("git_sha", Value::String(git_sha())),
        (
            "nproc",
            Value::Number(Number::U(
                std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            )),
        ),
        ("cpu_model", Value::String(cpu_model())),
        ("workloads", Value::Object(workloads)),
    ]);
    let path = opts.out.join("results.json");
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} — {}",
        path.display(),
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// The commit being measured; "unknown" outside a git checkout.
fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// How one end-to-end metric of one workload moved from `a` to `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The sides' own segment spread exceeds the bound: the difference
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the base `a` for a metric with the given direction
/// and bound; `spread` is the larger of the two sides' own spreads.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    // Positive = b is better, as a share of the base.
    let gain = match better {
        Better::Higher => (b - a) / a,
        Better::Lower => (a - b) / a,
    };
    if gain > bound {
        Verdict::Better
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("quick").and_then(Value::as_bool) != Some(false) {
        return Err(format!(
            "{}: a --quick result (or not a results.json) cannot be compared",
            path.display()
        ));
    }
    Ok(doc)
}

/// `swbench compare a.json b.json`: one row per workload × end-to-end
/// metric. `Ok(true)` when nothing got worse and no workload fails more.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    // Run length is set by the benchmark and is the same on both sides.
    if a.get("seconds") != b.get("seconds") {
        return Err("the two results were measured for different run lengths".into());
    }
    let metric = |doc: &Value, w: &str, section: &str, name: &str| {
        doc.get("workloads")?
            .get(w)?
            .get(section)?
            .get(name)?
            .get("value")?
            .as_f64()
    };
    let failed_share = |doc: &Value, w: &str| {
        doc.get("workloads")
            .and_then(|ws| ws.get(w))
            .and_then(|v| v.get("failed_share"))
            .and_then(Value::as_f64)
    };
    println!(
        "{:<15} {:<12} {:>12} {:>12} {:>16} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)", "bound"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric(&a, w.name, "end_to_end", m.name),
                metric(&b, w.name, "end_to_end", m.name),
            ) else {
                return Err(format!("{} {}: missing on one side", w.name, m.name));
            };
            // Only throughput has a spread of its own in the file: the
            // traced run's segment-to-segment quartile distance.
            let spread = if m.name == "mpps" {
                let s = |doc| metric(doc, w.name, "per_layer", "runtime.engine.mpps_iqr_share");
                s(&a).unwrap_or(0.0).max(s(&b).unwrap_or(0.0))
            } else {
                0.0
            };
            let verdict = judge(va, vb, m.better, m.bound, spread);
            ok &= verdict != Verdict::Worse;
            println!(
                "{:<15} {:<12} {:>12.4} {:>12.4} {:>16.4} {:>6.2}  {}",
                w.name,
                m.name,
                va,
                vb,
                vb / va,
                m.bound,
                verdict.as_str()
            );
        }
        let (fa, fb) = (
            failed_share(&a, w.name).unwrap_or(0.0),
            failed_share(&b, w.name).unwrap_or(0.0),
        );
        if fb > fa {
            println!("{:<15} failed_share rose from {fa} to {fb}", w.name);
            ok = false;
        }
    }
    Ok(ok)
}

/// The catalogue rendered as `BENCHMARK.json` (what `swbench manifest`
/// prints and what the committed file must equal).
pub fn manifest() -> Value {
    let metric = |m: &catalogue::Metric, bound: bool| {
        let mut f = vec![
            ("name", Value::String(m.name.into())),
            ("unit", Value::String(m.unit.into())),
            ("better", Value::String(m.better.as_str().into())),
        ];
        if bound {
            f.push(("bound", num(m.bound)));
        }
        obj(f)
    };
    obj(vec![
        (
            "command",
            Value::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Value::String(s.to_string()))
                .collect(),
            ),
        ),
        (
            "paths",
            Value::Array(vec![Value::String("benchmark".into())]),
        ),
        (
            "run_seconds",
            Value::Number(Number::U(catalogue::RUN_SECONDS)),
        ),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj(vec![
                            ("name", Value::String(w.name.into())),
                            ("why", Value::String(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Array(
                catalogue::PER_LAYER
                    .iter()
                    .map(|m| metric(m, false))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_uses_the_bound_in_the_metrics_direction() {
        use Better::{Higher, Lower};
        assert_eq!(judge(4.0, 4.3, Higher, 0.1, 0.02), Verdict::Same);
        assert_eq!(judge(4.0, 4.5, Higher, 0.1, 0.02), Verdict::Better);
        assert_eq!(judge(4.0, 3.5, Higher, 0.1, 0.02), Verdict::Worse);
        assert_eq!(judge(100.0, 115.0, Lower, 0.1, 0.0), Verdict::Worse);
        assert_eq!(judge(100.0, 85.0, Lower, 0.1, 0.0), Verdict::Better);
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(judge(4.0, 3.0, Higher, 0.1, 0.15), Verdict::Unresolved);
    }

    #[test]
    fn committed_manifest_equals_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed: Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(committed, manifest(), "regenerate with `swbench manifest`");
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(catalogue::PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.as_bytes()[0].is_ascii_alphanumeric()
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
            assert!(seen.insert(name), "{name} is declared twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(catalogue::PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
