//! The paper's evaluation tables against the committed golden.
//!
//! `ci/golden_repro_all.json` is what `repro all --json` prints: every
//! table of the evaluation, in `all_experiments()` order, each one
//! pretty-printed JSON object closed by a `}` line. This test renders
//! each table in-process and compares it byte for byte with its entry,
//! so a moved paper cell fails `cargo test`. Every table is in, Fig. 8c
//! too: its slowest row replays a scan over ≈17 500 one-second
//! intervals, nearly all of them idle, and an idle interval skips the
//! FlowCache row scan and the top-k pass that cannot change.

use smartwatch_bench::{all_experiments, ExpCtx};

#[test]
fn every_fast_paper_table_matches_the_committed_golden() {
    let golden = include_str!("../ci/golden_repro_all.json");
    let entries: Vec<&str> = golden.split_inclusive("\n}\n").collect();
    let experiments = all_experiments();
    assert_eq!(
        entries.len(),
        experiments.len(),
        "one golden entry per experiment"
    );
    let ctx = ExpCtx::new(1);
    let mut moved = Vec::new();
    for ((id, run), want) in experiments.into_iter().zip(entries) {
        let got = run(&ctx).to_json() + "\n";
        if got != want {
            moved.push(id);
        }
    }
    assert!(
        moved.is_empty(),
        "tables differ from ci/golden_repro_all.json: {moved:?} \
         (`repro <id> --json` shows the new table)"
    );
}
