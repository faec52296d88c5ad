"""Check DESIGN.md's fork ledger against the tree.

The ledger is the table between the `fork-ledger:begin` / `fork-ledger:end`
markers, each row citing what pays for it in backticks in its last column:

- one row per surviving fork;
- one per field of `EngineConfig`, `ControlConfig` and `ServeSpec`;
- one `flag` row per entry of `repro`'s `FLAGS` table;
- one `route` row per `Route::get` / `Route::on` path of the HTTP plane.

This fails when

- a row cites no payer, or a payer that is neither `fn <name>` in a Rust
  file of the tree, nor a workload name in BENCHMARK.json, nor the `name:`
  of a step in the CI workflow (a renamed test or step must take its
  ledger row along);
- a field, flag or route has no row, or a row names one the tree no
  longer has.

usage: python3 ci/fork_ledger.py   (from the repository root)
"""
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STRUCTS = {
    "EngineConfig": "crates/runtime/src/engine/config.rs",
    "ControlConfig": "crates/control/src/controller.rs",
    "ServeSpec": "crates/bench/src/exp_serve.rs",
}
FLAGS = "crates/bench/src/bin/repro.rs"
ROUTES = "crates/bench/src/serve.rs"
WORKFLOW = ".github/workflows/ci.yml"


def ledger_rows():
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("<!-- fork-ledger:begin -->")[1].split("<!-- fork-ledger:end -->")[0]
    rows = []
    for line in block.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or cells[0] in ("kind", "") or set(cells[0]) <= set("-"):
            continue
        rows.append(cells)
    return rows


def struct_fields(name, path):
    src = (ROOT / path).read_text()
    body = src.split(f"pub struct {name} {{")[1].split("\n}")[0]
    return re.findall(r"^    pub (\w+):", body, re.M)


def flags():
    src = (ROOT / FLAGS).read_text()
    table = src.split("const FLAGS: &[Flag] = &[")[1].split("\n];")[0]
    return re.findall(r'^\s*\("(--[\w-]+)",', table, re.M)


def routes():
    return re.findall(r'Route::(?:get|on)\(\s*"([^"]+)"', (ROOT / ROUTES).read_text())


def ci_steps():
    names = re.findall(r"^\s*- name: (.+)$", (ROOT / WORKFLOW).read_text(), re.M)
    return {name.strip().strip("'\"") for name in names}


def defined_fns():
    names = set()
    for path in ROOT.rglob("*.rs"):
        if "target" in path.relative_to(ROOT).parts:
            continue
        names.update(re.findall(r"\bfn\s+(\w+)", path.read_text()))
    return names


def check_rowed(kind, have, rows, where, errors):
    rowed = [subject.strip("`") for k, subject, _, _ in rows if k == kind]
    for item in have:
        if item not in rowed:
            errors.append(f"{kind} {item} has no ledger row")
    for item in rowed:
        if item not in have:
            errors.append(f"ledger row {kind} {item} names nothing in {where}")
    print(f"{kind}: {len(have)} in the tree, {len(rowed)} ledger rows")


def main():
    rows = ledger_rows()
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    payers = workloads | defined_fns() | ci_steps()
    errors = []
    for kind, subject, _, paid_by in rows:
        cited = re.findall(r"`([^`]+)`", paid_by)
        if not cited:
            errors.append(f"{kind} {subject}: no payer")
        for payer in cited:
            if payer not in payers:
                errors.append(f"{kind} {subject}: payer `{payer}` is neither a fn, a workload nor a CI step")
    for name, path in STRUCTS.items():
        check_rowed(name, struct_fields(name, path), rows, path, errors)
    check_rowed("flag", flags(), rows, FLAGS, errors)
    check_rowed("route", routes(), rows, ROUTES, errors)
    forks = sum(1 for row in rows if row[0] == "fork")
    print(f"{forks} fork rows, {len(rows)} rows in all")
    for e in errors:
        print(f"fork ledger: {e}", file=sys.stderr)
    sys.exit(1 if errors else 0)


main()
