"""Check DESIGN.md's fork ledger against the tree.

The ledger is the table between the `fork-ledger:begin` / `fork-ledger:end`
markers: one row per surviving fork and one per field of `EngineConfig` and
`ControlConfig`, each citing what pays for it in backticks in its last
column. This fails when

- a row cites no payer, or a payer that is neither `fn <name>` in a Rust
  file of the tree nor a workload name in BENCHMARK.json (a renamed test
  must take its ledger row along);
- a field of either struct has no row, or a row names a field the struct
  no longer has.

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
}


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


def defined_fns():
    names = set()
    for path in ROOT.rglob("*.rs"):
        if "target" in path.relative_to(ROOT).parts:
            continue
        names.update(re.findall(r"\bfn\s+(\w+)", path.read_text()))
    return names


def main():
    rows = ledger_rows()
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    fns = defined_fns()
    errors = []
    for kind, subject, _, paid_by in rows:
        payers = re.findall(r"`([^`]+)`", paid_by)
        if not payers:
            errors.append(f"{kind} {subject}: no payer")
        for payer in payers:
            if payer not in workloads and payer not in fns:
                errors.append(f"{kind} {subject}: payer `{payer}` is neither a fn nor a workload")
    for name, path in STRUCTS.items():
        fields = struct_fields(name, path)
        rowed = [subject.strip("`") for kind, subject, _, _ in rows if kind == name]
        for field in fields:
            if field not in rowed:
                errors.append(f"{name}::{field} has no ledger row")
        for field in rowed:
            if field not in fields:
                errors.append(f"ledger row {name}::{field} names no field of {path}")
        print(f"{name}: {len(fields)} fields, {len(rowed)} ledger rows")
    forks = sum(1 for row in rows if row[0] == "fork")
    print(f"{forks} fork rows, {len(rows)} rows in all")
    for e in errors:
        print(f"fork ledger: {e}", file=sys.stderr)
    sys.exit(1 if errors else 0)


main()
