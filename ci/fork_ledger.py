"""Check DESIGN.md's fork ledger against the tree, and the tree for code
nothing calls.

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
  longer has;
- a `pub` fn, struct, enum, trait, const or type in `crates/*/src` has no
  caller outside tests. The scan reads each file of `crates/*/src`,
  `crates/*/benches`, `examples/`, `benchmark/src` and `src/` above its
  first top-level `#[cfg(test)]`, strips comments, and counts references
  by name, not counting definitions. The one exception is `ORACLES`: an
  item a test in another file uses as its oracle, kept while that test
  fn exists. An item below that `#[cfg(test)]` and not gated by one of
  its own would escape the scan, so it fails too.

usage: python3 ci/fork_ledger.py   (from the repository root)
"""
import collections
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
CODE = ("crates/*/src/**/*.rs", "crates/*/benches/*.rs", "examples/*.rs", "benchmark/src/*.rs", "src/**/*.rs")
# (item, the test fn in another file that uses it as its oracle, why)
ORACLES = [
    ("with_key", "a_minted_population_probes_like_a_random_one", "the flood sweeps fixed slot secrets"),
    ("signatures", "packet_fed_detectors_reset_to_fresh", "reset ≡ fresh compares the worm signature set"),
    ("from_packets_v6", "rtc_is_byte_identical_to_pipeline_on_v6_wire_replay", "the v6 ingest path's input"),
]
LITERAL = re.compile(r'r(#*)".*?"\1|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'|//[^\n]*|/\*.*?\*/', re.S)
PUB_ITEM = re.compile(r"\bpub\s+(?:const\s+|unsafe\s+)*(?:fn|struct|enum|trait|const|type)\s+(\w+)")
DEFINITION = re.compile(r"\b(?:fn|struct|enum|trait|const|type|static|mod)\s+(\w+)")


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
    """Each fn name in a Rust file of the tree, with the files defining it."""
    names = collections.defaultdict(set)
    for path in ROOT.rglob("*.rs"):
        if "target" in path.relative_to(ROOT).parts:
            continue
        for name in re.findall(r"\bfn\s+(\w+)", path.read_text()):
            names[name].add(path)
    return names


def split_tests(path):
    """The file above its first top-level `#[cfg(test)]`, comments
    stripped, and the rest of it."""
    text = path.read_text()
    cut = re.search(r"^#\[cfg\(test\)\]", text, re.M)
    code, tests = (text[: cut.start()], text[cut.start() :]) if cut else (text, "")
    return LITERAL.sub(lambda m: "" if m.group(0).startswith("/") else m.group(0), code), tests


def check_callers(fns, errors):
    refs, defs, items = collections.Counter(), collections.Counter(), []
    for path in sorted({p for pattern in CODE for p in ROOT.glob(pattern)}):
        code, tests = split_tests(path)
        refs.update(re.findall(r"\b[A-Za-z_]\w*", code))
        defs.update(DEFINITION.findall(code))
        if re.match(r"crates/[^/]+/src/", path.relative_to(ROOT).as_posix()):
            items += [(path, name) for name in PUB_ITEM.findall(code)]
            if re.search(r"(?<!#\[cfg\(test\)\]\n)^(pub\s|impl\b)", tests, re.M):
                errors.append(f"{path.relative_to(ROOT)}: an item below the first #[cfg(test)] escapes the scan")
    oracles = {item: test for item, test, _ in ORACLES}
    uncalled = [(path, name) for path, name in items if refs[name] <= defs[name]]
    for path, name in uncalled:
        test = oracles.pop(name, None)
        if test is None:
            errors.append(f"pub {name} in {path.relative_to(ROOT)} has no caller outside tests")
        elif not fns.get(test, set()) - {path}:
            errors.append(f"oracle {name}: test fn `{test}` is not in another file of the tree")
    errors += [f"oracle {name} has a caller or is gone: drop its ORACLES entry" for name in oracles]
    print(f"public items: {len(items)}, {len(uncalled)} without a caller outside tests, {len(ORACLES)} oracles")


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
    fns = defined_fns()
    payers = workloads | set(fns) | ci_steps()
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
    check_callers(fns, errors)
    forks = sum(1 for row in rows if row[0] == "fork")
    print(f"{forks} fork rows, {len(rows)} rows in all")
    for e in errors:
        print(f"fork ledger: {e}", file=sys.stderr)
    sys.exit(1 if errors else 0)


main()
