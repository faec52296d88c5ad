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
  by name, not counting definitions, `pub use` re-exports, or a type's
  name inside its own `impl` blocks. The one exception is `ORACLES`: an
  item a test in another file uses as its oracle, kept while that test
  fn exists. An item below that `#[cfg(test)]` and not gated by one of
  its own would escape the scan, so it fails too. This rule holds `pub`
  items only: rustc's `dead_code` lint (denied by CI's clippy step)
  holds every `pub(crate)` one, exactly;
- a `[dependencies]` / `[dev-dependencies]` entry of the root or a
  `crates/*` manifest is named (`-` read as `_`) in none of that
  package's `src/`, `tests/`, `benches/` or `examples/` files, comments
  stripped, or is an edge `FORBIDDEN` rules out.

`--self-test` applies each of `MUTANTS` to a copy of the tree and fails
unless the check rejects every one of them with the error it names.

usage: python3 ci/fork_ledger.py [--self-test]   (from the repository root)
"""
import collections
import json
import pathlib
import re
import shutil
import sys
import tempfile

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
    ("walk_shards", "every_burst_width_decides_what_the_oracle_decides", "the engine's per-packet oracle"),
    ("QUANTILE_ERROR_BOUND", "quantiles_within_relative_error", "the histogram's documented error bound"),
]
# package -> a dependency it must not have: a simulated component keeps
# plain books, and its owner publishes them
FORBIDDEN = {"p4sim": "smartwatch-telemetry", "host": "smartwatch-telemetry", "control": "smartwatch-telemetry"}
LITERAL = re.compile(r'r(#*)".*?"\1|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'|//[^\n]*|/\*.*?\*/', re.S)
PUB_ITEM = re.compile(r"\bpub\s+(?:const\s+|unsafe\s+)*(?:fn|struct|enum|trait|const|type)\s+(\w+)")
DEFINITION = re.compile(r"\b(?:fn|struct|enum|trait|const|type|static|mod)\s+(\w+)")
IMPL = re.compile(r"^[ \t]*(?:unsafe\s+)?impl\b", re.M)
# name -> [(file, text in it, what the mutant puts in its place)], and a
# text the check's errors must then contain
MUTANTS = {
    "an uncalled pub fn": (
        [("crates/sketch/src/bloom.rs", "impl BloomFilter {",
          "pub fn never_called_anywhere() {}\n\nimpl BloomFilter {")],
        "pub never_called_anywhere in crates/sketch/src/bloom.rs has no caller",
    ),
    "a pub struct named only by its own impl": (
        [("crates/sketch/src/bloom.rs", "impl BloomFilter {",
          "pub struct Lonely;\n\nimpl Lonely {\n    pub fn new() -> Self {\n        Self\n    }\n}\n\n"
          "impl BloomFilter {")],
        "pub Lonely in crates/sketch/src/bloom.rs has no caller",
    ),
    "an EngineConfig field with no ledger row": (
        [("crates/runtime/src/engine/config.rs", "    pub shards: usize,",
          "    pub shards: usize,\n    /// A knob.\n    pub unrowed_knob: u32,")],
        "EngineConfig unrowed_knob has no ledger row",
    ),
    "a FORBIDDEN dependency edge": (
        [("crates/host/Cargo.toml", "[dependencies]\n",
          "[dependencies]\nsmartwatch-telemetry.workspace = true\n"),
         ("crates/host/src/lib.rs", "pub mod aggregate;", "use smartwatch_telemetry as _;\npub mod aggregate;")],
        "smartwatch-telemetry is forbidden",
    ),
}


def ledger_rows(root):
    text = (root / "DESIGN.md").read_text()
    block = text.split("<!-- fork-ledger:begin -->")[1].split("<!-- fork-ledger:end -->")[0]
    rows = []
    for line in block.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or cells[0] in ("kind", "") or set(cells[0]) <= set("-"):
            continue
        rows.append(cells)
    return rows


def struct_fields(root, name, path):
    src = (root / path).read_text()
    body = src.split(f"pub struct {name} {{")[1].split("\n}")[0]
    return re.findall(r"^    pub (\w+):", body, re.M)


def flags(root):
    src = (root / FLAGS).read_text()
    table = src.split("const FLAGS: &[Flag] = &[")[1].split("\n];")[0]
    return re.findall(r'^\s*\("(--[\w-]+)",', table, re.M)


def routes(root):
    return re.findall(r'Route::(?:get|on)\(\s*"([^"]+)"', (root / ROUTES).read_text())


def ci_steps(root):
    names = re.findall(r"^\s*- name: (.+)$", (root / WORKFLOW).read_text(), re.M)
    return {name.strip().strip("'\"") for name in names}


def defined_fns(root):
    """Each fn name in a Rust file of the tree, with the files defining it."""
    names = collections.defaultdict(set)
    for path in root.rglob("*.rs"):
        if "target" in path.relative_to(root).parts:
            continue
        for name in re.findall(r"\bfn\s+(\w+)", path.read_text()):
            names[name].add(path)
    return names


def strip_comments(code):
    return LITERAL.sub(lambda m: "" if m.group(0).startswith("/") else m.group(0), code)


def split_tests(path):
    """The file above its first top-level `#[cfg(test)]`, comments
    stripped, and the rest of it."""
    text = path.read_text()
    cut = re.search(r"^#\[cfg\(test\)\]", text, re.M)
    code, tests = (text[: cut.start()], text[cut.start() :]) if cut else (text, "")
    return strip_comments(code), tests


def own_impls(code):
    """(name, text) of each `impl` item of `code`, header and body: the
    implemented type's name, and the trait's for a trait impl. Literals
    are blanked to find the braces."""
    bare = LITERAL.sub(lambda m: " " * len(m.group(0)), code)
    out = []
    for m in IMPL.finditer(bare):
        i = bare.index("{", m.end())
        header = re.split(r"\bwhere\b", bare[m.end() : i])[0]
        header = re.sub(r"^\s*<.*?>(?=\s*[\w(&])", "", header, flags=re.S)
        depth = 0
        while True:
            depth += {"{": 1, "}": -1}.get(bare[i], 0)
            i += 1
            if depth == 0:
                break
        for part in header.split(" for "):
            out += [(name, code[m.start() : i]) for name in re.findall(r"\w+", part.split("<")[0])[-1:]]
    return out


def check_callers(root, fns, errors):
    refs, defs, items = collections.Counter(), collections.Counter(), []
    for path in sorted({p for pattern in CODE for p in root.glob(pattern)}):
        code, tests = split_tests(path)
        refs.update(re.findall(r"\b[A-Za-z_]\w*", re.sub(r"\bpub use [^;]*;", "", code)))
        defs.update(DEFINITION.findall(code))
        for name, text in own_impls(code):
            refs[name] -= len(re.findall(rf"\b{name}\b", text))
        if re.match(r"crates/[^/]+/src/", path.relative_to(root).as_posix()):
            items += [(path, name) for name in PUB_ITEM.findall(code)]
            if re.search(r"(?<!#\[cfg\(test\)\]\n)^(pub\s|impl\b)", tests, re.M):
                errors.append(f"{path.relative_to(root)}: an item below the first #[cfg(test)] escapes the scan")
    oracles = {item: test for item, test, _ in ORACLES}
    uncalled = [(path, name) for path, name in items if refs[name] <= defs[name]]
    for path, name in uncalled:
        test = oracles.pop(name, None)
        if test is None:
            errors.append(f"pub {name} in {path.relative_to(root)} has no caller outside tests")
        elif not fns.get(test, set()) - {path}:
            errors.append(f"oracle {name}: test fn `{test}` is not in another file of the tree")
    errors += [f"oracle {name} has a caller or is gone: drop its ORACLES entry" for name in oracles]
    print(f"public items: {len(items)}, {len(uncalled)} without a caller outside tests, {len(ORACLES)} oracles")


def check_dependencies(root, errors):
    edges = 0
    for manifest in [root / "Cargo.toml", *sorted(root.glob("crates/*/Cargo.toml"))]:
        package = manifest.parent
        names = set()
        for d in ("src", "tests", "benches", "examples"):
            for path in (package / d).rglob("*.rs"):
                names.update(re.findall(r"\b[A-Za-z_]\w*", strip_comments(path.read_text())))
        section = None
        for line in manifest.read_text().splitlines():
            if line.startswith("["):
                section = line.strip()
                continue
            dep = re.match(r"([\w-]+)(?:\.workspace)?\s*=", line)
            if section in ("[dependencies]", "[dev-dependencies]") and dep:
                edges += 1
                where = manifest.relative_to(root)
                if dep.group(1).replace("-", "_") not in names:
                    errors.append(f"{where}: {section} {dep.group(1)} is named in no file of the package")
                if FORBIDDEN.get(package.name) == dep.group(1):
                    errors.append(f"{where}: {section} {dep.group(1)} is forbidden (FORBIDDEN)")
    print(f"dependency edges: {edges}")


def check_rowed(kind, have, rows, where, errors):
    rowed = [subject.strip("`") for k, subject, _, _ in rows if k == kind]
    for item in have:
        if item not in rowed:
            errors.append(f"{kind} {item} has no ledger row")
    for item in rowed:
        if item not in have:
            errors.append(f"ledger row {kind} {item} names nothing in {where}")
    print(f"{kind}: {len(have)} in the tree, {len(rowed)} ledger rows")


def check(root):
    """Every error the tree at `root` has."""
    rows = ledger_rows(root)
    workloads = {w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]}
    fns = defined_fns(root)
    payers = workloads | set(fns) | ci_steps(root)
    errors = []
    for kind, subject, _, paid_by in rows:
        cited = re.findall(r"`([^`]+)`", paid_by)
        if not cited:
            errors.append(f"{kind} {subject}: no payer")
        for payer in cited:
            if payer not in payers:
                errors.append(f"{kind} {subject}: payer `{payer}` is neither a fn, a workload nor a CI step")
    for name, path in STRUCTS.items():
        check_rowed(name, struct_fields(root, name, path), rows, path, errors)
    check_rowed("flag", flags(root), rows, FLAGS, errors)
    check_rowed("route", routes(root), rows, ROUTES, errors)
    check_callers(root, fns, errors)
    check_dependencies(root, errors)
    forks = sum(1 for row in rows if row[0] == "fork")
    print(f"{forks} fork rows, {len(rows)} rows in all")
    return errors


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "tree"
        skip = shutil.ignore_patterns("target", ".git", ".bench_build", "out")
        shutil.copytree(ROOT, root, ignore=skip)
        if check(root):
            failures.append("the tree itself fails")
        for name, (edits, expect) in MUTANTS.items():
            originals = {}
            for path, old, new in edits:
                file = root / path
                originals.setdefault(file, file.read_text())
                text = file.read_text()
                if text.count(old) != 1:
                    failures.append(f"{name}: anchor not found once in {path}: {old!r}")
                file.write_text(text.replace(old, new))
            if not any(expect in e for e in check(root)):
                failures.append(f"{name}: not rejected with `{expect}`")
            for file, text in originals.items():
                file.write_text(text)
    for f in failures:
        print(f"fork ledger self-test: {f}", file=sys.stderr)
    print(f"fork ledger self-test: {len(MUTANTS)} mutants, {len(failures)} not rejected")
    return not failures


def main():
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(0 if self_test() else 1)
    errors = check(ROOT)
    for e in errors:
        print(f"fork ledger: {e}", file=sys.stderr)
    sys.exit(1 if errors else 0)


main()
