"""Shape rules of the tree that no type holds, checked as text.

Every other shape rule is a type, a clippy lint, a test or a
`ci/fork_ledger.py` rule (DESIGN.md "The ledger"). What is left reads the
non-test code of a file: the part above its first top-level
`#[cfg(test)]`, comments stripped.

- no-handle: no crate but `telemetry` defines a `detached` handle, and
  the platform is the one component with an `attach_telemetry`. (That
  the FlowCache and its rings name no metric handle or shared cell is
  clippy's `disallowed_types`, denied in those two modules by
  `crates/snic/clippy.toml`.)
- rides-digest: the four users of `snic::FlowTable` name no std table
  keyed by `FlowKey` and re-canonicalise or re-hash no key.
- ops-gates: the suite runs its DNS and worm detectors only inside the
  gate that counts their `ops`.

`--self-test` applies each rule's mutants to a copy of `crates/` and
fails unless the rule rejects every one of them.

usage: python3 ci/shape.py [--self-test]   (from the repository root)
"""
import pathlib
import re
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMENT = re.compile(r'r(#*)".*?"\1|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'|//[^\n]*|/\*.*?\*/', re.S)
DIGEST_USERS = ("crates/core/src/suite.rs", "crates/detect/src/portscan.rs",
                "crates/detect/src/rst.rs", "crates/host/src/conn.rs")
SHARD = "crates/runtime/src/shard.rs"


def code(root, path):
    text = (root / path).read_text()
    text = text[: m.start()] if (m := re.search(r"^#\[cfg\(test\)\]", text, re.M)) else text
    return COMMENT.sub(lambda m: "" if m.group(0).startswith("/") else m.group(0), text)


def no_handle(root):
    errors = []
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        rel = path.relative_to(root).as_posix()
        for name in re.findall(r"\bfn (detached|attach_telemetry)\b", code(root, rel)):
            if name == "detached" and not rel.startswith("crates/telemetry/") or \
                    name == "attach_telemetry" and rel != "crates/core/src/platform.rs":
                errors.append(f"{rel}: fn {name}")
    return errors


def rides_digest(root):
    bad = r"HashMap<FlowKey|HashSet<FlowKey|\.canonical\(\)|hash_directed|hash_symmetric|digest_symmetric"
    return [f"{f}: {m.group(0)}" for f in DIGEST_USERS for m in re.finditer(bad, code(root, f))]


def ops_gates(root):
    src = code(root, "crates/core/src/suite.rs")
    gated = r"\n( *)if [^\n]*\{{\n\1    self\.ops\.{0} \+= 1;\n\1    [^\n]*self\.{0}\.on_packet\("
    return [f"suite.rs: self.{d}.on_packet outside its ops gate" for d in ("dns", "worm")
            if not re.search(gated.format(d), src) or src.count(f"self.{d}.on_packet(") != 1]


# rule -> mutants: (file, text in it, what the mutant puts in its place)
RULES = {
    no_handle: [
        (SHARD, "impl ShardCounters {", "impl ShardCounters {\n    fn detached() -> Self { todo!() }"),
        ("crates/host/src/conn.rs", "    pub fn digest(",
         "    pub fn attach_telemetry(&mut self) {}\n\n    pub fn digest("),
    ],
    rides_digest: [
        ("crates/host/src/conn.rs", "use smartwatch_snic::{FlowTable, Keyed};",
         "use smartwatch_snic::{FlowTable, Keyed};\ntype Conns = std::collections::HashMap<FlowKey, ConnRecord>;"),
        ("crates/detect/src/portscan.rs", "        let event = self.conns.process_digested(pkt, flow);",
         "        let event = self.conns.process(&Packet { key: pkt.key.canonical().0, ..*pkt });"),
        ("crates/detect/src/rst.rs", "        let flow = self.hasher.flow_digest(&pkt.key);",
         "        let flow = self.hasher.flow_digest(&pkt.key);\n        let _ = self.hasher.hash_symmetric(&pkt.key);"),
        ("crates/core/src/suite.rs", "        self.ops.total += 1;",
         "        self.ops.total += 1;\n        let _ = self.hasher.digest_symmetric(&pkt.key);"),
    ],
    ops_gates: [
        ("crates/core/src/suite.rs", f"            self.ops.{d} += 1;\n            out.alerts.extend(self.{d}.on_packet(pkt));\n        }}",
         f"            self.ops.{d} += 1;\n        }}\n        out.alerts.extend(self.{d}.on_packet(pkt));")
        for d in ("dns", "worm")
    ],
}


def check(root):
    failed = False
    for rule in RULES:
        errors = rule(root)
        failed |= bool(errors)
        for e in errors:
            print(f"shape {rule.__name__}: {e}", file=sys.stderr)
    return not failed


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        shutil.copytree(ROOT / "crates", root / "crates", ignore=shutil.ignore_patterns("target"))
        for rule, mutants in RULES.items():
            if rule(root):
                failures.append(f"{rule.__name__} fails the tree itself")
            for path, old, new in mutants:
                file = root / path
                original = file.read_text()
                if original.count(old) != 1:
                    failures.append(f"{rule.__name__}: mutant anchor not found once in {path}: {old!r}")
                    continue
                file.write_text(original.replace(old, new))
                if not rule(root):
                    failures.append(f"{rule.__name__} passes a mutant of {path}: {new!r}")
                file.write_text(original)
    for f in failures:
        print(f"shape self-test: {f}", file=sys.stderr)
    print(f"shape self-test: {sum(map(len, RULES.values()))} mutants, {len(failures)} not rejected")
    return not failures


ok = self_test() if sys.argv[1:] == ["--self-test"] else check(ROOT)
print(f"shape: {len(RULES)} rules, {'ok' if ok else 'FAILED'}")
sys.exit(0 if ok else 1)
