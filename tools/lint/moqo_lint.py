#!/usr/bin/env python3
"""moqo_lint: repo-specific invariant linter (stdlib-only, no clang AST).

Enforces the project contracts the compiler cannot see. Run from anywhere:

    python3 tools/lint/moqo_lint.py            # lint the repo, exit 1 on findings
    python3 tools/lint/moqo_lint.py --write-baseline   # refreeze the enum baseline

Rules (IDs are stable; tests/lint asserts them exactly):

  frozen-enum    net::MsgType / net::ErrorCode / persist::RecordKind and the
                 format-version constants are append-only wire/disk contracts.
                 Every entry in tools/lint/frozen_enums.json must still exist
                 with the same value; new entries may only append (no value
                 reuse). To extend an enum intentionally, add the entry and
                 rerun with --write-baseline, then commit the new baseline.
  raw-encode     Byte encoding goes through util/byte_codec.h (and the
                 persist/format.h record layout) only: outside those
                 files, no reinterpret_cast to byte pointers and no memcpy
                 except the scalar bit-pattern idiom
                 memcpy(&a, &b, sizeof(...)). Genuine exceptions carry
                 `lint:allow raw-encode` on or above the line.
  failpoint-site Every MOQO_FAILPOINT* site name is globally unique and
                 listed in the README failpoint catalog table.
  naked-mutex    All locking in src/ goes through util/mutex.h (Mutex,
                 MutexLock, CondVar) so Thread Safety Analysis sees every
                 lock; std::mutex & friends are banned outside that file.
  nondeterminism rand()/srand()/std::random_device are banned in src/ —
                 randomized behavior must come from seeded generators so
                 runs (and chaos schedules) are reproducible.
  tsa-escape     MOQO_NO_THREAD_SAFETY_ANALYSIS needs a justifying comment
                 containing "TSA:" within the 3 lines above, and the total
                 count across src/ is capped (--max-tsa-escapes).
  layering       Lower layers include nothing from the layers above them:
                 src/persist/ nothing from service/, memo/, net/ or
                 harness/; src/core/ and src/memo/ nothing from service/,
                 net/ or harness/ (the LAYERING table).
"""

import argparse
import json
import os
import re
import sys

# Files whose whole job is byte-level encoding; raw-encode does not apply.
ENCODING_FILES = {"src/util/byte_codec.h", "src/persist/format.h"}
MUTEX_FILE = "src/util/mutex.h"
BASELINE_REL = "tools/lint/frozen_enums.json"
README_REL = "README.md"

# (qualified enum name, file, enum name in that file)
FROZEN_ENUMS = [
    ("net::MsgType", "src/net/wire.h", "MsgType"),
    ("net::ErrorCode", "src/net/wire.h", "ErrorCode"),
    ("persist::RecordKind", "src/persist/format.h", "RecordKind"),
]
# (qualified constant name, file, constant name)
FROZEN_CONSTANTS = [
    ("net::kMagic", "src/net/wire.h", "kMagic"),
    ("net::kProtocolVersion", "src/net/wire.h", "kProtocolVersion"),
    ("persist::kFormatVersion", "src/persist/format.h", "kFormatVersion"),
]

ENUM_RE = re.compile(r"enum\s+class\s+(\w+)\s*(?::\s*[\w:]+)?\s*\{([^}]*)\}",
                     re.S)
ENUM_ENTRY_RE = re.compile(r"^\s*(k\w+)\s*=\s*(0x[0-9a-fA-F]+|\d+)\s*,?\s*$")
CONST_RE = r"constexpr\s+[\w:<>\s]+\b{name}\s*=\s*(0x[0-9a-fA-F]+|\d+)"
BYTE_CAST_RE = re.compile(
    r"reinterpret_cast<\s*(?:const\s+)?"
    r"(?:char|unsigned\s+char|uint8_t|std::uint8_t|std::byte)\s*\*\s*>")
BITPATTERN_MEMCPY_RE = re.compile(
    r"memcpy\(\s*&\w+(?:\.\w+)*\s*,\s*&\w+(?:\.\w+)*\s*,\s*sizeof")
MEMCPY_RE = re.compile(r"\bmemcpy\s*\(")
FAILPOINT_RE = re.compile(
    r"MOQO_FAILPOINT(?:_HIT|_RETURN)?\(\s*\"([^\"]+)\"")
NAKED_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|shared_)?mutex\b|std::lock_guard\b|"
    r"std::unique_lock\b|std::scoped_lock\b|std::shared_lock\b|"
    r"std::condition_variable(?:_any)?\b")
NONDET_RE = re.compile(r"std::random_device\b|(?<![\w:])s?rand\s*\(")
ESCAPE_TOKEN = "MOQO_NO_THREAD_SAFETY_ANALYSIS"
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(\w+)/')
# src/ directory -> the src/ directories its files must not include.
LAYERING = {
    "persist": {"service", "memo", "net", "harness"},
    "core": {"service", "net", "harness"},
    "memo": {"service", "net", "harness"},
}


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule, self.path, self.line, self.message = rule, path, line, message

    def __str__(self):
        return f"{self.rule}:{self.path}:{self.line}: {self.message}"


def iter_source_files(root, subdir="src"):
    base = os.path.join(root, subdir)
    for dirpath, _, names in os.walk(base):
        for name in sorted(names):
            if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root).replace(os.sep, "/")


def read(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return f.read()


def strip_comments(line):
    """Drop // comments and string literals so tokens in prose don't fire."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line.split("//", 1)[0]


def allows(lines, idx, rule):
    """True if line idx or the line above carries `lint:allow <rule>`."""
    for i in (idx, idx - 1):
        if 0 <= i < len(lines) and f"lint:allow {rule}" in lines[i]:
            return True
    return False


# ---------------------------------------------------------------------------
# frozen-enum


def parse_frozen(root):
    enums, constants = {}, {}
    for qual, rel, name in FROZEN_ENUMS:
        try:
            text = read(root, rel)
        except FileNotFoundError:
            continue
        for match in ENUM_RE.finditer(text):
            if match.group(1) != name:
                continue
            entries = {}
            for raw in match.group(2).splitlines():
                entry = ENUM_ENTRY_RE.match(strip_comments(raw))
                if entry:
                    entries[entry.group(1)] = int(entry.group(2), 0)
            enums[qual] = entries
    for qual, rel, name in FROZEN_CONSTANTS:
        try:
            text = read(root, rel)
        except FileNotFoundError:
            continue
        match = re.search(CONST_RE.format(name=name), text)
        if match:
            constants[qual] = int(match.group(1), 0)
    return {"enums": enums, "constants": constants}


def check_frozen_enums(root, baseline_path, findings):
    current = parse_frozen(root)
    try:
        with open(baseline_path, encoding="utf-8") as f:
            frozen = json.load(f)
    except FileNotFoundError:
        findings.append(Finding("frozen-enum", BASELINE_REL, 1,
                                "baseline missing; run --write-baseline"))
        return
    file_of = {qual: rel for qual, rel, _ in FROZEN_ENUMS + FROZEN_CONSTANTS}
    for qual, entries in frozen.get("enums", {}).items():
        now = current["enums"].get(qual)
        rel = file_of.get(qual, BASELINE_REL)
        if now is None:
            findings.append(Finding("frozen-enum", rel, 1,
                                    f"frozen enum {qual} not found"))
            continue
        for name, value in entries.items():
            if name not in now:
                findings.append(Finding(
                    "frozen-enum", rel, 1,
                    f"{qual}::{name} removed (frozen at {value}; the enum "
                    f"is append-only)"))
            elif now[name] != value:
                findings.append(Finding(
                    "frozen-enum", rel, 1,
                    f"{qual}::{name} changed {value} -> {now[name]} "
                    f"(append-only: extend and --write-baseline instead)"))
        frozen_values = {v for v in entries.values()}
        for name, value in now.items():
            if name not in entries and value in frozen_values:
                findings.append(Finding(
                    "frozen-enum", rel, 1,
                    f"{qual}::{name} reuses frozen value {value}"))
    for qual, value in frozen.get("constants", {}).items():
        now = current["constants"].get(qual)
        rel = file_of.get(qual, BASELINE_REL)
        if now is None:
            findings.append(Finding("frozen-enum", rel, 1,
                                    f"frozen constant {qual} not found"))
        elif now != value:
            findings.append(Finding(
                "frozen-enum", rel, 1,
                f"{qual} changed {value} -> {now} (bump means a new format: "
                f"extend the validation matrix and --write-baseline)"))


# ---------------------------------------------------------------------------
# per-line rules


def check_file(root, rel, findings, escapes):
    text = read(root, rel)
    lines = text.splitlines()
    for idx, raw in enumerate(lines):
        line_no = idx + 1
        code = strip_comments(raw)

        if rel not in ENCODING_FILES:
            hit = (BYTE_CAST_RE.search(code) or
                   (MEMCPY_RE.search(code) and
                    not BITPATTERN_MEMCPY_RE.search(code)))
            if hit and not allows(lines, idx, "raw-encode"):
                findings.append(Finding(
                    "raw-encode", rel, line_no,
                    "byte-level encoding outside byte_codec.h/format.h "
                    "(or annotate with `lint:allow raw-encode`)"))

        if rel != MUTEX_FILE and NAKED_MUTEX_RE.search(code):
            findings.append(Finding(
                "naked-mutex", rel, line_no,
                "use util/mutex.h Mutex/MutexLock/CondVar so Thread Safety "
                "Analysis sees this lock"))

        if NONDET_RE.search(code) and not allows(lines, idx, "nondeterminism"):
            findings.append(Finding(
                "nondeterminism", rel, line_no,
                "unseeded randomness is banned; use a seeded generator"))

        include = INCLUDE_RE.match(raw)
        layer = rel.split("/")[1] if rel.count("/") >= 2 else ""
        if include and include.group(1) in LAYERING.get(layer, ()):
            findings.append(Finding(
                "layering", rel, line_no,
                f"src/{layer}/ must not include {include.group(1)}/ "
                f"(a layer above it)"))

        if (ESCAPE_TOKEN in code and
                rel != "src/util/thread_annotations.h"):
            context = "\n".join(lines[max(0, idx - 3):idx + 1])
            if "TSA:" not in context:
                findings.append(Finding(
                    "tsa-escape", rel, line_no,
                    "MOQO_NO_THREAD_SAFETY_ANALYSIS without a justifying "
                    "\"TSA:\" comment"))
            escapes.append((rel, line_no))


def check_failpoints(root, files, findings):
    try:
        readme = read(root, README_REL)
    except FileNotFoundError:
        readme = ""
    catalog = set(re.findall(r"^\|\s*`([\w.]+)`", readme, re.M))
    # The net.read / net.write row shares one cell.
    for cell in re.findall(r"^\|\s*`([\w.]+)`\s*/\s*`([\w.]+)`", readme, re.M):
        catalog.update(cell)
    seen = {}
    for rel in files:
        if rel == "src/rt/failpoint.h":
            continue  # The macro definitions themselves.
        lines = read(root, rel).splitlines()
        for idx, raw in enumerate(lines):
            for site in FAILPOINT_RE.findall(raw):
                if site in seen:
                    findings.append(Finding(
                        "failpoint-site", rel, idx + 1,
                        f"duplicate failpoint site \"{site}\" (first at "
                        f"{seen[site]}); site names must be unique"))
                else:
                    seen[site] = f"{rel}:{idx + 1}"
                if site not in catalog:
                    findings.append(Finding(
                        "failpoint-site", rel, idx + 1,
                        f"failpoint site \"{site}\" missing from the README "
                        f"failpoint catalog"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this file)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="refreeze tools/lint/frozen_enums.json and exit")
    parser.add_argument("--max-tsa-escapes", type=int, default=5,
                        help="cap on MOQO_NO_THREAD_SAFETY_ANALYSIS uses")
    args = parser.parse_args()

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    baseline_path = os.path.join(root, BASELINE_REL)

    if args.write_baseline:
        current = parse_frozen(root)
        os.makedirs(os.path.dirname(baseline_path), exist_ok=True)
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {baseline_path}")
        return 0

    findings, escapes = [], []
    files = list(iter_source_files(root))
    check_frozen_enums(root, baseline_path, findings)
    for rel in files:
        check_file(root, rel, findings, escapes)
    check_failpoints(root, files, findings)
    if len(escapes) > args.max_tsa_escapes:
        rel, line = escapes[-1]
        findings.append(Finding(
            "tsa-escape", rel, line,
            f"{len(escapes)} thread-safety escapes exceed the cap of "
            f"{args.max_tsa_escapes}; fix the analysis instead"))

    for finding in findings:
        print(finding)
    if findings:
        print(f"moqo_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"moqo_lint: clean ({len(files)} files, "
          f"{len(escapes)} TSA escapes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
