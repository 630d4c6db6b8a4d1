#!/usr/bin/env python3
"""Fixture tests for tools/lint/moqo_lint.py.

Each fixture under tests/lint/fixtures/ is a miniature repo tree that must
trip exactly one rule (asserted by rule ID); the final case runs the
linter over the real tree and must come back clean. Registered in ctest
as `lint.fixtures`.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LINTER = os.path.join(ROOT, "tools", "lint", "moqo_lint.py")

# fixture directory -> set of rule IDs that MUST fire (and no others).
CASES = {
    "enum_reorder": {"frozen-enum"},
    "raw_encode": {"raw-encode"},
    "dup_failpoint": {"failpoint-site"},
    "naked_mutex": {"naked-mutex"},
    "nondet": {"nondeterminism"},
    "tsa_escape": {"tsa-escape"},
    "layering": {"layering"},
}

RULE_RE = re.compile(r"^([a-z-]+):", re.M)


def run(args):
    return subprocess.run([sys.executable, LINTER] + args,
                          capture_output=True, text=True)


def main():
    failures = []
    for case, expected in sorted(CASES.items()):
        fixture = os.path.join(HERE, "fixtures", case)
        result = run(["--root", fixture])
        fired = set(RULE_RE.findall(result.stdout))
        if result.returncode != 1:
            failures.append(f"{case}: exit {result.returncode}, want 1\n"
                            f"{result.stdout}{result.stderr}")
        elif fired != expected:
            failures.append(f"{case}: rules {sorted(fired)}, "
                            f"want {sorted(expected)}\n{result.stdout}")
        else:
            print(f"PASS {case}: {sorted(fired)}")

    clean = run(["--root", ROOT])
    if clean.returncode != 0:
        failures.append(f"clean-tree: exit {clean.returncode}, want 0\n"
                        f"{clean.stdout}{clean.stderr}")
    else:
        print(f"PASS clean-tree: {clean.stdout.strip()}")

    if failures:
        print("\n".join(["FAILURES:"] + failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
