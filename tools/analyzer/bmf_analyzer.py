#!/usr/bin/env python3
"""bmf-analyzer CLI — the repo's static determinism/concurrency analysis.

Runs every rule in ``source_model.RULES`` (see package docstring / the
rule modules) over a set of C++ files and prints findings in the familiar
``path:line: [rule] message`` shape.

Usage:
    python3 tools/analyzer/bmf_analyzer.py               # analyzes <repo>/src
    python3 tools/analyzer/bmf_analyzer.py path...       # given files/dirs
    python3 tools/analyzer/bmf_analyzer.py --rules lock-order,relaxed-audit
    python3 tools/analyzer/bmf_analyzer.py --taint-all tests/  # nightly mode

Exit status 0 = clean, 1 = findings, 2 = usage/configuration error.

The lock-order whitelist and the ledger field list live in
``lock_order_manifest.json`` next to this script. Suppression:
``// bmf-analyzer: allow(<rule>) -- <reason>`` on the flagged line or the
line above; the stale-suppression rule rejects an allow naming no rule.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rules_atomics  # noqa: E402
import rules_ledger  # noqa: E402
import rules_locks  # noqa: E402
import rules_source  # noqa: E402
import rules_taint  # noqa: E402
import source_model as sm  # noqa: E402

MANIFEST_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "lock_order_manifest.json"
)


def analyze(
    paths: list[str],
    manifest: dict,
    rules: set[str],
    use_libclang: str = "auto",
    taint_all: bool = False,
) -> list[sm.Finding]:
    try:
        file_paths = sm.collect_files(paths)
    except FileNotFoundError as e:
        print(f"bmf_analyzer: no such path: {e}", file=sys.stderr)
        sys.exit(2)
    files = [sm.parse_file(p) for p in file_paths]
    if use_libclang != "no":
        for sf in files:
            sf.ast_unordered = sm.ast_unordered_lines(sf.path)
        if use_libclang == "require" and any(
            sf.ast_unordered is None for sf in files
        ):
            raise RuntimeError("libclang requested but not importable")
    findings: list[sm.Finding] = []
    if "unordered-order-taint" in rules:
        findings.extend(rules_taint.check(files, taint_all=taint_all))
    if "lock-order" in rules:
        findings.extend(rules_locks.check(files, manifest))
    if "single-writer-ledger" in rules:
        findings.extend(rules_ledger.check(files, manifest))
    findings.extend(
        f
        for f in rules_atomics.check(files) + rules_source.check(files)
        if f.rule in rules
    )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="bmf static determinism/concurrency analyzer "
        "(see module docstring)"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: <repo>/src)",
    )
    parser.add_argument(
        "--rules",
        default=",".join(sm.RULES),
        help="comma-separated rule subset to run (default: all)",
    )
    parser.add_argument(
        "--use-libclang",
        choices=("auto", "no", "require"),
        default="auto",
        help="resolve range-fors over unordered containers against the clang "
        "AST when the python bindings are importable (default: auto; the "
        "structural frontend is canonical)",
    )
    parser.add_argument(
        "--taint-all",
        action="store_true",
        help="run the taint rule outside src/core|dynamic|graph too "
        "(nightly sweep over tests/)",
    )
    args = parser.parse_args(argv)
    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(sm.RULES)
    if unknown:
        print(
            f"bmf_analyzer: unknown rule(s): {', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2
    try:
        with open(MANIFEST_PATH, encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bmf_analyzer: cannot read manifest: {e}", file=sys.stderr)
        return 2
    paths = args.paths or [os.path.join(sm.REPO_ROOT, "src")]
    try:
        findings = analyze(
            paths, manifest, rules, args.use_libclang, args.taint_all
        )
    except RuntimeError as e:  # --use-libclang require without bindings
        print(f"bmf_analyzer: {e}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"bmf_analyzer: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
