#!/usr/bin/env python3
"""Repo-specific determinism lint for the bmf codebase.

The replay core's contract (docs/replay_core.md) is that every engine result
is a pure function of (input stream, config, seed) — bit-identical at any
thread or shard count. That only holds if the code never lets an incidental
source of order or entropy feed committed state. This lint makes the
discipline machine-checkable:

  unordered-iteration   In src/core, src/dynamic, src/graph: no range-for over
                        a std::unordered_{map,set} unless the loop only
                        collects keys that are sorted immediately after (the
                        collect-then-sort idiom) — hash-iteration order is a
                        stdlib implementation detail and must never reach
                        committed state or an order-sensitive consumer.
  bare-thread           No std::thread / std::jthread construction outside
                        src/util and src/service. Fan-out goes through the
                        pool (bmf::parallel_for_threads, util/thread_pool.hpp),
                        which joins its fork-join before returning.
  raw-randomness        In src/core, src/dynamic, src/graph: no rand()/
                        srand()/time()/std::random_device — all randomness
                        flows from the seeded bmf::Rng (util/rng.hpp), split
                        serially before any fan-out.
  ungated-fanout        In src/core, src/dynamic, src/graph: the thread-count
                        argument of every parallel_for_threads call must
                        come through bmf::gated_threads (directly, via a
                        variable assigned from it, or via a local helper that
                        returns it), or be the literal 1. The gate keeps small
                        inputs serial without changing output — an ungated
                        fan-out is either a perf bug or an unreviewed
                        determinism claim.
  raw-openmp            Everywhere under src/: no `#pragma omp` directives.
                        The repo has exactly one parallelism mechanism — the
                        shared pool behind bmf::parallel_for_threads with its
                        gated_threads size gate — so thread-count bit-identity
                        is governed in one place. An OpenMP pragma is a second
                        scheduler with its own thread count, its own reduction
                        order, and no gate; route the loop through the pool
                        instead (see BestOfKRandomGreedyOracle's sampling).
  publication-order     In src/service: a file that release-stores
                        published_epoch_ must carry the documented
                        publication sequence, marked `publication-order[1]`
                        (snapshot pointer store) before `publication-order[2]`
                        (epoch counter store), each a release store. The SSP
                        refresh proof in matching_service.cpp depends on this
                        pairing; the markers are the comment-level proof
                        obligation this rule checks. The implementation lives
                        in tools/analyzer/shared_rules.py, shared with the
                        bmf-analyzer front end.
  stale-suppression     Everywhere: a `determinism-lint: allow(...)` or
                        `bmf-analyzer: allow(...)` comment must cite a rule
                        its tool actually defines and carry a ` -- reason`
                        tail, and clang-tidy NOLINT markers must name their
                        check(s) — a suppression that outlives its rule (or
                        swallows everything) hides nothing and rots.

Suppression (sparingly, reason mandatory), on the flagged line or the line
above:

    // determinism-lint: allow(<rule>) -- <why this is safe>

Regex analysis is canonical (CI runs it everywhere); when the libclang python
bindings are importable, the unordered-iteration rule is additionally resolved
against the AST (`--use-libclang auto|no|require`), which removes
false positives from comments the regex pass cannot see through and catches
iterations through `auto&` aliases.

Usage:
    python3 tools/determinism_lint.py            # lints src/ from the repo root
    python3 tools/determinism_lint.py path...    # lints the given files/dirs

Exit status 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

_ANALYZER_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "analyzer")
if _ANALYZER_DIR not in sys.path:
    sys.path.insert(0, _ANALYZER_DIR)

import shared_rules  # single home of the publication-order rule  # noqa: E402
import source_model as _analyzer_model  # bmf-analyzer's rule registry  # noqa: E402

CPP_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")

# Directories (path components after a `src` component) each rule applies to.
DETERMINISM_DIRS = {"core", "dynamic", "graph"}
THREAD_EXEMPT_DIRS = {"util", "service"}
SERVICE_DIRS = {"service"}

ALLOW_RE = re.compile(
    r"//\s*determinism-lint:\s*allow\(([a-z-]+)\)\s*--\s*(\S.*)$"
)

RULES = (
    "unordered-iteration",
    "bare-thread",
    "raw-randomness",
    "raw-openmp",
    "ungated-fanout",
    "publication-order",
    "stale-suppression",
)

# Every suppression prefix in the tree and the rule names it may cite. The
# stale-suppression rule fails on an allow() naming a rule neither tool
# knows — a suppression that outlives its rule silently stops meaning
# anything. NOLINT is clang-tidy's marker; we additionally require it to
# name its check(s), since a bare NOLINT swallows every future diagnostic
# on that line.
ANALYZER_RULES = _analyzer_model.RULES
SUPPRESSION_PREFIX_RE = re.compile(
    r"//\s*(determinism-lint|bmf-analyzer):\s*allow\(([^)\n]*)\)(.*)$"
)
BARE_NOLINT_RE = re.compile(r"\bNOLINT(?:NEXTLINE|BEGIN|END)?\b(?!\()")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> list[str]:
    """Blanks out comments and string/char literals, preserving line structure
    so findings keep their line numbers. Newlines inside block comments
    survive."""
    out: list[str] = []
    i, n = 0, len(text)
    buf: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                buf.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                buf.append("'")
                i += 1
                continue
            buf.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                buf.append("\n")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                buf.append("\n")
            i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                state = "code"
                buf.append(quote)
            elif c == "\n":  # unterminated (raw strings etc.) — resync
                state = "code"
                buf.append("\n")
            i += 1
    return "".join(buf).split("\n")


def subsystem_of(path: str) -> str | None:
    """The path component after the last `src` component, or None."""
    parts = os.path.normpath(path).split(os.sep)
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "src":
            return parts[i + 1]
    return None


def allowed(raw_lines: list[str], line_idx: int, rule: str) -> bool:
    """True if the 0-based line or the one above carries a matching allow
    comment (with a non-empty reason — enforced by the regex)."""
    for idx in (line_idx, line_idx - 1):
        if 0 <= idx < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[idx])
            if m and m.group(1) == rule:
                return True
    return False


def first_argument(lines: list[str], line_idx: int, open_col: int) -> str:
    """Extracts the first argument of a call whose '(' is at
    lines[line_idx][open_col], balancing nested parens/brackets across
    lines."""
    depth = 0
    arg: list[str] = []
    row, col = line_idx, open_col
    while row < len(lines):
        line = lines[row]
        while col < len(line):
            c = line[col]
            if c in "([{":
                depth += 1
                if depth > 1:
                    arg.append(c)
            elif c in ")]}":
                depth -= 1
                if depth == 0:
                    return "".join(arg).strip()
                arg.append(c)
            elif c == "," and depth == 1:
                return "".join(arg).strip()
            elif depth >= 1:
                arg.append(c)
            col += 1
        arg.append(" ")
        row += 1
        col = 0
    return "".join(arg).strip()


IDENT = r"[A-Za-z_]\w*"

UNORDERED_DECL_RE = re.compile(
    rf"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*(?:&\s*)?"
    rf"({IDENT})\s*[;({{=]"
)
RANGE_FOR_RE = re.compile(rf"for\s*\(.*?:\s*(\*?\s*{IDENT}(?:\.{IDENT}\(\))?)\s*\)")
THREAD_CTOR_RE = re.compile(rf"std::j?thread\s+{IDENT}\s*[({{]|std::j?thread\s*[({{]")
RAW_RANDOM_RE = re.compile(
    r"(?<![\w:])(?:s?rand\s*\(|time\s*\(\s*(?:NULL|nullptr|0)?\s*\)|"
    r"std::random_device)"
)
OMP_PRAGMA_RE = re.compile(r"#\s*pragma\s+omp\b")
FANOUT_RE = re.compile(r"\b(parallel_for_threads|parallel_reduce_threads)\s*\(")
GATED_ASSIGN_RE = re.compile(rf"\b(?:int\s+)?(?:const\s+)?(?:int\s+)?({IDENT})\s*=\s*({IDENT})\s*\(")
GATED_RETURN_RE = re.compile(rf"return\s+({IDENT})\s*\(")
FUNC_DEF_RE = re.compile(rf"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+)?int\s+({IDENT})\s*\(")
SORT_RE = re.compile(r"\b(?:std::)?(?:stable_)?sort\s*\(")


def gated_names(lines: list[str]) -> tuple[set[str], set[str]]:
    """Fixpoint over a file: functions that (transitively) return
    gated_threads(...), and variables assigned from them. Assignments and
    returns are matched over whitespace-joined text so multi-line statements
    resolve."""
    joined = " ".join(lines)
    gated_fns = {"gated_threads"}
    # Map each function name to the set of functions its returns call.
    fn_returns: dict[str, set[str]] = {}
    current_fn: str | None = None
    for line in lines:
        fm = FUNC_DEF_RE.match(line)
        if fm:
            current_fn = fm.group(1)
            fn_returns.setdefault(current_fn, set())
        if current_fn:
            for rm in GATED_RETURN_RE.finditer(line):
                fn_returns[current_fn].add(rm.group(1))
    changed = True
    while changed:
        changed = False
        for fn, calls in fn_returns.items():
            if fn not in gated_fns and calls and all(c in gated_fns for c in calls):
                gated_fns.add(fn)
                changed = True
    gated_vars: set[str] = set()
    changed = True
    while changed:
        changed = False
        for am in GATED_ASSIGN_RE.finditer(joined):
            name, callee = am.group(1), am.group(2)
            if callee in gated_fns and name not in gated_vars:
                gated_vars.add(name)
                changed = True
    return gated_fns, gated_vars


def libclang_unordered_iterations(path: str) -> set[int] | None:
    """AST-resolved 1-based lines of range-fors over unordered containers, or
    None when libclang is unavailable (regex stays canonical)."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        tu = cindex.Index.create().parse(
            path, args=["-std=c++20", "-I", os.path.join(repo_root(), "src")]
        )
    except cindex.TranslationUnitLoadError:
        return None
    hits: set[int] = set()

    def visit(node):
        if node.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
            for child in node.get_children():
                spelling = child.type.spelling
                if "unordered_map" in spelling or "unordered_set" in spelling:
                    if node.location.file and node.location.file.name == path:
                        hits.add(node.location.line)
                break
        for child in node.get_children():
            visit(child)

    visit(tu.cursor)
    return hits


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint_file(path: str, use_libclang: str) -> list[Finding]:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.split("\n")
    lines = strip_comments_and_strings(text)
    sub = subsystem_of(path)
    findings: list[Finding] = []

    def report(idx: int, rule: str, message: str) -> None:
        if not allowed(raw_lines, idx, rule):
            findings.append(Finding(path, idx + 1, rule, message))

    in_determinism_scope = sub in DETERMINISM_DIRS

    # ---- unordered-iteration -------------------------------------------------
    if in_determinism_scope:
        unordered_vars = {
            m.group(1) for line in lines for m in UNORDERED_DECL_RE.finditer(line)
        }
        ast_lines = (
            libclang_unordered_iterations(path) if use_libclang != "no" else None
        )
        if use_libclang == "require" and ast_lines is None:
            raise RuntimeError("libclang requested but not importable")
        for idx, line in enumerate(lines):
            m = RANGE_FOR_RE.search(line)
            hit = False
            if ast_lines is not None:
                hit = (idx + 1) in ast_lines
            elif m:
                target = m.group(1).lstrip("*").strip().split(".")[0]
                hit = target in unordered_vars
            if not hit:
                continue
            # Collect-then-sort idiom: a sort within the next 8 lines means the
            # loop only gathers keys that are immediately canonicalized.
            window = "\n".join(lines[idx + 1 : idx + 9])
            if SORT_RE.search(window):
                continue
            report(
                idx,
                "unordered-iteration",
                "iteration over an unordered container can feed hash order "
                "into committed state; collect the keys and sort them "
                "(id-order) before use",
            )

    # ---- bare-thread ---------------------------------------------------------
    if sub is not None and sub not in THREAD_EXEMPT_DIRS:
        for idx, line in enumerate(lines):
            if THREAD_CTOR_RE.search(line):
                report(
                    idx,
                    "bare-thread",
                    "std::thread outside util/ and service/; fan out through "
                    "bmf::parallel_for_threads",
                )

    # ---- raw-randomness ------------------------------------------------------
    if in_determinism_scope:
        for idx, line in enumerate(lines):
            if RAW_RANDOM_RE.search(line):
                report(
                    idx,
                    "raw-randomness",
                    "unseeded entropy source; all randomness must flow from "
                    "a seeded bmf::Rng split serially before any fan-out",
                )

    # ---- raw-openmp ----------------------------------------------------------
    # Pragmas survive strip_comments_and_strings (they are code, not
    # comments), so a plain line scan is exact. Applies to every subsystem:
    # even util/ must not grow a second scheduler next to the pool.
    if sub is not None:
        for idx, line in enumerate(lines):
            if OMP_PRAGMA_RE.search(line):
                report(
                    idx,
                    "raw-openmp",
                    "OpenMP pragma bypasses the shared pool's gated_threads "
                    "discipline; fan out through bmf::parallel_for_threads",
                )

    # ---- ungated-fanout ------------------------------------------------------
    if in_determinism_scope:
        gated_fns, gated_vars = gated_names(lines)
        for idx, line in enumerate(lines):
            for m in FANOUT_RE.finditer(line):
                open_col = m.end() - 1
                arg = first_argument(lines, idx, open_col)
                callee = arg.split("(")[0].strip()
                if (
                    arg == "1"
                    or arg in gated_vars
                    or callee in gated_fns
                ):
                    continue
                report(
                    idx,
                    "ungated-fanout",
                    f"thread count '{arg}' does not come through "
                    "bmf::gated_threads; gate the fan-out on its work size",
                )

    # ---- publication-order ---------------------------------------------------
    # Implementation shared with tools/analyzer (shared_rules.py) — one rule,
    # two front ends.
    if sub in SERVICE_DIRS:
        for idx, message in shared_rules.check_publication_order(raw_lines, lines):
            report(idx, shared_rules.RULE_NAME, message)

    # ---- stale-suppression ---------------------------------------------------
    # Applies everywhere (any subsystem, fixtures included): a suppression
    # citing a rule neither tool knows is dead weight that hides nothing —
    # and usually means the rule was renamed out from under it.
    for idx, raw in enumerate(raw_lines):
        m = SUPPRESSION_PREFIX_RE.search(raw)
        if m:
            prefix, rule_name, rest = m.group(1), m.group(2).strip(), m.group(3)
            known = RULES if prefix == "determinism-lint" else ANALYZER_RULES
            if rule_name not in known:
                report(
                    idx,
                    "stale-suppression",
                    f"suppression '{prefix}: allow({rule_name})' names no "
                    f"known {prefix} rule; remove it or fix the rule name",
                )
            elif not re.match(r"\s*--\s*\S", rest):
                report(
                    idx,
                    "stale-suppression",
                    f"suppression '{prefix}: allow({rule_name})' lacks the "
                    "mandatory ' -- <reason>' tail (and is being ignored)",
                )
        if BARE_NOLINT_RE.search(raw):
            report(
                idx,
                "stale-suppression",
                "bare NOLINT swallows every clang-tidy check on the line; "
                "name the check, e.g. NOLINTNEXTLINE(concurrency-mt-unsafe)",
            )
    return findings


def collect_files(paths: list[str]) -> list[str]:
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, _dirnames, filenames in os.walk(p):
                for name in sorted(filenames):
                    if name.endswith(CPP_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        elif os.path.isfile(p):
            files.append(p)
        else:
            print(f"determinism_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return sorted(set(files))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="bit-identity determinism lint (see module docstring)"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: <repo>/src)",
    )
    parser.add_argument(
        "--use-libclang",
        choices=("auto", "no", "require"),
        default="auto",
        help="resolve unordered-iteration against the AST when the clang "
        "python bindings are importable (default: auto; regex is canonical)",
    )
    args = parser.parse_args(argv)
    paths = args.paths or [os.path.join(repo_root(), "src")]
    findings: list[Finding] = []
    for path in collect_files(paths):
        findings.extend(lint_file(path, args.use_libclang))
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"determinism_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
