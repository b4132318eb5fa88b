"""Line-level source rules: the replay core's determinism invariants, plus
suppression hygiene.

The replay core's contract (docs/replay_core.md) is that every engine result
is a pure function of (input stream, config, seed) — bit-identical at any
thread count. That only holds if the code never lets an incidental source of
order or entropy feed committed state:

  unordered-iteration   In src/core, src/dynamic, src/graph: no range-for over
                        a std::unordered_{map,set} unless the loop only
                        collects keys that are sorted within the next 8 lines
                        (the collect-then-sort idiom). With the libclang
                        refinement on, the AST decides which loops iterate an
                        unordered container.
  bare-thread           No std::thread / std::jthread construction outside
                        src/util and src/service. Fan-out goes through the
                        pool (bmf::parallel_for_threads, util/thread_pool.hpp),
                        which joins its fork-join before returning.
  raw-randomness        In src/core, src/dynamic, src/graph: no rand()/
                        srand()/time()/std::random_device — all randomness
                        flows from the seeded bmf::Rng (util/rng.hpp), split
                        serially before any fan-out.
  raw-openmp            Everywhere under src/: no `#pragma omp`. OpenMP is a
                        second scheduler with its own thread count, reduction
                        order and no gate; route the loop through the pool.
  ungated-fanout        In src/core, src/dynamic, src/graph: the thread-count
                        argument of every parallel_for_threads call must come
                        through bmf::gated_threads (directly, via a variable
                        assigned from it, or via a local helper that returns
                        it), or be the literal 1. A declaration of the
                        function is not a call and is skipped.
  stale-suppression     Every file: a `bmf-analyzer: allow(...)` comment must
                        cite a rule in source_model.RULES and carry a
                        ` -- reason` tail; a `determinism-lint: allow(...)`
                        comment uses a retired prefix and suppresses nothing;
                        clang-tidy NOLINT markers must name their check(s).
"""

from __future__ import annotations

import re

import source_model as sm

DETERMINISM_DIRS = {"core", "dynamic", "graph"}
THREAD_EXEMPT_DIRS = {"util", "service"}

IDENT = sm.IDENT
RANGE_FOR_RE = re.compile(rf"for\s*\(.*?:\s*(\*?\s*{IDENT}(?:\.{IDENT}\(\))?)\s*\)")
SORT_RE = re.compile(r"\b(?:std::)?(?:stable_)?sort\s*\(")
THREAD_CTOR_RE = re.compile(rf"std::j?thread\s+{IDENT}\s*[({{]|std::j?thread\s*[({{]")
RAW_RANDOM_RE = re.compile(
    r"(?<![\w:])(?:s?rand\s*\(|time\s*\(\s*(?:NULL|nullptr|0)?\s*\)|"
    r"std::random_device)"
)
OMP_PRAGMA_RE = re.compile(r"#\s*pragma\s+omp\b")
FANOUT_RE = re.compile(r"\b(parallel_for_threads|parallel_reduce_threads)\s*\(")
# A type name right before the (possibly qualified) fan-out name marks a
# declaration or definition, `void parallel_for_threads(int threads, ...)`;
# a call follows punctuation or a keyword such as `return`.
RETURN_TYPE_RE = re.compile(rf"\b({IDENT})\s+(?:{IDENT}\s*::\s*)*$")
GATED_ASSIGN_RE = re.compile(rf"\b(?:int\s+)?(?:const\s+)?(?:int\s+)?({IDENT})\s*=\s*({IDENT})\s*\(")
GATED_RETURN_RE = re.compile(rf"return\s+({IDENT})\s*\(")
FUNC_DEF_RE = re.compile(rf"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+)?int\s+({IDENT})\s*\(")

SUPPRESSION_RE = re.compile(
    r"//\s*(determinism-lint|bmf-analyzer):\s*allow\(([^)\n]*)\)(.*)$"
)
BARE_NOLINT_RE = re.compile(r"\bNOLINT(?:NEXTLINE|BEGIN|END)?\b(?!\()")

# (rule, pattern, applies to subsystem, message) for the rules that flag a
# pattern wherever it appears in a stripped line. Pragmas survive the
# stripping (they are code, not comments), so the OpenMP scan is exact.
LINE_RULES = (
    (
        "bare-thread",
        THREAD_CTOR_RE,
        lambda sub: sub not in THREAD_EXEMPT_DIRS,
        "std::thread outside util/ and service/; fan out through "
        "bmf::parallel_for_threads",
    ),
    (
        "raw-randomness",
        RAW_RANDOM_RE,
        lambda sub: sub in DETERMINISM_DIRS,
        "unseeded entropy source; all randomness must flow from "
        "a seeded bmf::Rng split serially before any fan-out",
    ),
    (
        "raw-openmp",
        OMP_PRAGMA_RE,
        lambda sub: True,
        "OpenMP pragma bypasses the shared pool's gated_threads "
        "discipline; fan out through bmf::parallel_for_threads",
    ),
)


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


def _unordered_iteration(sf: sm.SourceFile, findings: list[sm.Finding]) -> None:
    for idx, line in enumerate(sf.lines):
        if sf.ast_unordered is not None:
            hit = (idx + 1) in sf.ast_unordered
        else:
            m = RANGE_FOR_RE.search(line)
            hit = bool(m) and (
                m.group(1).lstrip("*").strip().split(".")[0] in sf.unordered_vars
            )
        if not hit:
            continue
        # Collect-then-sort idiom: a sort within the next 8 lines means the
        # loop only gathers keys that are immediately canonicalized.
        if SORT_RE.search("\n".join(sf.lines[idx + 1 : idx + 9])):
            continue
        sm.report(
            findings,
            sf,
            idx,
            "unordered-iteration",
            "iteration over an unordered container can feed hash order "
            "into committed state; collect the keys and sort them "
            "(id-order) before use",
        )


def _ungated_fanout(sf: sm.SourceFile, findings: list[sm.Finding]) -> None:
    gated_fns, gated_vars = gated_names(sf.lines)
    for m in FANOUT_RE.finditer(sf.text):
        decl = RETURN_TYPE_RE.search(sf.text, max(0, m.start() - 256), m.start())
        if decl and decl.group(1) not in sm.NON_FUNCTION_KEYWORDS:
            continue
        arg_text, _close = sm.call_argument_text(sf.text, m.end() - 1)
        args = sm.split_arguments(arg_text)
        arg = " ".join(args[0].split()) if args else ""
        if arg == "1" or arg in gated_vars or arg.split("(")[0].strip() in gated_fns:
            continue
        sm.report(
            findings,
            sf,
            sf.line_of(m.start()) - 1,
            "ungated-fanout",
            f"thread count '{arg}' does not come through "
            "bmf::gated_threads; gate the fan-out on its work size",
        )


def _stale_suppression(sf: sm.SourceFile, findings: list[sm.Finding]) -> None:
    def flag(idx: int, message: str) -> None:
        sm.report(findings, sf, idx, "stale-suppression", message)

    for idx, raw in enumerate(sf.raw_lines):
        if BARE_NOLINT_RE.search(raw):
            flag(
                idx,
                "bare NOLINT swallows every clang-tidy check on the line; "
                "name the check, e.g. NOLINTNEXTLINE(concurrency-mt-unsafe)",
            )
        m = SUPPRESSION_RE.search(raw)
        if m is None:
            continue
        prefix, rule, rest = m.group(1), m.group(2).strip(), m.group(3)
        allow = f"{prefix}: allow({rule})"
        if prefix == "determinism-lint":
            problem = (
                "uses a retired prefix and suppresses nothing; write "
                f"'bmf-analyzer: allow({rule}) -- <reason>' or remove it"
            )
        elif rule not in sm.RULES:
            problem = (
                "names no known bmf-analyzer rule; remove it or fix the rule name"
            )
        elif not re.match(r"\s*--\s*\S", rest):
            problem = (
                "lacks the mandatory ' -- <reason>' tail (and is being ignored)"
            )
        else:
            continue
        flag(idx, f"suppression '{allow}' {problem}")


def check(files: list[sm.SourceFile]) -> list[sm.Finding]:
    findings: list[sm.Finding] = []
    for sf in files:
        sub = sf.subsystem
        if sub is not None:
            for rule, pattern, applies, message in LINE_RULES:
                if applies(sub):
                    for idx, line in enumerate(sf.lines):
                        if pattern.search(line):
                            sm.report(findings, sf, idx, rule, message)
        if sub in DETERMINISM_DIRS:
            _unordered_iteration(sf, findings)
            _ungated_fanout(sf, findings)
        _stale_suppression(sf, findings)
    return findings
