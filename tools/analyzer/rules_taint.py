"""unordered-order-taint: hash-order dataflow to committed-state sinks.

Where unordered-iteration (rules_source.py) only asks for a sort in the
lines after a loop, this rule runs real (if structural) dataflow. A
*source* introduces the label ``hash-order`` on a variable:

  * range-for over a ``std::unordered_{map,set}`` (containers pushed into
    inside the loop body inherit the label — that is how hash order
    escapes the loop);
  * ``u.begin()`` of an unordered container feeding a constructor or
    algorithm;
  * sorting by ``std::hash`` (the sorted order *is* hash order);
  * sorting a ``std::vector<T*>`` by raw pointer value (address order is
    allocation order, not input order).

Labels propagate through assignments, container pushes, and one level of
helper calls (summaries: which labels a helper's return carries, and which
parameters the helper feeds into a sink unsorted). A *canonicalizer*
clears labels: ``std::sort``/``stable_sort``/``ranges::sort`` with a
deterministic key. A finding fires when a ``hash-order`` value reaches a
*sink*: Matching mutation (``add`` / ``remove_at`` / ``augment``), an
oracle query (``find_matching``, ``query*``, ``static_weak_boost``), a
rebuild/replay entry point, or a golden digest.

Scope: src/core, src/dynamic, src/graph (helper summaries are built from
every analyzed file so cross-file helpers still resolve).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import source_model as sm

TAINT_DIRS = {"core", "dynamic", "graph"}
HASH_ORDER = "hash-order"

RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
SORT_CALL_RE = re.compile(r"\b(?:std::)?(?:ranges::)?(?:stable_)?sort\s*\(")
PUSH_RE = re.compile(
    rf"\b({sm.IDENT})(?:\s*(?:\.|->)\s*{sm.IDENT})*?\s*(?:\.|->)\s*"
    rf"(?:push_back|emplace_back|emplace|insert|push)\s*\("
)
INDEX_ASSIGN_RE = re.compile(rf"\b({sm.IDENT})\s*\[[^\]]*\]\s*(?<![=!<>])=(?!=)")
ASSIGN_RE = re.compile(rf"\b({sm.IDENT})\s*(?<![=!<>+\-*/&|^])=(?!=)\s*(.+)$")
BEGIN_RE = re.compile(rf"\b({sm.IDENT})\s*\.\s*c?begin\s*\(\s*\)")
CALL_RE = re.compile(rf"\b({sm.IDENT})\s*\(")
IDENT_RE = re.compile(rf"\b({sm.IDENT})\b")

# (pattern, sink kind). Each fires only when a hash-order value appears in
# the call's arguments, so a clean tree pays nothing for the breadth here.
SINK_RES: tuple[tuple[re.Pattern[str], str], ...] = (
    (
        re.compile(rf"\b{sm.IDENT}\s*(?:\.|->)\s*(add|remove_at|augment)\s*\("),
        "Matching mutation",
    ),
    (
        re.compile(
            r"\b(find_matching|query_cover|static_weak_boost)\s*\("
        ),
        "oracle query",
    ),
    (re.compile(r"(?:\.|->)\s*(query)\s*\("), "oracle query"),
    (re.compile(rf"\b(\w*rebuild\w*)\s*\("), "rebuild/replay entry"),
    (re.compile(rf"\b(\w*digest\w*)\s*\("), "golden digest"),
)

NOT_HELPERS = sm.NON_FUNCTION_KEYWORDS | {
    "sort",
    "stable_sort",
    "push_back",
    "emplace_back",
    "emplace",
    "insert",
    "push",
    "begin",
    "end",
    "cbegin",
    "cend",
    "size",
    "empty",
    "find",
    "count",
    "reserve",
    "clear",
    "resize",
}


@dataclass
class HelperSummary:
    name: str
    returns_labels: set[str] = field(default_factory=set)
    # param name -> sink kind it reaches uncanonicalized inside the helper.
    param_sinks: dict[str, str] = field(default_factory=dict)

    def interesting(self) -> bool:
        return bool(self.returns_labels or self.param_sinks)


def _split_range_for(paren_text: str) -> tuple[str, str] | None:
    """('decl', 'iterable') for a range-for's paren text, None for a classic
    for (top-level ';') or no loop colon."""
    depth = 0
    for i, c in enumerate(paren_text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif depth == 0:
            if c == ";":
                return None
            if (
                c == ":"
                and (i == 0 or paren_text[i - 1] != ":")
                and (i + 1 >= len(paren_text) or paren_text[i + 1] != ":")
            ):
                return paren_text[:i], paren_text[i + 1 :]
    return None


def _loop_var_names(decl: str) -> list[str]:
    binding = re.search(r"\[([^\]]*)\]", decl)
    if binding:
        return [
            n.strip()
            for n in binding.group(1).split(",")
            if n.strip() and n.strip() != "_"
        ]
    m = re.search(rf"({sm.IDENT})\s*$", decl)
    return [m.group(1)] if m else []


def _base_ident(expr: str) -> str | None:
    m = re.search(rf"({sm.IDENT})", expr.strip().lstrip("*&("))
    return m.group(1) if m else None


def _labels_in(expr: str, taint: dict[str, set[str]]) -> set[str]:
    labels: set[str] = set()
    for m in IDENT_RE.finditer(expr):
        labels |= taint.get(m.group(1), set())
    return labels


def _region_end(sf: sm.SourceFile, for_open: int) -> int:
    """Offset of the end of a for statement's body (brace-matched, or the
    next ';' for a braceless body)."""
    _args, close = sm.call_argument_text(sf.text, for_open)
    i, n = close, len(sf.text)
    while i < n and sf.text[i] in " \t\n":
        i += 1
    if i < n and sf.text[i] == "{":
        depth = 0
        while i < n:
            if sf.text[i] == "{":
                depth += 1
            elif sf.text[i] == "}":
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return n
    while i < n and sf.text[i] != ";":
        i += 1
    return i


def _analyze_function(
    sf: sm.SourceFile,
    fn: sm.FunctionDef,
    summaries: dict[str, HelperSummary] | None,
    findings: list[sm.Finding] | None,
) -> HelperSummary:
    """Single forward pass over a function body. With ``summaries`` (second
    pass) hash-order labels reaching sinks are reported into ``findings``;
    without (first pass) the returned HelperSummary records what a caller
    needs to know."""
    summary = HelperSummary(fn.name)
    taint: dict[str, set[str]] = {p: {f"param:{p}"} for p in fn.params}
    # (region_end_offset, labels) for active tainted range-for bodies.
    regions: list[tuple[int, set[str]]] = []
    reported: set[tuple[int, str]] = set()

    first = sf.line_of(fn.body_start) - 1  # 0-based
    last = sf.line_of(fn.body_end) - 1

    def region_labels(off: int) -> set[str]:
        labels: set[str] = set()
        for end, lbls in regions:
            if off <= end:
                labels |= lbls
        return labels

    def sink_hit(idx: int, kind: str, name: str, labels: set[str]) -> None:
        if HASH_ORDER in labels:
            if findings is not None and (idx, name) not in reported:
                reported.add((idx, name))
                sm.report(
                    findings,
                    sf,
                    idx,
                    "unordered-order-taint",
                    f"hash-ordered value reaches {kind} '{name}' without "
                    "canonicalization; sort the collected values first",
                )
        for lbl in labels:
            if lbl.startswith("param:"):
                summary.param_sinks.setdefault(lbl[len("param:") :], kind)

    for idx in range(first, last + 1):
        line = sf.lines[idx]
        line_off = sf.line_starts[idx]

        # -- range-for sources ------------------------------------------------
        for m in RANGE_FOR_RE.finditer(line):
            open_off = line_off + m.end() - 1
            paren_text, _close = sm.call_argument_text(sf.text, open_off)
            split = _split_range_for(paren_text)
            if split is None:
                continue
            decl, iterable = split
            base = _base_ident(iterable)
            labels: set[str] = set()
            if base is not None:
                if base in sf.unordered_vars:
                    labels.add(HASH_ORDER)
                labels |= taint.get(base, set())
            if sf.ast_unordered is not None and (idx + 1) in sf.ast_unordered:
                labels.add(HASH_ORDER)
            # Strong update: the loop vars are fresh declarations, so a
            # clean iterable *clears* any stale taint from an earlier
            # same-named binding (the collect-then-sort second loop).
            for var in _loop_var_names(decl):
                if labels:
                    taint[var] = set(labels)
                else:
                    taint.pop(var, None)
            if labels:
                regions.append((_region_end(sf, open_off), set(labels)))

        # -- sorts: canonicalizer or source -----------------------------------
        for m in SORT_CALL_RE.finditer(line):
            open_off = line_off + m.end() - 1
            arg_text, _close = sm.call_argument_text(sf.text, open_off)
            args = sm.split_arguments(arg_text)
            if not args:
                continue
            base = _base_ident(args[0])
            if base is None:
                continue
            if "std::hash" in arg_text:
                taint[base] = set(taint.get(base, set())) | {HASH_ORDER}
                continue
            comparator = args[2] if len(args) >= 3 else ""
            if base in sf.ptr_vector_vars:
                # Sorting pointers canonicalizes only when the comparator
                # looks through them (member access) — bare `a < b` is
                # address order.
                if comparator and ("->" in comparator or "." in comparator):
                    taint.pop(base, None)
                else:
                    taint[base] = set(taint.get(base, set())) | {HASH_ORDER}
                continue
            taint.pop(base, None)

        am = ASSIGN_RE.search(line)
        in_region = region_labels(line_off)

        # -- plain assignment: strong update (a clean RHS clears taint) -------
        if am is not None:
            rhs_labels = _labels_in(am.group(2), taint) | in_region
            if rhs_labels:
                taint[am.group(1)] = set(rhs_labels)
            else:
                taint.pop(am.group(1), None)

        # -- pushes: inherit region labels + argument labels ------------------
        for m in PUSH_RE.finditer(line):
            open_off = line_off + line[m.start() :].index("(") + m.start()
            arg_text, _close = sm.call_argument_text(sf.text, open_off)
            labels = set(in_region) | _labels_in(arg_text, taint)
            if labels:
                target = m.group(1)
                taint[target] = set(taint.get(target, set())) | labels
        for m in INDEX_ASSIGN_RE.finditer(line):
            labels = set(in_region) | _labels_in(
                line[m.end() :], taint
            )
            if labels:
                target = m.group(1)
                taint[target] = set(taint.get(target, set())) | labels

        # -- unordered begin() feeding a constructor/algorithm ----------------
        for m in BEGIN_RE.finditer(line):
            if m.group(1) in sf.unordered_vars:
                if am is not None:
                    target = am.group(1)
                    taint[target] = set(taint.get(target, set())) | {
                        HASH_ORDER
                    }
                else:
                    dm = re.search(
                        rf"({sm.IDENT})\s*[({{]\s*{m.group(1)}\s*\.\s*c?begin",
                        line,
                    )
                    if dm:
                        taint[dm.group(1)] = set(
                            taint.get(dm.group(1), set())
                        ) | {HASH_ORDER}

        # -- helper calls (one level) -----------------------------------------
        if summaries is not None:
            for m in CALL_RE.finditer(line):
                name = m.group(1)
                helper = summaries.get(name)
                if helper is None or name in NOT_HELPERS:
                    continue
                open_off = line_off + m.end() - 1
                arg_text, _close = sm.call_argument_text(sf.text, open_off)
                args = sm.split_arguments(arg_text)
                for pname, kind in helper.param_sinks.items():
                    for arg in args:
                        if HASH_ORDER in _labels_in(arg, taint):
                            sink_hit(
                                idx,
                                f"{kind} (inside helper '{name}')",
                                name,
                                {HASH_ORDER},
                            )
                            break
                if helper.returns_labels and am is not None:
                    mapped: set[str] = set()
                    for lbl in helper.returns_labels:
                        if lbl == HASH_ORDER:
                            mapped.add(HASH_ORDER)
                        elif lbl.startswith("param:"):
                            pname = lbl[len("param:") :]
                            try:
                                pos = helper_param_pos(helper, pname)
                            except ValueError:
                                pos = None
                            if pos is not None and pos < len(args):
                                mapped |= _labels_in(args[pos], taint)
                    if mapped:
                        target = am.group(1)
                        taint[target] = set(taint.get(target, set())) | mapped

        # -- sinks ------------------------------------------------------------
        for pattern, kind in SINK_RES:
            for m in pattern.finditer(line):
                open_at = line.index("(", m.end() - 1)
                open_off = line_off + open_at
                arg_text, _close = sm.call_argument_text(sf.text, open_off)
                labels = _labels_in(arg_text, taint)
                if labels:
                    sink_hit(idx, kind, m.group(1), labels)

        # -- returns feed the summary -----------------------------------------
        rm = re.search(r"\breturn\b(.*)$", line)
        if rm:
            summary.returns_labels |= _labels_in(rm.group(1), taint)

    return summary


# Helper-summary params are recorded by name; callers need positions. The
# first pass stores names only, so positions resolve through the defining
# FunctionDef — kept in a registry keyed by helper name.
_PARAM_ORDER: dict[str, list[str]] = {}


def helper_param_pos(helper: HelperSummary, pname: str) -> int | None:
    order = _PARAM_ORDER.get(helper.name, [])
    if pname in order:
        return order.index(pname)
    raise ValueError(pname)


def check(
    files: list[sm.SourceFile], taint_all: bool = False
) -> list[sm.Finding]:
    # Pass 1: helper summaries from every file (no cross-function info).
    summaries: dict[str, HelperSummary] = {}
    for sf in files:
        for fn in sf.functions:
            s = _analyze_function(sf, fn, None, None)
            if s.interesting() and fn.name not in NOT_HELPERS:
                _PARAM_ORDER[fn.name] = fn.params
                prev = summaries.get(fn.name)
                if prev is None:
                    summaries[fn.name] = s
                else:  # same-name helpers: conservative union
                    prev.returns_labels |= s.returns_labels
                    prev.param_sinks.update(s.param_sinks)

    # Pass 2: report hash-order flows in the scoped subsystems.
    findings: list[sm.Finding] = []
    for sf in files:
        if not taint_all and sf.subsystem not in TAINT_DIRS:
            continue
        for fn in sf.functions:
            _analyze_function(sf, fn, summaries, findings)
    return findings
