"""lock-order: the global bmf::Mutex acquisition graph must stay acyclic
and every nesting must be declared.

The annotated mutex layer (ThreadPool, BoundedQueue, MatchingService)
acquires exclusively through the
``bmf::MutexLock`` RAII guard, which makes acquisition *sites* and their
block-scoped lifetimes recoverable structurally:

  * every ``MutexLock l(expr)`` is an acquisition of the mutex named by
    ``expr``'s final member component, resolved to a class-qualified id
    (``MatchingService::registry_mutex_``) via the tree-wide Mutex
    declaration registry;
  * a guard holds from its declaration to the end of its enclosing block
    (tracked by brace depth), so an acquisition while another guard is
    live records the edge ``held -> new``;
  * one level of interprocedural flow: a call made while holding adds
    edges to the callee's own direct acquisitions (callees resolve by
    receiver type when the receiver is a known member/local, by class
    for unqualified self-calls, and are skipped when ambiguous — a
    missed edge beats a fabricated deadlock).

Failures: any cycle in the observed graph, and any observed edge absent
from the checked-in whitelist (``lock_order_manifest.json`` →
``allowed_edges``). The manifest itself is also checked for cycles so the
whitelist cannot quietly bless a deadlock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import source_model as sm

ACQUIRE_RE = re.compile(
    rf"\bMutexLock\s+{sm.IDENT}\s*[({{]\s*([\w.\->]+?)\s*[,)}}]"
)
CALL_RE = re.compile(
    rf"(?:\b({sm.IDENT})\s*(?:\.|->)\s*)?\b({sm.IDENT})\s*\("
)
VAR_TYPE_RE = re.compile(
    rf"\b([A-Z]\w*)\s*(?:<[^;=(){{}}]*>)?\s+(?:&\s*)?({sm.IDENT})\s*[;{{(=]"
)

NOT_CALLEES = sm.NON_FUNCTION_KEYWORDS | {
    "MutexLock",
    "BMF_REQUIRES",
    "BMF_ACQUIRE",
    "BMF_RELEASE",
    "BMF_GUARDED_BY",
    "wait",
    "notify_one",
    "notify_all",
}


@dataclass
class Acquisition:
    off: int  # offset into the file's stripped text
    depth: int  # brace depth inside the function body at the guard
    mutex_id: str


@dataclass
class Edge:
    src: str
    dst: str
    path: str
    line: int
    note: str


def _final_component(expr: str) -> str:
    return re.split(r"\.|->", expr)[-1].strip()


def _receiver_of(expr: str) -> str | None:
    parts = re.split(r"\.|->", expr)
    if len(parts) >= 2:
        m = re.search(rf"({sm.IDENT})\s*$", parts[-2])
        return m.group(1) if m else None
    return None


class _Registry:
    """Tree-wide name tables the per-function scan resolves against."""

    def __init__(self, files: list[sm.SourceFile]):
        self.mutexes: dict[str, set[str]] = {}
        self.var_types: dict[str, str] = {}
        self.functions: dict[str, list[tuple[str | None, sm.SourceFile, sm.FunctionDef]]] = {}
        for sf in files:
            for name, quals in sf.mutex_decls.items():
                self.mutexes.setdefault(name, set()).update(quals)
            for m in VAR_TYPE_RE.finditer(sf.text):
                cls, var = m.group(1), m.group(2)
                if cls in ("Mutex", "MutexLock", "CondVar"):
                    continue
                self.var_types.setdefault(var, cls)
            for fn in sf.functions:
                self.functions.setdefault(fn.name, []).append((fn.cls, sf, fn))
        # filled by check(): function qualname -> directly acquired mutex ids
        self.direct_acqs: dict[int, set[str]] = {}

    def resolve_mutex(self, sf: sm.SourceFile, fn: sm.FunctionDef, expr: str) -> str:
        name = _final_component(expr)
        recv = _receiver_of(expr)
        if recv is not None:
            recv_cls = self.var_types.get(recv)
            if recv_cls is not None:
                for qual in self.mutexes.get(name, set()):
                    if qual.split("::")[-2:] == [recv_cls, name] or (
                        len(qual.split("::")) >= 2
                        and qual.split("::")[-2].endswith(recv_cls)
                    ):
                        return qual
        quals = self.mutexes.get(name, set())
        if len(quals) == 1:
            return next(iter(quals))
        if fn.cls is not None:
            for qual in quals:
                if qual.startswith(fn.cls + "::") or f"::{fn.cls}::" in qual:
                    return qual
        local = f"<local:{fn.qualname}>::{name}"
        if local in quals:
            return local
        return name  # ambiguous — stable, unqualified

    def resolve_callee(
        self, caller: sm.FunctionDef, recv: str | None, name: str
    ) -> sm.FunctionDef | None:
        candidates = self.functions.get(name, [])
        acquiring = [
            (cls, sf, fn)
            for cls, sf, fn in candidates
            if self.direct_acqs.get(id(fn))
        ]
        if not acquiring:
            return None
        if recv is not None:
            recv_cls = self.var_types.get(recv)
            if recv_cls is not None:
                typed = [
                    fn
                    for cls, _sf, fn in acquiring
                    if cls is not None
                    and (cls == recv_cls or cls.endswith("::" + recv_cls))
                ]
                if len(typed) == 1:
                    return typed[0]
            return None  # method call on an unresolvable receiver — skip
        same_cls = [
            fn for cls, _sf, fn in acquiring if cls is not None and cls == caller.cls
        ]
        if len(same_cls) == 1:
            return same_cls[0]
        if len(acquiring) == 1:
            return acquiring[0][2]
        return None


def _scan_function(
    reg: _Registry, sf: sm.SourceFile, fn: sm.FunctionDef
) -> tuple[list[Acquisition], list[Edge]]:
    body = sf.body(fn)
    base = fn.body_start + 1
    acq_at: dict[int, str] = {}
    for m in ACQUIRE_RE.finditer(body):
        acq_at[m.start()] = reg.resolve_mutex(sf, fn, m.group(1))
    call_at: dict[int, tuple[str | None, str]] = {}
    for m in CALL_RE.finditer(body):
        if m.group(2) not in NOT_CALLEES and m.start() not in acq_at:
            call_at[m.start()] = (m.group(1), m.group(2))

    acquisitions: list[Acquisition] = []
    edges: list[Edge] = []
    holds: list[Acquisition] = []
    depth = 0
    for i, c in enumerate(body):
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            holds = [h for h in holds if h.depth <= depth]
        if i in acq_at:
            acq = Acquisition(base + i, depth, acq_at[i])
            line = sf.line_of(acq.off)
            for held in holds:
                edges.append(
                    Edge(
                        held.mutex_id,
                        acq.mutex_id,
                        sf.path,
                        line,
                        f"in {fn.qualname}",
                    )
                )
            acquisitions.append(acq)
            holds.append(acq)
        elif i in call_at and holds:
            recv, name = call_at[i]
            callee = reg.resolve_callee(fn, recv, name)
            if callee is not None:
                line = sf.line_of(base + i)
                for dst in sorted(reg.direct_acqs.get(id(callee), set())):
                    for held in holds:
                        edges.append(
                            Edge(
                                held.mutex_id,
                                dst,
                                sf.path,
                                line,
                                f"in {fn.qualname} via call to "
                                f"{callee.qualname}",
                            )
                        )
    return acquisitions, edges


def _find_cycle(edges: set[tuple[str, str]]) -> list[str] | None:
    graph: dict[str, set[str]] = {}
    for src, dst in edges:
        graph.setdefault(src, set()).add(dst)
        graph.setdefault(dst, set())
    state: dict[str, int] = {}  # 0 unvisited / 1 in-stack / 2 done
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph.get(node, set())):
            if state.get(nxt, 0) == 1:
                return stack[stack.index(nxt) :] + [nxt]
            if state.get(nxt, 0) == 0:
                cycle = dfs(nxt)
                if cycle is not None:
                    return cycle
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            cycle = dfs(node)
            if cycle is not None:
                return cycle
    return None


def check(
    files: list[sm.SourceFile], manifest: dict
) -> list[sm.Finding]:
    reg = _Registry(files)
    # Pass 1: every function's direct acquisitions (callee summaries).
    per_fn: dict[int, tuple[sm.SourceFile, sm.FunctionDef]] = {}
    for sf in files:
        for fn in sf.functions:
            body = sf.body(fn)
            ids = {
                reg.resolve_mutex(sf, fn, m.group(1))
                for m in ACQUIRE_RE.finditer(body)
            }
            if ids:
                reg.direct_acqs[id(fn)] = ids
            per_fn[id(fn)] = (sf, fn)

    # Pass 2: block-scoped holds -> observed edges.
    edges: list[Edge] = []
    for sf in files:
        for fn in sf.functions:
            _acqs, fn_edges = _scan_function(reg, sf, fn)
            edges.extend(fn_edges)

    findings: list[sm.Finding] = []
    allowed = {
        (src, dst) for src, dst in manifest.get("allowed_edges", [])
    }

    manifest_cycle = _find_cycle(set(allowed))
    if manifest_cycle is not None:
        findings.append(
            sm.Finding(
                "lock_order_manifest.json",
                1,
                "lock-order",
                "the allowed_edges whitelist itself contains a cycle: "
                + " -> ".join(manifest_cycle),
            )
        )

    observed: dict[tuple[str, str], Edge] = {}
    for e in edges:
        observed.setdefault((e.src, e.dst), e)

    cycle = _find_cycle(set(observed))
    if cycle is not None:
        witnesses = "; ".join(
            f"{observed[(a, b)].path}:{observed[(a, b)].line} "
            f"({observed[(a, b)].note})"
            for a, b in zip(cycle, cycle[1:])
            if (a, b) in observed
        )
        first = next(
            observed[(a, b)]
            for a, b in zip(cycle, cycle[1:])
            if (a, b) in observed
        )
        findings.append(
            sm.Finding(
                first.path,
                first.line,
                "lock-order",
                "lock acquisition cycle: "
                + " -> ".join(cycle)
                + f" [{witnesses}]",
            )
        )

    for (src, dst), e in sorted(observed.items()):
        if (src, dst) not in allowed:
            sf = next((f for f in files if f.path == e.path), None)
            idx = e.line - 1
            if sf is not None and sm.allowed(sf.raw_lines, idx, "lock-order"):
                continue
            findings.append(
                sm.Finding(
                    e.path,
                    e.line,
                    "lock-order",
                    f"undeclared lock nesting {src} -> {dst} ({e.note}); "
                    "declare it in tools/analyzer/lock_order_manifest.json "
                    "after reviewing the global order",
                )
            )
    return findings
