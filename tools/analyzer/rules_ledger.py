"""single-writer-ledger: CommStats/RebuildStats counters mutate only on
coordinator paths.

PR 8's ledger discipline: the coordinator folds per-worker/per-shard
contributions *after* the join — worker lambdas accumulate into private
slots and never touch the shared counters. A ledger counter mutated
inside a parallel region is either a data race or (if atomic) an
ordering-dependent count that breaks per-cell determinism.

Structurally: a mutation (`+=`, `-=`, `++`, `--`, `=`, `.fetch_add`) of a
manifest-listed ledger field (``ledger_fields``) is a finding when it
sits inside the balanced argument extent of a parallel-region call
(``parallel_for_threads`` or a pool's ``.parallel_for``; the patterns
also keep matching ``.submit`` / ``.try_submit`` and a dedicated-thread
wrapper's launch, so such a region cannot slip back in unchecked) —
directly, or one call level down (a helper that mutates a ledger field,
called from inside the region, is flagged at the call site).

The rule has no sanctioned exceptions in ``src/``: every ledger counter
is written by the coordinator thread outside any parallel region. A
future exception needs a reviewed
``bmf-analyzer: allow(single-writer-ledger)`` suppression.
"""

from __future__ import annotations

import re

import source_model as sm

PARALLEL_RES = (
    re.compile(r"\bparallel_for_threads\s*\("),
    re.compile(r"(?:\.|->)\s*(?:parallel_for|submit|try_submit)\s*\("),
    re.compile(rf"\bDedicatedThread\s+{sm.IDENT}\s*\(|\bDedicatedThread\s*\("),
)
CALL_RE = re.compile(rf"\b({sm.IDENT})\s*\(")


def _mutation_re(fields: list[str]) -> re.Pattern[str]:
    alt = "|".join(re.escape(f) for f in fields)
    return re.compile(
        rf"(?:\b({alt})\s*(?:\+=|-=|\+\+|--|=(?!=))"
        rf"|\b({alt})\s*\.\s*fetch_(?:add|sub)\s*\("
        rf"|(?:\+\+|--)\s*(?:{sm.IDENT}\s*(?:\.|->)\s*)*({alt})\b)"
    )


def _parallel_regions(sf: sm.SourceFile) -> list[tuple[int, int]]:
    regions: list[tuple[int, int]] = []
    for pattern in PARALLEL_RES:
        for m in pattern.finditer(sf.text):
            open_off = sf.text.find("(", m.end() - 1)
            if open_off < 0:
                continue
            _args, close = sm.call_argument_text(sf.text, open_off)
            regions.append((open_off, close))
    return regions


def check(files: list[sm.SourceFile], manifest: dict) -> list[sm.Finding]:
    fields = manifest.get("ledger_fields", [])
    if not fields:
        return []
    mut_re = _mutation_re(fields)

    # Pass 1: which functions mutate a ledger field anywhere in their body.
    mutators: dict[str, str] = {}  # function name -> first field it mutates
    for sf in files:
        for fn in sf.functions:
            m = mut_re.search(sf.body(fn))
            if m:
                field = m.group(1) or m.group(2) or m.group(3)
                mutators.setdefault(fn.name, field)

    findings: list[sm.Finding] = []
    for sf in files:
        regions = _parallel_regions(sf)
        if not regions:
            continue

        def in_region(off: int) -> bool:
            return any(a < off < b for a, b in regions)

        for m in mut_re.finditer(sf.text):
            if not in_region(m.start()):
                continue
            field = m.group(1) or m.group(2) or m.group(3)
            idx = sf.line_of(m.start()) - 1
            sm.report(
                findings,
                sf,
                idx,
                "single-writer-ledger",
                f"ledger counter '{field}' mutated inside a parallel "
                "region; accumulate into a per-worker slot and fold on "
                "the coordinator after the join",
            )
        for m in CALL_RE.finditer(sf.text):
            name = m.group(1)
            if name not in mutators or name in sm.NON_FUNCTION_KEYWORDS:
                continue
            if not in_region(m.start()):
                continue
            idx = sf.line_of(m.start()) - 1
            sm.report(
                findings,
                sf,
                idx,
                "single-writer-ledger",
                f"call to '{name}' inside a parallel region mutates ledger "
                f"counter '{mutators[name]}'; fold on the coordinator "
                "after the join",
            )
    return findings
