"""relaxed-audit + publication-order: every relaxed atomic access is
justified, and the service's snapshot/epoch release pairing stays proven.

``memory_order_relaxed`` is correct in this codebase only for monotonic
counters and stop flags whose readers tolerate staleness — and each such
site must say so, with an adjacent comment:

    x_.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: stat counter

(or the marker on the line above). A relaxed access without a
``relaxed-ok:`` reason is a finding: either the order is wrong, or the
justification is missing and the next reader cannot tell which.

publication-order guards the proof obligation in
``src/service/matching_service.cpp``: the writer must release-store the
snapshot pointer (``latest_``) *before* release-storing the epoch counter
(``published_epoch_``) — a reader that observes epoch >= e is then
guaranteed to observe snapshot e via the acquire load. The code marks the
pair with ``publication-order[1]`` / ``publication-order[2]`` comments;
the rule checks, in every src/service file that release-stores
``published_epoch_``, that the markers exist, appear in order, and each
sits immediately above the matching release store.
"""

from __future__ import annotations

import re

import source_model as sm

RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_OK_RE = re.compile(r"//\s*relaxed-ok:\s*(\S.*)$")

SERVICE_DIRS = {"service"}


def _has_marker(sf: sm.SourceFile, idx: int) -> bool:
    """Marker on the flagged line, anywhere earlier in the same (possibly
    multi-line) statement, or on the line just above the statement head."""
    if idx < len(sf.raw_lines) and RELAXED_OK_RE.search(sf.raw_lines[idx]):
        return True
    i = idx - 1
    for _ in range(6):
        if i < 0:
            break
        if RELAXED_OK_RE.search(sf.raw_lines[i]):
            return True
        stripped = sf.lines[i].strip() if i < len(sf.lines) else ""
        if not stripped or stripped.endswith((";", "{", "}")):
            break  # i ended the previous statement — it was the line above
        i -= 1
    return False


def _publication_order(sf: sm.SourceFile, findings: list[sm.Finding]) -> None:
    """The markers live in the raw lines' comments; the stores are matched in
    the comment/string-stripped lines."""
    if not any("published_epoch_.store" in line for line in sf.lines):
        return

    def flag(idx: int, message: str) -> None:
        sm.report(findings, sf, idx, "publication-order", message)

    marker1 = marker2 = None
    for idx, raw in enumerate(sf.raw_lines):
        if "publication-order[1]" in raw:
            marker1 = idx
        if "publication-order[2]" in raw:
            marker2 = idx
    if marker1 is None or marker2 is None:
        flag(
            0,
            "file release-stores published_epoch_ but lacks the "
            "publication-order[1]/[2] proof markers (see "
            "docs/static_analysis.md)",
        )
    elif marker1 >= marker2:
        flag(
            marker2,
            "publication-order[2] (epoch store) precedes "
            "publication-order[1] (snapshot store): the snapshot must "
            "be release-stored first",
        )
    else:
        for marker, idx, want in (
            ("publication-order[1]", marker1, "latest_"),
            ("publication-order[2]", marker2, "published_epoch_"),
        ):
            stmt = "\n".join(sf.lines[idx + 1 : idx + 3])
            if f"{want}.store" not in stmt or "std::memory_order_release" not in stmt:
                flag(
                    idx,
                    f"{marker} must be immediately followed by "
                    f"{want}.store(..., std::memory_order_release)",
                )


def check(files: list[sm.SourceFile]) -> list[sm.Finding]:
    findings: list[sm.Finding] = []
    for sf in files:
        for idx, line in enumerate(sf.lines):
            if RELAXED_RE.search(line) and not _has_marker(sf, idx):
                sm.report(
                    findings,
                    sf,
                    idx,
                    "relaxed-audit",
                    "memory_order_relaxed without an adjacent "
                    "'// relaxed-ok: <reason>' marker; justify the relaxed "
                    "order or strengthen it",
                )
        if sf.subsystem in SERVICE_DIRS:
            _publication_order(sf, findings)
    return findings
