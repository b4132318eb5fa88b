"""Structural C++ source model shared by every bmf-analyzer rule.

The analyzer needs more than per-line regexes (function extents, class
membership, balanced-paren call arguments, block-scoped lock lifetimes)
but must stay runnable on a stdlib-only box. This module builds a small
"micro-AST" per translation unit from the comment/string-stripped text:

  * scope scan — a single pass over the stripped text tracking ``{}`` and
    classifying each opening brace as namespace / class / function / block,
    which yields every function definition's body extent, its (possibly
    class-qualified) name, and its parameter names;
  * declaration harvest — unordered-container variables (locals *and*
    members), pointer-element vectors, and ``Mutex`` declarations resolved
    to their owning class (``MatchingService::registry_mutex_``-style ids);
  * call utilities — balanced extraction of a call's full argument text
    and its top-level comma split.

When the libclang Python bindings are importable, ``ast_unordered_lines``
resolves range-fors over unordered containers against the real AST for
the rules that read them (``--use-libclang auto|no|require``); this module
stays the canonical (always-available) frontend.
"""

from __future__ import annotations

import bisect
import os
import re
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
CPP_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")
IDENT = r"[A-Za-z_]\w*"

# Suppression (sparingly, reason mandatory), on the flagged line or the line
# above.
ALLOW_RE = re.compile(r"//\s*bmf-analyzer:\s*allow\(([a-z-]+)\)\s*--\s*(\S.*)$")

RULES = (
    "unordered-order-taint",
    "lock-order",
    "relaxed-audit",
    "publication-order",
    "single-writer-ledger",
    "unordered-iteration",
    "bare-thread",
    "raw-randomness",
    "raw-openmp",
    "ungated-fanout",
    "stale-suppression",
)


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(raw_lines: list[str], line_idx: int, rule: str) -> bool:
    """True if the 0-based line or the one above carries a matching
    bmf-analyzer allow comment (non-empty reason enforced by the regex)."""
    for idx in (line_idx, line_idx - 1):
        if 0 <= idx < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[idx])
            if m and m.group(1) == rule:
                return True
    return False


def report(
    findings: list[Finding], sf: "SourceFile", idx: int, rule: str, message: str
) -> None:
    """Appends a finding at 0-based line ``idx`` unless suppressed."""
    if not allowed(sf.raw_lines, idx, rule):
        findings.append(Finding(sf.path, idx + 1, rule, message))

# Heads that can never introduce a function body even though they carry
# parentheses.
NON_FUNCTION_KEYWORDS = {
    "if",
    "for",
    "while",
    "switch",
    "catch",
    "return",
    "do",
    "else",
    "new",
    "delete",
    "throw",
    "sizeof",
    "case",
    "static_assert",
    "alignas",
    "decltype",
    "noexcept",
    "requires",
    "assert",
}

CLASS_HEAD_RE = re.compile(
    rf"\b(?:class|struct|union)\s+(?:BMF_\w+(?:\([^)]*\))?\s+)?({IDENT})"
    rf"(?:\s*(?:final)?\s*(?::[^;{{]*)?)?$"
)
ENUM_HEAD_RE = re.compile(r"\benum\b")
NAMESPACE_HEAD_RE = re.compile(rf"\bnamespace(?:\s+{IDENT}(?:::{IDENT})*)?\s*$")
QUALIFIED_NAME_RE = re.compile(rf"((?:{IDENT}::)*~?{IDENT})\s*$")

UNORDERED_DECL_RE = re.compile(
    rf"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*(?:&\s*)?"
    rf"({IDENT})\s*[;({{=,)]"
)
PTR_VECTOR_DECL_RE = re.compile(
    rf"std::vector\s*<[^;<>]*\*\s*>\s*(?:&\s*)?({IDENT})\s*[;({{=,)]"
)
MUTEX_DECL_RE = re.compile(rf"\b(?:mutable\s+)?Mutex\s+({IDENT})\s*(?:;|{{}})")


def strip_comments_and_strings(text: str) -> str:
    """Removes comments and string/char literal bodies, preserving newline
    structure (the stripped text has exactly the raw text's line count, so
    offsets into it map to correct line numbers)."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"
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
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append("\n")
            i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated — resync so one bad literal
                state = "code"  # cannot eat the rest of the file
                out.append("\n")
            i += 1
    return "".join(out)


def subsystem_of(path: str) -> str | None:
    """The path component after the last `src` component, or None."""
    parts = os.path.normpath(path).split(os.sep)
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "src":
            return parts[i + 1]
    return None


@dataclass
class FunctionDef:
    name: str  # unqualified
    qualname: str  # Class::name when resolvable
    cls: str | None  # enclosing (or signature-qualified) class
    params: list[str]
    head: str  # signature text up to the opening brace
    body_start: int  # offset of '{' in the stripped text
    body_end: int  # offset of the matching '}' (exclusive of brace)
    start_line: int  # 1-based


@dataclass
class ClassSpan:
    qualname: str
    open_off: int
    close_off: int


@dataclass
class SourceFile:
    path: str
    raw_text: str
    text: str  # stripped
    raw_lines: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    subsystem: str | None = None
    functions: list[FunctionDef] = field(default_factory=list)
    class_spans: list[ClassSpan] = field(default_factory=list)
    line_starts: list[int] = field(default_factory=list)
    unordered_vars: set[str] = field(default_factory=set)
    ptr_vector_vars: set[str] = field(default_factory=set)
    mutex_decls: dict[str, set[str]] = field(default_factory=dict)
    # 1-based lines of AST-confirmed range-fors over unordered containers;
    # None when the libclang refinement is off or unavailable.
    ast_unordered: set[int] | None = None

    def line_of(self, off: int) -> int:
        """1-based line number of an offset into the stripped text."""
        return bisect.bisect_right(self.line_starts, off)

    def enclosing_class(self, off: int) -> str | None:
        best: ClassSpan | None = None
        for span in self.class_spans:
            if span.open_off <= off <= span.close_off:
                if best is None or span.open_off > best.open_off:
                    best = span
        return best.qualname if best else None

    def function_at(self, off: int) -> FunctionDef | None:
        for fn in self.functions:
            if fn.body_start <= off <= fn.body_end:
                return fn
        return None

    def body(self, fn: FunctionDef) -> str:
        return self.text[fn.body_start + 1 : fn.body_end]


def _first_toplevel_paren(head: str) -> int:
    depth_angle = 0
    for i, c in enumerate(head):
        if c == "<":
            depth_angle += 1
        elif c == ">":
            depth_angle = max(0, depth_angle - 1)
        elif c == "(" and depth_angle == 0:
            return i
    return -1


def split_arguments(arg_text: str) -> list[str]:
    """Splits a call's argument text at top-level commas."""
    args: list[str] = []
    depth = 0
    cur: list[str] = []
    for c in arg_text:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        if c == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    tail = "".join(cur).strip()
    if tail:
        args.append(tail)
    return args


def call_argument_text(text: str, open_off: int) -> tuple[str, int]:
    """Balanced argument text of the call whose '(' sits at ``open_off``,
    plus the offset one past the closing ')'. Unterminated calls (broken
    input) consume to end of text."""
    depth = 0
    i = open_off
    n = len(text)
    while i < n:
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                return text[open_off + 1 : i], i + 1
        i += 1
    return text[open_off + 1 :], n


def _parse_params(head: str) -> list[str]:
    open_at = _first_toplevel_paren(head)
    if open_at < 0:
        return []
    arg_text, _end = call_argument_text(head, open_at)
    names: list[str] = []
    for param in split_arguments(arg_text):
        param = re.sub(r"=[^,]*$", "", param).strip()
        m = re.search(rf"({IDENT})\s*(?:\[\s*\])?$", param)
        if m and m.group(1) not in ("const", "void", "int", "auto"):
            names.append(m.group(1))
    return names


def _classify_head(
    head: str, inside_function: bool
) -> tuple[str, str | None, list[str]]:
    """Returns (kind, name, params) where kind is one of namespace / class /
    enum / function / block."""
    head = head.strip()
    if not head:
        return "block", None, []
    if ENUM_HEAD_RE.search(head):
        return "enum", None, []
    cm = CLASS_HEAD_RE.search(head)
    if cm:
        # The $-anchored pattern only matches when the class name (plus an
        # optional base clause / `final`) ends the head, which rules out
        # functions *returning* a class type ("struct Foo make() {").
        return "class", cm.group(1), []
    if NAMESPACE_HEAD_RE.search(head):
        return "namespace", None, []
    if inside_function:
        return "block", None, []
    open_at = _first_toplevel_paren(head)
    if open_at < 0:
        return "block", None, []
    before = head[:open_at].rstrip()
    if before.endswith("="):
        return "block", None, []
    nm = QUALIFIED_NAME_RE.search(before)
    if not nm:
        return "block", None, []
    name = nm.group(1)
    last = name.rsplit("::", 1)[-1].lstrip("~")
    if last in NON_FUNCTION_KEYWORDS:
        return "block", None, []
    return "function", name, _parse_params(head)


def parse_file(path: str, text: str | None = None) -> SourceFile:
    if text is None:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    stripped = strip_comments_and_strings(text)
    sf = SourceFile(path=path, raw_text=text, text=stripped)
    sf.raw_lines = text.split("\n")
    sf.lines = stripped.split("\n")
    sf.subsystem = subsystem_of(path)
    off = 0
    for line in sf.lines:
        sf.line_starts.append(off)
        off += len(line) + 1

    # ---- scope scan --------------------------------------------------------
    stack: list[tuple[str, object]] = []  # (kind, meta)
    chunk_start = 0
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "{":
            head = stripped[chunk_start:i]
            inside_fn = any(k == "function" for k, _meta in stack)
            kind, name, params = _classify_head(head, inside_fn)
            if kind == "function":
                cls = name.rsplit("::", 1)[0] if "::" in name else None
                fn = FunctionDef(
                    name=name.rsplit("::", 1)[-1],
                    qualname=name,
                    cls=cls,
                    params=params,
                    head=head.strip(),
                    body_start=i,
                    body_end=n,
                    start_line=sf.line_of(i),
                )
                stack.append((kind, fn))
            elif kind == "class":
                stack.append((kind, ClassSpan(name or "?", i, n)))
            else:
                stack.append((kind, None))
            chunk_start = i + 1
        elif c == "}":
            if stack:
                kind, meta = stack.pop()
                if kind == "function":
                    assert isinstance(meta, FunctionDef)
                    meta.body_end = i
                    if meta.cls is None:
                        # class_spans registers on pop, so the enclosing class
                        # is still on the live stack — resolve from there.
                        for k2, m2 in reversed(stack):
                            if k2 == "class" and isinstance(m2, ClassSpan):
                                meta.cls = m2.qualname
                                meta.qualname = f"{m2.qualname}::{meta.name}"
                                break
                    sf.functions.append(meta)
                elif kind == "class":
                    assert isinstance(meta, ClassSpan)
                    meta.close_off = i
                    prefix = [
                        m2.qualname
                        for k2, m2 in stack
                        if k2 == "class" and isinstance(m2, ClassSpan)
                    ]
                    meta.qualname = "::".join(prefix + [meta.qualname])
                    sf.class_spans.append(meta)
            chunk_start = i + 1
        elif c == ";":
            chunk_start = i + 1
        i += 1
    sf.functions.sort(key=lambda fn: fn.body_start)

    # ---- declaration harvest ----------------------------------------------
    for m in UNORDERED_DECL_RE.finditer(stripped):
        sf.unordered_vars.add(m.group(1))
    for m in PTR_VECTOR_DECL_RE.finditer(stripped):
        sf.ptr_vector_vars.add(m.group(1))
    for m in MUTEX_DECL_RE.finditer(stripped):
        name = m.group(1)
        cls = sf.enclosing_class(m.start())
        fn = sf.function_at(m.start())
        if cls is not None:
            qual = f"{cls}::{name}"
        elif fn is not None:
            qual = f"<local:{fn.qualname}>::{name}"
        else:
            qual = name
        sf.mutex_decls.setdefault(name, set()).add(qual)
    return sf


def ast_unordered_lines(path: str) -> set[int] | None:
    """AST-confirmed 1-based lines of range-fors over unordered containers,
    or None when the libclang bindings are unavailable or the file does not
    parse."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        tu = cindex.Index.create().parse(
            path, args=["-std=c++20", "-I", os.path.join(REPO_ROOT, "src")]
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
            raise FileNotFoundError(p)
    return sorted(set(files))
