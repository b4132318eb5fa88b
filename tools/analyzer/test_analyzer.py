#!/usr/bin/env python3
"""Fixture + real-tree tests for tools/analyzer (wired into ctest).

Every known-bad fixture under fixtures/bad/ must produce at least one
finding of the rule named by its expectations entry, and every rule must
have such a fixture; every good twin must come back completely clean under
every rule; a fixture on disk the expectations table does not mention is
itself a failure. On top of that the suite checks the analyzer against
reality:

  * the full src/ tree is clean under all rules and the default manifest;
  * the lock rule is not vacuous — it must *observe* the two manifest
    edges in src/ (a scan that sees nothing would trivially pass);
  * every manifest ledger field names an identifier in src/ code;
  * the planted-violation regression: reverting the PR 7 pair_witness
    collect-then-sort in a scratch copy of framework.cpp must trip
    unordered-order-taint.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

ANALYZER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, ANALYZER_DIR)

import bmf_analyzer  # noqa: E402
import rules_locks  # noqa: E402
import source_model as sm  # noqa: E402

FIXTURES = os.path.join(ANALYZER_DIR, "fixtures")
REPO = sm.REPO_ROOT

# fixture path relative to fixtures/bad -> set of rules it must trip.
BAD_EXPECTATIONS = {
    "src/core/raw_random.cpp": {"raw-randomness"},
    "src/core/taint_direct.cpp": {"unordered-order-taint"},
    "src/core/taint_helper.cpp": {"unordered-order-taint"},
    "src/core/unordered_commit.cpp": {"unordered-iteration"},
    "src/dynamic/bare_thread.cpp": {"bare-thread"},
    "src/dynamic/ledger_in_lambda.cpp": {"single-writer-ledger"},
    "src/dynamic/stale_suppression.cpp": {"stale-suppression"},
    "src/dynamic/taint_ptr_sort.cpp": {"unordered-order-taint"},
    "src/graph/omp_pragma.cpp": {"raw-openmp"},
    "src/graph/ungated_fanout.cpp": {"ungated-fanout"},
    "src/service/lock_undeclared.cpp": {"lock-order"},
    "src/service/publication.cpp": {"publication-order"},
    "src/service/publication_pairing.cpp": {"publication-order"},
    "src/service/relaxed_unmarked.cpp": {"relaxed-audit"},
    "src/util/lock_cycle.cpp": {"lock-order"},
}


def fixture_manifest() -> dict:
    with open(
        os.path.join(FIXTURES, "lock_order_manifest.json"), encoding="utf-8"
    ) as f:
        return json.load(f)


def default_manifest() -> dict:
    with open(bmf_analyzer.MANIFEST_PATH, encoding="utf-8") as f:
        return json.load(f)


def analyze(paths, manifest, **kwargs):
    return bmf_analyzer.analyze(
        paths, manifest, set(sm.RULES), use_libclang="auto", **kwargs
    )


def analyze_bad(rel):
    return analyze([os.path.join(FIXTURES, "bad", rel)], fixture_manifest())


def fixture_files(kind):
    root = os.path.join(FIXTURES, kind)
    out = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(sm.CPP_EXTENSIONS):
                out.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(out)


class BadFixtures(unittest.TestCase):
    def test_every_bad_fixture_is_expected(self):
        self.assertEqual(fixture_files("bad"), sorted(BAD_EXPECTATIONS))

    def test_every_rule_has_a_bad_fixture(self):
        self.assertEqual(
            set(sm.RULES), set().union(*BAD_EXPECTATIONS.values())
        )

    def test_bad_fixtures_fail_with_the_expected_rule(self):
        for rel, want_rules in BAD_EXPECTATIONS.items():
            with self.subTest(fixture=rel):
                findings = analyze_bad(rel)
                got_rules = {f.rule for f in findings}
                self.assertTrue(
                    want_rules <= got_rules,
                    f"{rel}: wanted {sorted(want_rules)}, got "
                    f"{sorted(got_rules)} from "
                    f"{[f.render() for f in findings]}",
                )

    def test_lock_cycle_names_the_cycle(self):
        findings = analyze_bad("src/util/lock_cycle.cpp")
        cycles = [f for f in findings if "cycle" in f.message]
        self.assertEqual(1, len(cycles), [f.render() for f in findings])
        self.assertIn("CyclePool::a_ -> CyclePool::b_", cycles[0].message)

    def test_ledger_catches_helper_one_level_down(self):
        findings = analyze_bad("src/dynamic/ledger_in_lambda.cpp")
        self.assertTrue(
            any("charge_round" in f.message for f in findings),
            [f.render() for f in findings],
        )

    def test_raw_random_flags_every_entropy_source(self):
        findings = analyze_bad("src/core/raw_random.cpp")
        self.assertGreaterEqual(
            len([f for f in findings if f.rule == "raw-randomness"]), 3
        )

    def test_raw_openmp_flags_the_pragma_line_only(self):
        # Exactly one finding, on the pragma line — the loop it decorates is
        # ordinary code and must not be swept up in the report.
        rel = "src/graph/omp_pragma.cpp"
        with open(os.path.join(FIXTURES, "bad", rel), encoding="utf-8") as f:
            pragma_line = 1 + next(
                i for i, line in enumerate(f) if "#pragma omp" in line
            )
        findings = analyze_bad(rel)
        omp = [f for f in findings if f.rule == "raw-openmp"]
        self.assertEqual(1, len(omp), [f.render() for f in findings])
        self.assertEqual(pragma_line, omp[0].line)
        self.assertIn("gated_threads", omp[0].message)

    def test_stale_suppression_flags_every_rot(self):
        findings = analyze_bad("src/dynamic/stale_suppression.cpp")
        stale = [f for f in findings if f.rule == "stale-suppression"]
        self.assertEqual(4, len(stale), [f.render() for f in findings])
        messages = " | ".join(f.message for f in stale)
        self.assertIn("names no known bmf-analyzer rule", messages)
        self.assertIn("lacks the mandatory ' -- <reason>' tail", messages)
        self.assertIn("uses a retired prefix", messages)
        self.assertIn("bare NOLINT", messages)


class GoodFixtures(unittest.TestCase):
    def test_good_fixtures_are_clean(self):
        manifest = fixture_manifest()
        for rel in fixture_files("good"):
            with self.subTest(fixture=rel):
                findings = analyze(
                    [os.path.join(FIXTURES, "good", rel)], manifest
                )
                self.assertEqual(
                    [],
                    [f.render() for f in findings],
                    f"{rel} should analyze clean",
                )

    def test_good_and_bad_twins_pair_up(self):
        self.assertEqual(fixture_files("bad"), fixture_files("good"))


class SuppressionPolicy(unittest.TestCase):
    def test_allow_without_reason_is_rejected(self):
        self.assertIsNone(
            sm.ALLOW_RE.search("// bmf-analyzer: allow(lock-order)")
        )

    def test_allow_with_reason_names_one_rule(self):
        m = sm.ALLOW_RE.search(
            "// bmf-analyzer: allow(relaxed-audit) -- justified elsewhere"
        )
        self.assertIsNotNone(m)
        self.assertEqual("relaxed-audit", m.group(1))


class RealTree(unittest.TestCase):
    def test_src_is_clean_under_all_rules(self):
        findings = analyze([os.path.join(REPO, "src")], default_manifest())
        self.assertEqual([], [f.render() for f in findings])

    def test_lock_rule_observes_the_manifest_edges(self):
        # Guards against a vacuously-green lock rule: the two reviewed
        # nestings must actually be seen by the scan.
        files = [
            sm.parse_file(p)
            for p in sm.collect_files([os.path.join(REPO, "src")])
        ]
        reg = rules_locks._Registry(files)
        for sf in files:
            for fn in sf.functions:
                ids = {
                    reg.resolve_mutex(sf, fn, m.group(1))
                    for m in rules_locks.ACQUIRE_RE.finditer(sf.body(fn))
                }
                if ids:
                    reg.direct_acqs[id(fn)] = ids
        observed = set()
        for sf in files:
            for fn in sf.functions:
                _acqs, edges = rules_locks._scan_function(reg, sf, fn)
                observed |= {(e.src, e.dst) for e in edges}
        for edge in default_manifest()["allowed_edges"]:
            self.assertIn(tuple(edge), observed)

    def test_every_ledger_field_occurs_in_src(self):
        # A ledger field whose subject was deleted guards nothing.
        code = "\n".join(
            sm.parse_file(p).text
            for p in sm.collect_files([os.path.join(REPO, "src")])
        )
        for name in default_manifest()["ledger_fields"]:
            with self.subTest(field=name):
                self.assertRegex(name, rf"^{sm.IDENT}$")
                self.assertRegex(code, rf"\b{name}\b")

    def test_relaxed_sites_in_src_are_all_justified(self):
        # Every memory_order_relaxed in src/ carries a relaxed-ok reason —
        # the audit half of the rule, asserted directly.
        findings = analyze([os.path.join(REPO, "src")], default_manifest())
        self.assertEqual(
            [], [f.render() for f in findings if f.rule == "relaxed-audit"]
        )


class PlantedViolation(unittest.TestCase):
    """Reverting the PR 7 hash-order fix must be caught (acceptance
    criterion: the analyzer guards the fixes, not just the fixtures)."""

    FIXED = """\
    std::vector<std::int64_t> keys;
    keys.reserve(pair_witness.size());
    for (const auto& [key, wx] : pair_witness) {
      (void)wx;
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::int64_t key : keys)
      h.edges.emplace_back(static_cast<std::int32_t>(key >> 31),
                           static_cast<std::int32_t>(key & ((1LL << 31) - 1)));
"""
    REVERTED = """\
    for (const auto& [key, wx] : pair_witness) {
      (void)wx;
      h.edges.emplace_back(static_cast<std::int32_t>(key >> 31),
                           static_cast<std::int32_t>(key & ((1LL << 31) - 1)));
    }
"""

    def test_reverting_pair_witness_sort_is_caught(self):
        src = os.path.join(REPO, "src", "core", "framework.cpp")
        with open(src, encoding="utf-8") as f:
            text = f.read()
        self.assertIn(
            self.FIXED, text,
            "framework.cpp's collect-then-sort changed shape; update the "
            "planted-violation template alongside it",
        )
        scratch = tempfile.mkdtemp(prefix="bmf_analyzer_planted_")
        try:
            planted_dir = os.path.join(scratch, "src", "core")
            os.makedirs(planted_dir)
            planted = os.path.join(planted_dir, "framework.cpp")
            with open(planted, "w", encoding="utf-8") as f:
                f.write(text.replace(self.FIXED, self.REVERTED))
            findings = analyze([planted], default_manifest())
            self.assertTrue(
                any(f.rule == "unordered-order-taint" for f in findings),
                [f.render() for f in findings],
            )
        finally:
            shutil.rmtree(scratch)

    def test_unsorting_is_caught_even_via_the_collect_vector(self):
        # Weaker revert: keep the collect loop but drop only the sort line.
        src = os.path.join(REPO, "src", "core", "framework.cpp")
        with open(src, encoding="utf-8") as f:
            text = f.read()
        no_sort = text.replace("    std::sort(keys.begin(), keys.end());\n", "")
        self.assertNotEqual(no_sort, text)
        scratch = tempfile.mkdtemp(prefix="bmf_analyzer_planted_")
        try:
            planted_dir = os.path.join(scratch, "src", "core")
            os.makedirs(planted_dir)
            planted = os.path.join(planted_dir, "framework.cpp")
            with open(planted, "w", encoding="utf-8") as f:
                f.write(no_sort)
            findings = analyze([planted], default_manifest())
            self.assertTrue(
                any(f.rule == "unordered-order-taint" for f in findings),
                [f.render() for f in findings],
            )
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
