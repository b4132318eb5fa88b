#!/usr/bin/env python3
"""Fail when a CI --gtest_filter pattern matches no test.

gtest run with a filter that matches nothing prints "[  PASSED  ] 0 tests."
and exits 0, so a CI step whose suites were renamed or deleted would quietly
stop testing anything. This check lists the tests of a bmf_tests binary and
requires every positive pattern of every --gtest_filter in the given
workflow files to match at least one of them.

Usage: check_ci_filters.py <bmf_tests binary> <workflow dir or file>...
"""

import fnmatch
import pathlib
import re
import subprocess
import sys

FILTER = re.compile(r"""--gtest_filter=(?:'([^']*)'|"([^"]*)"|(\S+))""")


def list_tests(binary):
    """Full names (Suite.Test, with any parameter prefix and suffix)."""
    out = subprocess.run([binary, "--gtest_list_tests"], check=True,
                         capture_output=True, text=True).stdout
    names, suite = [], ""
    for line in out.splitlines():
        name = line.split("#", 1)[0].strip()
        if not name:
            continue
        if line.startswith(" "):
            names.append(suite + name)
        else:
            suite = name
    return names


def workflow_files(paths):
    for path in map(pathlib.Path, paths):
        if path.is_dir():
            yield from sorted(path.glob("*.y*ml"))
        else:
            yield path


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    tests = list_tests(argv[1])
    checked, failures = 0, []
    for wf in workflow_files(argv[2:]):
        for lineno, line in enumerate(wf.read_text().splitlines(), 1):
            for m in FILTER.finditer(line):
                flt = next(g for g in m.groups() if g is not None)
                # gtest syntax: POSITIVE[:POSITIVE...][-NEGATIVE[:...]]
                for pattern in filter(None, flt.split("-", 1)[0].split(":")):
                    checked += 1
                    if not any(fnmatch.fnmatchcase(t, pattern) for t in tests):
                        failures.append(f"{wf}:{lineno}: --gtest_filter pattern "
                                        f"'{pattern}' matches no test")
    for failure in failures:
        print(failure, file=sys.stderr)
    if checked == 0:
        print("no --gtest_filter patterns found", file=sys.stderr)
        return 1
    print(f"{checked} filter patterns checked against {len(tests)} tests, "
          f"{len(failures)} match nothing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
