"""Run every registered mutant against the whole suite and print the tests that kill it.

    PYTHONPATH=src python tests/sweep_mutants.py [NAME ...]

For each mutant of ``mutants.REGISTRY`` (or each NAME given) the suite, ``tests`` and ``bench/tests`` without
``test_kill_matrix.py``, runs in this process under the mutant's patch.  A killer is a test that fails under
the patch but passes without it.  Each mutant's line gives its status, its number of killers, and a mismatch
with the registry: a listed test that does not fail, a ``killed`` mutant with none listed, or an
``equivalent`` or ``survivor`` one that some test kills.  The killers follow, one per line.  Exits 1 if
any line shows a mismatch.  A mutant takes about as long as the suite; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import sys

import mutants

SUITE = ("tests", "bench/tests")
ARGS = ("--ignore", str(mutants.REPO / "tests" / "test_kill_matrix.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to sweep (default: all)")
    names = parser.parse_args().names or list(mutants.BY_NAME)
    unknown = sorted(set(names) - set(mutants.BY_NAME))
    if unknown:
        parser.error(f"unknown mutants: {unknown}")
    clean = mutants.run_tests(SUITE, None, *ARGS)
    broken = sorted(t for t, o in clean.items() if o == "failed")
    print(f"clean suite: {len(clean)} tests, {len(broken)} failing", *broken, sep="\n  ", flush=True)
    bad = 0
    for name in names:
        mutant = mutants.BY_NAME[name]
        outcomes = mutants.run_tests(SUITE, mutant, *ARGS)
        killers = sorted(t for t, o in outcomes.items() if o == "failed" and clean.get(t) != "failed")
        missing = [t for t in mutant.kills if t not in killers]
        wrong = [f"listed but not killing: {t}" for t in missing]
        if mutant.status == "killed" and not mutant.kills:
            wrong.append("killed, but no test is listed")
        if mutant.status != "killed" and killers:
            wrong.append(f"{mutant.status}, but {len(killers)} tests kill it")
        bad += bool(wrong)
        print(f"{name} [{mutant.status}]: {len(killers)} killers", *wrong, *killers, sep="\n  ", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
