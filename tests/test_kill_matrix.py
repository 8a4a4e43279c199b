"""The kill matrix: each registered mutant that the suite is said to kill fails every test listed for it.

The tests run in this process under the mutant's patch (``mutants.run_tests``); ``sweep_mutants.py`` runs each
mutant against the whole suite instead, outside tier-1.
"""

import pkgutil

import mutants
import pytest

KILLED = [m for m in mutants.REGISTRY if m.status == "killed"]


def test_registry_entries_are_well_formed():
    assert len(mutants.BY_NAME) == len(mutants.REGISTRY)
    for m in mutants.REGISTRY:
        assert m.status in mutants.STATUSES and m.reason, m.name
        assert bool(m.kills) == (m.status == "killed"), m.name
        assert all(not t.startswith("tests/test_kill_matrix.py") for t in m.kills), m.name


@pytest.mark.parametrize("mutant", mutants.REGISTRY, ids=lambda m: m.name)
def test_every_mutant_applies_to_the_current_source(mutant):
    # a one-line mutant's snippet occurs exactly once in its function; every binding is replaced, then restored
    owner, name = mutant.target.rsplit(".", 1)
    original, target, bindings = pkgutil.resolve_name(mutant.target), pkgutil.resolve_name(owner), mutant.bindings()
    assert any(o is target and n == name for o, n in bindings)
    with mutant.patch():
        assert all(getattr(owner, name) is not original for owner, name in bindings)
    assert all(getattr(owner, name) is original for owner, name in bindings)


@pytest.mark.parametrize("mutant", KILLED, ids=lambda m: m.name)
def test_killed_mutant_fails_its_listed_tests(mutant):
    outcomes = mutants.run_tests(mutant.kills, mutant)
    assert {t: outcomes.get(t, "not run") for t in mutant.kills if outcomes.get(t) != "failed"} == {}
