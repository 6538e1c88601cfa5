"""Every recorded mutant of ``tests/mutants.py`` is killed by its tests.

The mutant runs are behind the ``mutants`` marker, which the default run
deselects; run them with ``python -m pytest -m mutants``.  Each mutant runs
its tests in a subprocess, one mutant at a time."""

import pytest

import mutants


@pytest.mark.mutants
@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_mutant_is_killed(mutant):
    assert mutants.run(mutant) == "killed"


@pytest.fixture
def fresh_baseline():
    mutants.baseline.cache_clear()
    yield
    mutants.baseline.cache_clear()


def test_no_mutant_is_killed_by_tests_that_fail_without_it(monkeypatch, fresh_baseline):
    """With the named tests failing on the unmutated ``src/``, a mutant reads
    as a failed baseline, not as killed, and no mutated copy is tested."""
    runs = []

    def failing(tests, src):
        runs.append(src)
        return 1

    monkeypatch.setattr(mutants, "_pytest", failing)
    assert mutants.run(mutants.MUTANTS[0]) == \
        "baseline fails: its tests exit 1 on the unmutated src/"
    assert runs == [mutants.SRC]
