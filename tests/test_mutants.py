"""The mutation register (``tests/mutants.py``) tracks the code: no mutant is run here."""

import re

import mutants

from ergodiclab import verification


def test_every_old_text_occurs_exactly_once():
    assert mutants.stale(mutants.MUTANTS) == []


def test_every_check_has_one_mutant_and_every_mutant_a_name_of_its_own():
    assert [m.name for m in mutants.CHECK_MUTANTS] == [check.__name__ for check in verification.CHECKS]
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_every_named_test_is_defined_in_its_file():
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, name = re.fullmatch(r"(tests/\w+\.py)::(\w+)(\[.+\])?", node).group(1, 2)
            assert f"def {name}(" in (mutants.ROOT / path).read_text(), node
