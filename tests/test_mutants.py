"""The mutant catalogue (``mutants.py``) still applies to the code.

Running the catalogue takes a pytest run per mutant, so Tier-1 checks only
that each entry can still be applied and names tests that exist; the
catalogue's own runner, a CI step, checks that each mutant is killed.
"""

import re

import pytest

from treelift.walks import VERDICT_NAMES

from mutants import MUTANTS, ROOT, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_old_string_occurs_exactly_once(mutant):
    assert occurrences(mutant) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, _, function = test_id.partition("::")
        function = function.partition("[")[0]
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {function}\(", source, re.M), test_id


def test_every_verdict_has_a_mutant_and_every_name_is_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    assert {name.partition(":")[0] for name in names} >= set(VERDICT_NAMES)
