"""Acceptance gate: every shipped claim runs once and reports a single
pass/fail line with its measured detail and time budget."""

import pytest

from quaddyn.acceptance import ALL_CRITERIA, run_criterion


def _ident(entry):
    return entry[3].__name__.replace("criterion_", "")


@pytest.mark.parametrize("entry", ALL_CRITERIA, ids=_ident)
def test_criterion(entry):
    result = run_criterion(*entry)
    print(result.line)
    assert result.passed, result.line
