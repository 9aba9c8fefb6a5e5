"""The invariant registry: every verify.CHECKS entry at its default sample count."""

import pytest

from qubitvar.verify import CHECKS


@pytest.mark.parametrize(
    "check, samples", CHECKS, ids=[check.__name__ for check, _ in CHECKS]
)
def test_registry_check_passes(check, samples):
    # seed 0 is the CLI default: these are the runs `qubitvar verify` makes
    result = check(samples, 0)
    assert result.passed, result.line()
