"""The invariant registry: every verify.CHECKS entry at its default sample count,
and the registration rules of verify._check."""

import math

import pytest

from qubitvar import verify
from qubitvar.errors import InvalidArgument
from qubitvar.verify import CHECKS


@pytest.mark.parametrize(
    "check, samples", CHECKS, ids=[check.__name__ for check, _ in CHECKS]
)
def test_registry_check_passes(check, samples):
    # seed 0 is the CLI default: these are the runs `qubitvar verify` makes
    result = check(samples, 0)
    assert result.passed, result.line()


def test_every_check_registered_once_under_its_name():
    registered = [fn for fn, _ in CHECKS]
    names = sorted(name for name in vars(verify) if name.startswith("check_"))
    assert sorted(fn.__name__ for fn in registered) == names
    assert all(getattr(verify, fn.__name__) is fn for fn in registered)


def test_computed_counts_and_notes_override_the_requested_count():
    # checks that run a count of their own report it, not the requested 5
    own_counts = {
        "analytic_solution_satisfies_master": 27,
        "rk4_convergence_order": 2,
        "trajectory_positivity": 9,
        "trajectory_starts_pure": 15,
        "ti1_equality_identity": 5,
        "ti1_scale_shift_invariance": 5,
        "closed_form_ti1_vs_pipeline": 50,
        "estimator_shot_error_scaling": 5,
        "serialization_determinism": 2,
    }
    results = verify.run_all(samples=5, seed=3)
    counts = {r.name: r.samples for r in results}
    assert len(counts) == len(results) == len(CHECKS)  # result names are unique
    assert counts == {name: own_counts.get(name, 5) for name in counts}
    notes = {r.name: r.note for r in results}
    assert notes["rk4_convergence_order"].startswith("deviation ")
    assert notes["serialization_determinism"] == "repeated sweep serializations are byte-identical"


def test_pass_window(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [])
    worst = [0.0]

    @verify._check("window", 7, 32.0, low=8.0)
    def check_window(samples, seed):
        return worst[0]

    assert verify.CHECKS == [(check_window, 7)]
    for value, passed in ((4.0, False), (40.0, False), (math.nan, False), (16.0, True)):
        worst[0] = value
        result = check_window(3, 0)
        assert result.passed is passed, result.line()
        assert (result.name, result.samples, result.threshold) == ("window", 3, 32.0)


def test_run_all_refuses_fewer_than_two_samples(monkeypatch):
    def must_not_run(samples, seed):
        raise AssertionError("a check ran for a refused sample count")

    monkeypatch.setattr(verify, "CHECKS", [(must_not_run, 5)])
    for samples in (1, 0, -5):
        with pytest.raises(InvalidArgument):
            verify.run_all(samples=samples)
