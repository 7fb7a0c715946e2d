"""Every family rule comes from the params object, never from its name."""

import dataclasses

import pytest

from gengap.codebook import generate_codebook
from gengap.instance_gd import GdParams
from gengap.instance_sgd import SgdParams, force_good_event_sgd
from gengap.instance_smallstep import SmallstepParams
from gengap.optim import run_gd, run_sgd, run_smallstep
from gengap.risk import gap_report, population_risk_mc
from gengap.smoothing import SmoothingConfig, verify_trajectory_preservation
from gengap.verify import check_margins, check_trajectory


def _gd():
    params = GdParams(2, 4, 8, dprime=8)
    codebook = generate_codebook(4, 8, seed=3)
    dataset = params.draw_dataset(11, "reject-until-E")[0]
    return params, codebook, dataset, run_gd(codebook, dataset, params)


def _sgd():
    params = SgdParams(4, 8, dprime=16)
    codebook = generate_codebook(8, 16, seed=3)
    dataset = force_good_event_sgd(params, 21)
    return params, codebook, dataset, run_sgd(codebook, dataset, params)


def _smallstep():
    params = SmallstepParams(eta=0.1, steps=10)
    return params, None, None, run_smallstep(params)


def _renamed(params):
    """The same instance under a params subclass that changes only family."""
    cls = type(params)
    renamed = type(f"Renamed{cls.__name__}", (cls,), {"family": "renamed"})
    return renamed(**{f.name: getattr(params, f.name)
                      for f in dataclasses.fields(params)})


@pytest.mark.parametrize("setup", [_gd, _sgd, _smallstep])
def test_reports_follow_the_params_not_the_family_name(setup):
    params, codebook, dataset, traj = setup()
    renamed = _renamed(params)
    assert renamed.family != params.family
    assert renamed.dim == params.dim

    for check in (check_trajectory, check_margins):
        assert check(traj, renamed, dataset, codebook) \
            == check(traj, params, dataset, codebook)

    cfg = SmoothingConfig(params.smoothing_delta, 64, seed=0)
    assert verify_trajectory_preservation(codebook, dataset, renamed, cfg,
                                          steps=(1, 2, 3)) \
        == verify_trajectory_preservation(codebook, dataset, params, cfg,
                                          steps=(1, 2, 3))

    w = traj.iterate(traj.steps)
    assert population_risk_mc(w, renamed, codebook, n_samples=100) \
        == population_risk_mc(w, params, codebook, n_samples=100)

    got = gap_report(traj, dataset, renamed, codebook, suffix_lengths=(1, 2),
                     n_samples=100)
    want = gap_report(traj, dataset, params, codebook, suffix_lengths=(1, 2),
                      n_samples=100)
    assert [r.family for r in got] == ["renamed"] * 2
    assert [dataclasses.replace(r, family=params.family) for r in got] == want
