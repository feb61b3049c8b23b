"""The epoch-ball rule: ``epoch_geometry`` and the ``SloConfig`` checks built on it."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sloopt import slo
from sloopt.core import SloConfig, Subroutine, epoch_geometry
from sloopt.harness import ExperimentSpec, run_experiment

EPSILONS = (1e-30, 1e-14, 1e-6, 2.5e-3, 1.0, 37.0, 1e2)


def accepts(sub, eps, radius, margin, ls_delta_bar):
    try:
        SloConfig(epsilon=eps, radius_D=radius, margin_d=margin, subroutine=sub,
                  ls_delta_bar=ls_delta_bar)
    except ValueError:
        return False
    return True


def earlier_rule_accepts(sub, eps, radius, margin, ls_delta_bar):
    """The four per-subroutine conditions SloConfig checked before epoch_geometry."""
    if eps <= 0 or radius <= 0 or margin < 0:
        return False
    root_eps, tol = math.sqrt(eps), 1e-12
    if sub is Subroutine.GP:
        return not (margin != 0 or radius < root_eps / 2 - tol)
    if sub is Subroutine.NGD:
        return not (margin < root_eps - tol or radius < root_eps / 2 + 2 * margin - tol)
    if sub is Subroutine.LS:
        return (math.isclose(radius, ls_delta_bar, rel_tol=tol)
                and math.isclose(margin, ls_delta_bar, rel_tol=tol)
                and not ls_delta_bar <= root_eps)
    quarter = eps ** 0.25
    return (math.isclose(margin, 2 * quarter, rel_tol=1e-9)
            and not radius < 6 * quarter - tol)


def near(b):
    """b and values a few ulps, 1e-12 and 1e-9 (absolute and relative) off it."""
    out = {b}
    for direction in (-math.inf, math.inf):
        v = b
        for _ in range(3):
            v = math.nextafter(v, direction)
            out.add(v)
    for delta in (1e-12, 2e-12, 3e-12, 1e-9):
        out.update((b - delta, b + delta, b * (1 - delta), b * (1 + delta)))
    return sorted(out)


def boundary_configs(eps):
    """(sub, radius, margin, ls_delta_bar) near every boundary of both rules."""
    root, quarter = math.sqrt(eps), eps ** 0.25
    for radius in near(root / 2) + [0.1]:
        for margin in near(0.0):
            yield Subroutine.GP, radius, margin, 1.0
    for margin in near(root):
        for radius in near(root / 2 + 2 * root) + near(root / 2 + 2 * margin):
            yield Subroutine.NGD, radius, margin, 1.0
    for ls in near(root) + near(2 * root) + near(0.5):
        for radius in near(ls):
            for margin in near(ls) + [2 * root]:
                yield Subroutine.LS, radius, margin, ls
    for margin in near(2 * quarter):
        for radius in near(6 * quarter) + near(3 * margin):
            yield Subroutine.AGP, radius, margin, 1.0


@pytest.mark.parametrize("eps", EPSILONS)
def test_no_validation_gets_looser(eps):
    """Whatever SloConfig accepts, the earlier rule accepted too; whatever it
    newly rejects lies within 3e-12 (1e-12 relative for LS, 1e-9 relative for
    the AGP margin) of a configuration it accepts."""
    newly_rejected = 0
    for sub, radius, margin, ls in boundary_configs(eps):
        now = accepts(sub, eps, radius, margin, ls)
        before = earlier_rule_accepts(sub, eps, radius, margin, ls)
        assert before or not now, (sub, eps, radius, margin, ls)
        if now or not before:
            continue
        newly_rejected += 1
        if sub is Subroutine.LS:
            near_ball = (ls, ls, ls)
            bound = 1e-12 * ls
        else:
            near_ball = (*epoch_geometry(sub, eps, radius, margin), ls)
            bound = 3e-12 * max(1.0, radius)
        assert accepts(sub, eps, *near_ball)
        r_off, m_off, ls_off = (abs(a - b) for a, b in zip(near_ball, (radius, margin, ls)))
        if sub is Subroutine.AGP:
            assert m_off <= 1e-9 * near_ball[1]
            m_off = 0.0
        assert max(r_off, m_off, ls_off) <= bound, (sub, eps, radius, margin, ls)
    assert newly_rejected > 0  # the grid reaches the tightened boundaries


@settings(max_examples=400, deadline=None)
@given(sub=st.sampled_from(list(Subroutine)), log_eps=st.floats(-14, 2),
       radius=st.floats(0, allow_infinity=False), margin=st.floats(0, allow_infinity=False))
def test_epoch_geometry_is_a_valid_fixed_point(sub, log_eps, radius, margin):
    eps = 10.0 ** log_eps
    ball = epoch_geometry(sub, eps, radius, margin)
    # an NGD margin above half the largest float overflows D, which SloConfig rejects
    assert accepts(sub, eps, *ball, ball[0]) == math.isfinite(ball[0])
    assert epoch_geometry(sub, eps, *ball) == ball


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(0, exclude_min=True, allow_infinity=False),
       radius=st.floats(allow_nan=False, allow_infinity=False),
       margin=st.floats(0, allow_infinity=False))
@example(eps=1e-6, radius=0.1, margin=1e308)
@example(eps=1e-6, radius=0.1, margin=0.0)
def test_spec_rejects_exactly_the_settings_whose_epoch_ball_overflows(eps, radius, margin):
    subs = {"pgd": Subroutine.GP, "ngd": Subroutine.NGD, "ls": Subroutine.LS,
            "agp": Subroutine.AGP}
    finite = all(math.isfinite(epoch_geometry(sub, eps, radius, margin)[0])
                 for sub in subs.values())
    try:
        ExperimentSpec(methods=tuple(subs), epsilon=eps, radius=radius, margin=margin)
    except ValueError as exc:
        assert not finite, exc
        assert str(exc) == "radius_D must be positive and finite"
    else:
        assert finite


def test_each_method_hands_one_config_to_every_round(tmp_path, monkeypatch):
    configs, run_slo = [], slo.run_slo
    monkeypatch.setattr(slo, "run_slo", lambda o, x, cfg: configs.append(cfg) or run_slo(o, x, cfg))
    run_experiment(ExperimentSpec(problem="quartic", methods=("pgd", "ls"), rounds=3,
                                  budget_evals=5, output_dir=str(tmp_path)))
    # the runs alternate pgd, ls round by round
    assert [cfg.subroutine for cfg in configs] == [Subroutine.GP, Subroutine.LS] * 3
    for i in range(2):
        assert all(cfg is configs[i] for cfg in configs[i::2])


def test_epoch_geometry_keeps_a_valid_request():
    eps = 1e-6
    assert epoch_geometry(Subroutine.GP, eps, 0.1, 0.3) == (0.1, 0.0)
    assert epoch_geometry(Subroutine.NGD, eps, 0.1, 0.01) == (0.1, 0.01)
    assert epoch_geometry(Subroutine.AGP, eps, 1.0, 0.0) == (1.0, 2.0 * eps ** 0.25)


def test_ls_radius_between_root_eps_and_twice_it_is_kept(tmp_path, monkeypatch):
    eps = 1e-6
    radius = 1.5 * math.sqrt(eps)
    assert epoch_geometry(Subroutine.LS, eps, radius, 0.0) == (radius, radius)
    assert epoch_geometry(Subroutine.LS, eps, math.sqrt(eps), 0.0) == (2e-3, 2e-3)
    configs, run_slo = [], slo.run_slo
    monkeypatch.setattr(slo, "run_slo", lambda o, x, cfg: configs.append(cfg) or run_slo(o, x, cfg))
    run_experiment(ExperimentSpec(problem="quartic", methods=("ls",), epsilon=eps,
                                  radius=radius, budget_evals=5, output_dir=str(tmp_path)))
    [cfg] = configs
    assert cfg.radius_D == cfg.margin_d == cfg.ls_delta_bar == radius


def test_rejection_names_the_nearest_valid_ball():
    with pytest.raises(ValueError, match=r"nearest valid ball is \(0\.1, 0\.001\)$"):
        SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.0, subroutine=Subroutine.NGD)
    with pytest.raises(ValueError, match="LS requires radius_D = margin_d = ls_delta_bar"):
        SloConfig(epsilon=1e-6, radius_D=0.5, margin_d=0.5, subroutine=Subroutine.LS,
                  ls_delta_bar=np.nextafter(0.5, 1.0))


@pytest.mark.parametrize("sub, eps, radius, margin", [
    (Subroutine.GP, math.nan, 0.1, 0.0), (Subroutine.GP, 1e-6, math.nan, 0.0),
    (Subroutine.NGD, 1e-6, 1.0, math.nan), (Subroutine.NGD, 1e-6, math.nan, 1e-3),
    (Subroutine.AGP, 1e-6, math.nan, 2 * 1e-6 ** 0.25)])
def test_nan_epsilon_radius_or_margin_is_rejected(sub, eps, radius, margin):
    assert earlier_rule_accepts(sub, eps, radius, margin, 1.0)
    assert not accepts(sub, eps, radius, margin, 1.0)
