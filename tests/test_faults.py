"""Planted faults: a check whose numbers are broken must fail and name the
broken cell.  Each case patches the table a check reduces so that it reads
NaN, and asserts that the report fails with a NaN worst margin at the NaN
cell's degree."""

import math

import pytest

from durrmeyer import (SpectralCoefficients, check_lemma, verify_cesaro_contraction,
                       verify_eigenstructure, verify_kfunc_closed_form, verify_q_identity,
                       verify_telescoping)
from durrmeyer import harness, kfunc


def _nan_like(call):
    """call with its result, an array or coefficients, turned to NaN; the
    public constructor takes NaN coefficients, which from_flat refuses."""
    def planted(*args, **kwargs):
        out = call(*args, **kwargs)
        if isinstance(out, SpectralCoefficients):
            return SpectralCoefficients(out.cfg, out.values * math.nan)
        return out * math.nan
    return planted


def _nan_at_n(call, n_bad):
    """multiplier_nu_all that reads NaN on the degree n_bad only."""
    def planted(cfg, n):
        nu = call(cfg, n)
        return nu * math.nan if n == n_bad else nu
    return planted


def _nan_last_row(call):
    """_log_nu_rows with one NaN cell, at ell = 5 of the block's last degree."""
    def planted(cfg, lo, hi):
        ln = call(cfg, lo, hi).copy()
        ln[-1, 5] = math.nan
        return ln
    return planted


def _lemma(lemma_id):
    return lambda: check_lemma(lemma_id, rhos=(0.5,), n_max=64)


# (module, name, wrapper, report, the field naming the cell, its value).
# An all-NaN table is reported at its first cell in scan order.  L1-xi
# compares signs first, so at rho = 0.5 its margins stay finite up to n = 4,
# where ell = 2 and 3 are the first pair of cells of one sign.
CASES = {
    "L1": (harness, "_log_nu_rows", _nan_like, _lemma("L1"), "n", 2),
    "L1-xi": (harness, "log_gamma", _nan_like, _lemma("L1-xi"), "n", 4),
    "EQ24": (harness, "_nu_rows", _nan_like, _lemma("EQ24"), "n", 2),
    "MULT-ID": (harness, "_log_mu_rows", _nan_like, _lemma("MULT-ID"), "n", 2),
    "EIGSTRUCT": (harness, "apply_durrmeyer", _nan_like, verify_eigenstructure, "n", 2),
    "TELESCOPE": (harness, "apply_durrmeyer_spectral", _nan_like,
                  lambda: verify_telescoping(n_max=2), "n", 1),
    "QIDENT": (harness, "apply_Q", _nan_like, lambda: verify_q_identity(n_max=3), "n", 2),
    "KCLOSED": (kfunc, "k_exact_p2", _nan_like, verify_kfunc_closed_form,
                "ell_or_tau", 1),
    "CESARO": (harness, "cesaro_mean", _nan_like,
               lambda: verify_cesaro_contraction(n_max=2), "n", 0),
    "L3": (harness, "multiplier_nu_all", lambda c: _nan_at_n(c, 16), _lemma("L3"),
           "n", 16),
    "L4": (harness, "multiplier_nu_all", lambda c: _nan_at_n(c, 16), _lemma("L4"),
           "n", 16),
    "L1 one cell": (harness, "_log_nu_rows", _nan_last_row, _lemma("L1"), "n", 64),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_nan_cell_fails_its_check_and_is_reported(monkeypatch, case):
    module, name, wrap, run, field, at = CASES[case]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    rep = run()
    assert not rep.passed
    assert math.isnan(rep.worst_margin)
    worst = next(r for r in rep.rows if r.margin is not None and math.isnan(r.margin))
    assert not worst.passed
    assert getattr(worst, field) == at


def test_cesaro_rejects_an_empty_degree_range():
    with pytest.raises(ValueError, match="CESARO needs n_max >= 0, got -1"):
        verify_cesaro_contraction(n_max=-1)
