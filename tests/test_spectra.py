"""Closed-form spectra, admissibility, and normalized states."""

import math

import numpy as np
import pytest

from shapeinv.errors import InadmissibleState, ValidationError
from shapeinv.families import family_ids
from shapeinv.spectra import (
    admissible_range,
    eigenenergy,
    eigenstate,
    norm_coefficient,
    wavefunction,
)
from shapeinv.verify import quadrature

from test_families import fixture, simple


def test_ground_energy_is_zero_everywhere():
    for fid in family_ids():
        assert eigenenergy(fixture(fid), 0) == 0.0, fid


def test_energy_formulas():
    fp = simple("morse", 2.5, 1.0)
    assert [eigenenergy(fp, k) for k in (0, 1, 2)] == [0.0, 4.0, 6.0]
    fp = simple("scarf2", 3.2, 0.4)
    assert eigenenergy(fp, 2) == pytest.approx((2 * 3.2 - 2) * 2, rel=1e-15)
    fp = simple("harm-osc", 1.0, 0.3)
    assert eigenenergy(fp, 5) == pytest.approx(10.0)
    fp = simple("radial-osc", -0.5, 1.0)
    assert eigenenergy(fp, 3) == pytest.approx(12.0)
    e, r, k = -1.5, -20.0, 2
    fp = simple("eckart", e, r)
    ratio = r ** 2 / ((k - e) ** 2 * e ** 2)
    assert eigenenergy(fp, k) == pytest.approx(k * (k - 2 * e) * (ratio - 1), rel=1e-15)
    fp = simple("coulomb", -1.5, -0.75)
    k = 1
    ratio = (-0.75) ** 2 / ((k + 1.5) ** 2 * 1.5 ** 2)
    assert eigenenergy(fp, k) == pytest.approx(k * (k + 3) * ratio, rel=1e-15)


def test_energies_strictly_increase():
    for fid in family_ids():
        fp = fixture(fid)
        ks = admissible_range(fp).levels(6)
        es = [eigenenergy(fp, k) for k in ks]
        assert all(b > a for a, b in zip(es, es[1:])), (fid, es)


def test_admissible_ranges():
    assert admissible_range(simple("morse", 2.5, 1.0)).levels(10) == (0, 1, 2)
    assert admissible_range(simple("scarf2", 3.4, 0.7)).levels(10) == (0, 1, 2, 3)
    assert admissible_range(simple("harm-osc", 1.0, 0.3)).levels(4) == (0, 1, 2, 3, 4)
    assert admissible_range(simple("coulomb", -1.5, -0.75)).max_k is None
    assert admissible_range(simple("rosen-morse2", 3.0, 1.0)).levels(10) == (0, 1)
    assert admissible_range(simple("rosen-morse2", 4.0, 1.0)).levels(10) == (0, 1, 2)
    assert admissible_range(simple("eckart", -1.5, -20.0)).levels(10) == (0, 1, 2)
    r = admissible_range(simple("morse", 2.5, 1.0))
    assert r.contains(2) and not r.contains(3) and not r.contains(-1)


def test_inadmissible_raises():
    fp = simple("morse", 2.5, 1.0)
    with pytest.raises(InadmissibleState):
        eigenenergy(fp, 3)
    with pytest.raises(InadmissibleState):
        wavefunction(fp, 5)
    with pytest.raises(ValidationError):
        eigenenergy(fp, -1)


def test_norm_recursion_values():
    fp = simple("scarf2", 3.4, 0.7)
    assert norm_coefficient(fp, 0) == 1.0
    assert norm_coefficient(fp, 1) == pytest.approx(
        1.0 / math.sqrt(2 * 3.4 - 1), rel=1e-14)
    # two steps: eps drops by one between them
    want = 1.0 / math.sqrt((2 * 3.4 - 2) * 2) / math.sqrt(2 * (3.4 - 1) - 1)
    assert norm_coefficient(fp, 2) == pytest.approx(want, rel=1e-14)
    fp = simple("radial-osc", -0.5, 1.0)
    assert norm_coefficient(fp, 2) == pytest.approx(
        1.0 / math.sqrt(8.0) / math.sqrt(4.0), rel=1e-14)
    with pytest.raises(InadmissibleState):
        norm_coefficient(simple("scarf2", 0.3, 0.0), 1)  # radicand < 0


def count_nodes(wf, xs) -> int:
    vals = np.asarray(wf(xs))
    signs = np.sign(vals[np.abs(vals) > 1e-9 * np.max(np.abs(vals))])
    return int(np.sum(signs[1:] != signs[:-1]))


def sample_grid(fp, n=2001):
    lo, hi = fp.domain.clipped()
    lo, hi = max(lo, -9.0), min(hi, 9.0)
    return np.linspace(lo, hi, n)


def test_wavefunction_normalization_spot():
    for fid in ("morse", "scarf1", "rosen-morse2"):
        fp = fixture(fid)
        for k in admissible_range(fp).levels(2):
            wf = wavefunction(fp, k)
            val = quadrature(lambda x: wf(x) * wf(x), fp.domain, 1e-10)
            assert val == pytest.approx(1.0, abs=1e-8), (fid, k)


def test_wavefunction_nodes_match_level():
    for fid in ("scarf2", "harm-osc", "poschl-teller"):
        fp = fixture(fid)
        for k in admissible_range(fp).levels(3):
            wf = wavefunction(fp, k)
            assert count_nodes(wf, sample_grid(fp)) == k, (fid, k)


def test_complex_path_residue():
    fp = fixture("rosen-morse1")
    wf = wavefunction(fp, 1)
    xs = sample_grid(fp, 301)
    assert wf.imag_residue(xs) <= 1e-9
    fp = fixture("morse")
    assert wavefunction(fp, 1).imag_residue(sample_grid(fp, 101)) == 0.0


def test_eigenstate_bundle():
    fp = simple("morse", 2.5, 1.0)
    st = eigenstate(fp, 1)
    assert st.energy == 4.0 and st.k == 1
    assert st.wavefunction(1.0) == pytest.approx(st.wavefunction(1.0))


def test_wavefunction_domain_guard():
    fp = fixture("poschl-teller")
    wf = wavefunction(fp, 0)
    with pytest.raises(Exception):
        wf(-0.5)
