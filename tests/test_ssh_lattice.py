import tracemalloc

import numpy as np
import pytest

from edgeteleport import ssh_lattice
from edgeteleport.ssh_lattice import (
    MAX_DENSE_SITES,
    MAX_DENSITY_CSV_SITES,
    WireParams,
    analytic_spectrum,
    band_gap,
    build_hamiltonian,
    numerical_spectrum,
    spectrum_csv,
    zero_mode,
    zeromode_density_csv,
)


def test_build_hamiltonian_three_sites():
    h = build_hamiltonian(WireParams(3, t=1.0, t_prime=0.5))
    expected = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(h, expected)


def test_hamiltonian_is_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(1, 30)) * 2 + 1
        p = WireParams(n, t=float(rng.uniform(0.1, 2)), t_prime=float(rng.uniform(0.0, 2)))
        h = build_hamiltonian(p)
        np.testing.assert_array_equal(h, h.T)


@pytest.mark.parametrize("bad", [dict(num_sites=4), dict(num_sites=1), dict(num_sites=2)])
def test_rejects_even_or_tiny_site_counts(bad):
    with pytest.raises(ValueError):
        WireParams(**bad)


@pytest.mark.parametrize("bad", [5.0, True, "5", np.float64(5)])
def test_rejects_a_site_count_that_is_not_an_integer(bad):
    with pytest.raises(TypeError, match="num_sites must be an integer"):
        WireParams(bad)


def test_stores_a_numpy_site_count_as_an_int():
    p = WireParams(np.int64(5))
    assert type(p.num_sites) is int and p.num_sites == 5
    assert len(numerical_spectrum(p)) == 5


def test_rejects_bad_amplitudes():
    with pytest.raises(ValueError):
        WireParams(5, t=0.0)
    with pytest.raises(ValueError):
        WireParams(5, t=1.0, t_prime=-0.1)


def test_analytic_three_site_closed_form():
    # L=1, k=1: energies +-sqrt(t^2 + t'^2) around the exact zero
    spec = analytic_spectrum(WireParams(3, 1.0, 0.5))
    np.testing.assert_allclose(spec, [-np.sqrt(1.25), 0.0, np.sqrt(1.25)], atol=1e-15)


def test_analytic_matches_eigensolver_59_sites():
    p = WireParams(59, t=1.0, t_prime=2.0 / 3.0)
    np.testing.assert_allclose(analytic_spectrum(p), numerical_spectrum(p), atol=1e-10)


def test_analytic_matches_eigensolver_every_odd_size():
    rng = np.random.default_rng(11)
    for n in range(3, 202, 2):
        t = float(rng.uniform(0.1, 2.0))
        tp = float(rng.uniform(0.1, 2.0))
        p = WireParams(n, t, tp)
        np.testing.assert_allclose(analytic_spectrum(p), numerical_spectrum(p), atol=1e-10)


def test_gapless_limit_at_equal_bonds():
    # finite-size gap at t'=t is ~pi/(L+1); it must shrink towards zero
    gaps = [band_gap(WireParams(2 * L + 1, 1.0, 1.0)) for L in (5, 50, 5000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_particle_hole_pairing():
    # staggered sign flip maps an eigenvector of energy e to one of energy -e
    p = WireParams(41, 1.3, 0.7)
    h = build_hamiltonian(p)
    evals, evecs = np.linalg.eigh(h)
    flip = np.where(np.arange(p.num_sites) % 2 == 0, 1.0, -1.0)
    for k in range(p.num_sites):
        v = flip * evecs[:, k]
        assert np.linalg.norm(h @ v + evals[k] * v) < 1e-10
    np.testing.assert_allclose(np.sort(evals), np.sort(-evals), atol=1e-10)


def test_exactly_one_zero_level():
    rng = np.random.default_rng(5)
    for n in (3, 15, 59, 101):
        t = float(rng.uniform(0.5, 2.0))
        tp = float(rng.uniform(0.0, 0.9)) * t
        evals = numerical_spectrum(WireParams(n, t, tp))
        assert np.count_nonzero(np.abs(evals) < 1e-8 * t) == 1


def test_zero_mode_dimerized_limit():
    zm = zero_mode(WireParams(7, 1.0, 0.0))
    expected = np.zeros(7)
    expected[0] = 1.0
    np.testing.assert_allclose(zm.amplitudes, expected, atol=1e-15)
    assert not zm.delocalized


def test_zero_mode_three_sites():
    p = WireParams(3, 1.0, 0.5)
    zm = zero_mode(p)
    np.testing.assert_allclose(zm.amplitudes**2, [0.8, 0.0, 0.2], atol=1e-15)
    assert np.abs(build_hamiltonian(p) @ zm.amplitudes).max() < 1e-14


def test_zero_mode_termwise_profile_59_sites():
    # oracle: evaluate the geometric-decay formula term by term
    p = WireParams(59, 1.0, 2.0 / 3.0)
    L, r = p.half_length, 2.0 / 3.0
    norm = np.sqrt((1 - r**2) / (1 - r ** (2 * L + 2)))
    expected = np.zeros(59)
    for n in range(L + 1):
        expected[2 * n] = norm * (-r) ** n
    zm = zero_mode(p)
    np.testing.assert_allclose(zm.amplitudes, expected, atol=1e-12)
    assert abs(zm.amplitudes[0] ** 2 - (1 - r**2) / (1 - r**60)) < 1e-12
    assert np.all(zm.amplitudes[1::2] == 0.0)
    assert zm.energy == 0.0
    # independent route: it really is annihilated by the Hamiltonian
    assert np.abs(build_hamiltonian(p) @ zm.amplitudes).max() < 1e-12


def test_zero_mode_localization_left_and_right():
    p = WireParams(41, 1.0, 0.6)
    d = zero_mode(p).amplitudes ** 2
    assert d[0] > 1 - 0.6**2 - 1e-9
    q = WireParams(41, 0.6, 1.0)  # swapped bonds localize at the far end
    d2 = zero_mode(q).amplitudes ** 2
    assert d2[-1] > 1 - 0.6**2 - 1e-9


def test_zero_mode_stable_for_long_inverted_chains():
    # t' > t on a long chain must not overflow the geometric factors
    p = WireParams(4001, t=1.0, t_prime=2.0)
    zm = zero_mode(p)
    assert np.all(np.isfinite(zm.amplitudes))
    assert abs(np.linalg.norm(zm.amplitudes) - 1.0) < 1e-12
    assert zm.amplitudes[-1] ** 2 > 1 - 0.25 - 1e-9
    assert np.abs(build_hamiltonian(p) @ zm.amplitudes).max() < 1e-12


def test_zero_mode_flags_gap_closed():
    assert zero_mode(WireParams(9, 1.0, 1.0)).delocalized
    assert not zero_mode(WireParams(9, 1.0, 0.99)).delocalized


def test_band_gap_values():
    assert abs(band_gap(WireParams(1001, 1.0, 0.5)) - 0.5) < 1e-4
    assert abs(band_gap(WireParams(3, 1.0, 0.5)) - np.sqrt(1.25)) < 1e-15
    # finite-size gap sits above the asymptote and decreases with length
    gaps = [band_gap(WireParams(n, 1.0, 0.5)) for n in (21, 201, 2001)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.5


def test_csv_text_is_pinned():
    p = WireParams(7, 1.0, 0.5)
    assert spectrum_csv(p) == (
        "index,energy_analytic,energy_numeric,abs_diff\n"
        "0,-1.39896632596591,-1.39896632596591,2.22044604925031e-16\n"
        "1,-1.11803398874989,-1.11803398874989,0\n"
        "2,-0.73681287910395,-0.73681287910395,0\n"
        "3,0,-4.42400070226827e-17,4.42400070226827e-17\n"
        "4,0.73681287910395,0.73681287910395,1.11022302462516e-16\n"
        "5,1.11803398874989,1.1180339887499,4.44089209850063e-16\n"
        "6,1.39896632596591,1.39896632596591,4.44089209850063e-16\n")
    assert zeromode_density_csv(p) == (
        "site,density\n1,0.752941176470588\n2,0\n3,0.188235294117647\n4,0\n"
        "5,0.0470588235294118\n6,0\n7,0.0117647058823529\n")


def test_csv_outputs():
    p = WireParams(5, 1.0, 0.5)
    spec = spectrum_csv(p)
    lines = spec.split("\n")
    assert lines[0] == "index,energy_analytic,energy_numeric,abs_diff"
    assert len(lines) == 7 and lines[-1] == ""  # header + 5 rows + trailing LF
    assert "\r" not in spec

    dens = zeromode_density_csv(p)
    rows = [ln.split(",") for ln in dens.strip().split("\n")[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
    total = sum(float(r[1]) for r in rows)
    assert abs(total - 1.0) < 1e-12
    assert float(rows[1][1]) == 0.0 and float(rows[3][1]) == 0.0


_EXTREME_BONDS = [(3, 1e200, 0.5), (5, 1e300, 1e300), (5, 1e-300, 1e-300),
                  (7, 1.0, 1e300), (7, 8e307, 8e307)]


@pytest.mark.parametrize("n, t, tp", _EXTREME_BONDS)
def test_closed_form_survives_extreme_bonds(n, t, tp):
    # the squares of t and t' would overflow or underflow; the levels do not
    p = WireParams(n, t, tp)
    exact, numeric = analytic_spectrum(p), numerical_spectrum(p)
    scale = max(t, tp)
    assert np.all(np.isfinite(exact))
    assert np.abs(exact - numeric).max() <= 1e-12 * scale
    assert np.count_nonzero(exact) == n - 1
    assert band_gap(p) == np.abs(exact[exact != 0]).min()


def test_closed_form_overflow_raises_value_error_naming_the_bonds():
    p = WireParams(3, 1.7e308, 1.7e308)  # the one positive level, sqrt(2) t, is past the range
    for f in (analytic_spectrum, band_gap):
        with pytest.raises(ValueError, match=r"t=1\.7e\+308, t'=1\.7e\+308"):
            f(p)


def test_dense_chain_is_capped_before_any_allocation(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the dense chain was allocated")

    for name in ("empty", "diag", "arange"):  # arange: the closed form's O(n) levels
        monkeypatch.setattr(ssh_lattice.np, name, no_allocation)
    assert MAX_DENSE_SITES == 4001
    with pytest.raises(ValueError, match="cap of 4001 sites"):
        build_hamiltonian(WireParams(MAX_DENSE_SITES + 2))
    with pytest.raises(ValueError, match="cap of 4001 sites"):
        spectrum_csv(WireParams(10**9 + 1))


def test_zero_mode_csv_is_capped_before_any_allocation(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the zero mode was computed")

    monkeypatch.setattr(ssh_lattice, "zero_mode", no_allocation)
    for name in ("zeros", "arange"):
        monkeypatch.setattr(ssh_lattice.np, name, no_allocation)
    assert MAX_DENSITY_CSV_SITES == 1_000_001
    for n in (MAX_DENSITY_CSV_SITES + 2, 10**12 + 1):
        with pytest.raises(ValueError, match="cap of 1000001 sites"):
            zeromode_density_csv(WireParams(n))


def test_closed_forms_are_not_capped():
    p = WireParams(MAX_DENSE_SITES + 2, 1.0, 0.5)
    assert len(analytic_spectrum(p)) == p.num_sites
    assert len(zero_mode(p).amplitudes) == p.num_sites
    assert 0.5 < band_gap(p) < 0.501


def _dense_levels(p):
    return np.linalg.eigvalsh(build_hamiltonian(p))


@pytest.fixture(params=["dsterf", "dense"])
def solver_path(request, monkeypatch):
    if request.param == "dense":
        monkeypatch.setattr(ssh_lattice, "_DSTERF", None)
    return request.param


def test_solver_gives_the_dense_eigensolve_bits(solver_path):
    rng = np.random.default_rng(19)
    for n in [*range(3, 260, 2), 1001, 2001]:
        p = WireParams(n, float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.0, 2.0)))
        assert np.array_equal(numerical_spectrum(p), _dense_levels(p)), p


@pytest.mark.parametrize("n, t, tp", _EXTREME_BONDS)
def test_solver_tracks_the_dense_eigensolve_at_extreme_bonds(solver_path, n, t, tp):
    # dsyevd rescales such matrices before its own dsterf call, so the last bit may differ
    p = WireParams(n, t, tp)
    np.testing.assert_allclose(numerical_spectrum(p), _dense_levels(p), rtol=0,
                               atol=2e-15 * max(t, tp))


def test_solver_is_capped_before_any_allocation(solver_path, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the chain was allocated")

    for name in ("empty", "zeros", "diag"):
        monkeypatch.setattr(ssh_lattice.np, name, no_allocation)
    with pytest.raises(ValueError, match="cap of 4001 sites"):
        numerical_spectrum(WireParams(MAX_DENSE_SITES + 2))


def test_solver_reports_no_convergence_as_a_value_error(monkeypatch):
    def no_convergence(n, d, e, info):
        info._obj.value = 1  # LAPACK's INFO: one off-diagonal left nonzero

    monkeypatch.setattr(ssh_lattice, "_DSTERF", no_convergence)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge") as exc:
        numerical_spectrum(WireParams(5))
    assert isinstance(exc.value, ValueError)


def test_scipy_openblas_numpy_takes_the_tridiagonal_path():
    # a silent fall back to the O(n^3) dense solve must not go unnoticed
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    if lapack != "scipy-openblas":
        pytest.skip(f"numpy is built against {lapack}")
    assert ssh_lattice._DSTERF is not None


def test_solver_memory_is_linear_in_the_chain():
    if ssh_lattice._DSTERF is None:
        pytest.skip("numpy's LAPACK has no dsterf symbol; the dense fallback runs")
    p = WireParams(2001, 1.0, 0.5)  # the dense matrix alone is 32 MiB
    numerical_spectrum(p)
    tracemalloc.start()
    try:
        numerical_spectrum(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
