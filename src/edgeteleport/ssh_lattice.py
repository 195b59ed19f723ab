"""Single-particle physics of the odd-site alternating-bond chain.

Sites are labelled 1..2L+1.  Odd-even bonds (1,2), (3,4), ... carry the weak
amplitude ``t_prime``; even-odd bonds (2,3), (4,5), ... carry the strong
amplitude ``t``.  The chain is spin independent, so one spinless matrix is
stored and every level is understood to be two-fold spin degenerate.

With an odd number of sites the staggered sign flip ``psi_n -> (-1)^n psi_n``
maps an eigenstate of energy ``e`` to one of energy ``-e``, so nonzero levels
come in +/- pairs and one unpaired zero-energy level is forced.  Its
wavefunction lives on odd sites only and decays geometrically with ratio
``-t_prime/t`` from site 1:

    psi(2n+1) = sqrt((1 - r^2) / (1 - r^(2L+2))) * (-r)^n,   r = t_prime/t

The conduction/valence levels are

    e(k) = +/- sqrt((t - t_prime)^2 + 4 t t_prime cos^2(pi k / (2L+2)))

for k = 1..L, which leaves a gap around the mid-gap zero mode that approaches
|t - t_prime| (half the full band gap 2|t - t_prime|) from above as L grows.
The functions here report finite-size values; the asymptote is only quoted in
documentation.
"""

from __future__ import annotations

import ctypes
import operator
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class WireParams:
    """Chain geometry and hopping amplitudes."""

    num_sites: int
    t: float = 1.0
    t_prime: float = 0.5

    def __post_init__(self):
        # a numpy integer is stored as the equal int; a float or bool raises
        try:
            if isinstance(self.num_sites, bool):
                raise TypeError
            object.__setattr__(self, "num_sites", operator.index(self.num_sites))
        except TypeError:
            raise TypeError("num_sites must be an integer, "
                            f"not {type(self.num_sites).__name__}") from None
        if self.num_sites < 3 or self.num_sites % 2 == 0:
            raise ValueError("num_sites must be odd and >= 3")
        if not (np.isfinite(self.t) and self.t > 0):
            raise ValueError("t must be positive")
        if not (np.isfinite(self.t_prime) and self.t_prime >= 0):
            raise ValueError("t_prime must be >= 0")

    @property
    def half_length(self) -> int:
        """L with num_sites = 2L + 1."""
        return (self.num_sites - 1) // 2


@dataclass(frozen=True)
class SingleParticleLevel:
    energy: float
    amplitudes: np.ndarray = field(repr=False)
    delocalized: bool = False


#: Largest chain ``build_hamiltonian`` builds and ``numerical_spectrum`` solves: the
#: dense matrix and the fallback eigensolve take about 16 n^2 bytes (256 MiB at 4001).
MAX_DENSE_SITES = 4001

# LAPACK's tridiagonal eigenvalue solver from the scipy-openblas64 library that
# numpy wheels bundle (64-bit integers); None under any other LAPACK.  Only this
# one name is tried: a guessed integer width would corrupt memory.
try:
    _DSTERF = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dsterf_64_
except (OSError, AttributeError):
    _DSTERF = None


def _bonds(params: WireParams) -> np.ndarray:
    """The n - 1 hoppings along the chain, as a fresh contiguous float64 array.

    Raises ``ValueError`` past ``MAX_DENSE_SITES`` before anything is allocated.
    """
    n = params.num_sites
    if n > MAX_DENSE_SITES:
        raise ValueError(f"{n} sites exceed the dense chain's cap of {MAX_DENSE_SITES} sites")
    hop = np.empty(n - 1)
    hop[0::2] = params.t_prime  # bonds (2m-1, 2m), 1-based
    hop[1::2] = params.t        # bonds (2m, 2m+1)
    return hop


def build_hamiltonian(params: WireParams) -> np.ndarray:
    """Real symmetric tridiagonal hopping matrix (spinless; degeneracy 2)."""
    hop = _bonds(params)
    return np.diag(hop, 1) + np.diag(hop, -1)


def _band(params: WireParams, k):
    """Closed-form e(k) >= 0 at k in 1..L, from the bonds divided by s = max(t, t')
    so the squares stay in [0, 1]; a level past the float range raises ValueError."""
    s = max(params.t, params.t_prime)
    t, tp = params.t / s, params.t_prime / s
    with np.errstate(over="ignore"):
        e = s * np.sqrt((t - tp) ** 2 + 4 * t * tp * np.cos(np.pi * k / (params.num_sites + 1)) ** 2)
    if not np.all(np.isfinite(e)):
        raise ValueError(f"closed-form levels overflow at t={params.t!r}, t'={params.t_prime!r}")
    return e


def analytic_spectrum(params: WireParams) -> np.ndarray:
    """All 2L+1 energies in closed form, sorted ascending (one exact zero)."""
    band = _band(params, np.arange(1, params.half_length + 1))
    return np.sort(np.concatenate([-band, [0.0], band]))


def numerical_spectrum(params: WireParams) -> np.ndarray:
    """Eigenvalues of the hopping matrix, ascending; oracle for the closed form.

    ``np.linalg.eigvalsh`` runs LAPACK ``dsyevd``: an O(n^3) reduction to
    tridiagonal form, which leaves this already tridiagonal matrix as it is,
    then ``dsterf``.  Here ``dsterf`` runs directly on the zero diagonal and
    the bonds, in O(n^2) time and O(n) memory, and gives the same bits except
    where ``dsyevd`` first rescales a matrix whose largest bond lies outside
    about [1e-146, 1e146].  Where numpy's LAPACK has no such symbol, the
    dense ``eigvalsh`` runs instead.  Raises ``LinAlgError`` (a
    ``ValueError``) if the levels do not converge.
    """
    if _DSTERF is None:
        return np.linalg.eigvalsh(build_hamiltonian(params))
    e = _bonds(params)  # first: it enforces the size cap
    d = np.zeros(params.num_sites)  # dsterf overwrites both d and e
    info = ctypes.c_int64(0)
    _DSTERF(ctypes.byref(ctypes.c_int64(len(d))), ctypes.c_void_p(d.ctypes.data),
            ctypes.c_void_p(e.ctypes.data), ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return d


def zero_mode(params: WireParams) -> SingleParticleLevel:
    """The mid-gap zero-energy level, localized at site 1 when t_prime < t.

    At t_prime = t the gap closes and the state delocalizes (uniform weight on
    odd sites); the returned level then carries ``delocalized=True``.
    """
    L = params.half_length
    r = params.t_prime / params.t
    n = np.arange(L + 1)
    amps = np.zeros(params.num_sites)
    if r <= 1.0:
        amps[0::2] = (-r) ** n
    else:
        # same ray rescaled by r^-L so long chains cannot overflow
        amps[0::2] = (-1.0) ** n * (1.0 / r) ** (L - n)
    amps /= np.linalg.norm(amps)
    gap_closed = abs(params.t - params.t_prime) < 1e-12 * params.t
    return SingleParticleLevel(0.0, amps, delocalized=gap_closed)


def band_gap(params: WireParams) -> float:
    """Smallest |e| over the nonzero levels (finite-size value)."""
    return float(_band(params, params.half_length))


def spectrum_csv(params: WireParams) -> str:
    """`index,energy_analytic,energy_numeric,abs_diff` rows, 15 significant digits."""
    numeric = numerical_spectrum(params)  # first: it enforces the size cap
    exact = analytic_spectrum(params)
    rows = map("{},{:.15g},{:.15g},{:.15g}".format, range(len(exact)), exact.tolist(),
               numeric.tolist(), np.abs(exact - numeric).tolist())
    return "index,energy_analytic,energy_numeric,abs_diff\n" + "\n".join(rows) + "\n"


#: Longest chain ``zeromode_density_csv`` writes: its text is built in memory,
#: about 100 bytes per site (100 MB at the cap).
MAX_DENSITY_CSV_SITES = 1_000_001


def zeromode_density_csv(params: WireParams) -> str:
    """`site,density` rows (1-based sites) of the zero-mode probability density."""
    n = params.num_sites
    if n > MAX_DENSITY_CSV_SITES:
        raise ValueError(
            f"{n} sites exceed the zero-mode CSV's cap of {MAX_DENSITY_CSV_SITES} sites")
    density = np.square(zero_mode(params).amplitudes).tolist()
    rows = map("{},{:.15g}".format, range(1, n + 1), density)
    return "site,density\n" + "\n".join(rows) + "\n"
