"""Vectorised trial engine for the electronic and cold-atom variants.

One call runs a batch of trials as array operations on an ``(n, 64)`` stack of
state vectors, one row per trial.  Every trial starts in the span of the two
unit inputs ``s_up`` and ``s_dn``; the protocol steps are the ones of
:func:`edgeteleport.protocol.run_teleport_once`, which serves as the reference
the tests compare against.

Randomness never enters here: callers supply each trial's uniforms, read
from the same counter-based streams the step-by-step path draws from (see
:mod:`edgeteleport.protocol`), so both make identical branch decisions.  The
electronic engine takes one uniform per trial; the cold-atom engine asks a
callback for the uniforms of the trials still active in each round, so no
array grows with the round cap.  The setup mapping is built once per variant
by ``protocol._kernel_setup``.
"""

from __future__ import annotations

import numpy as np

from .measure import born_index
from .relax import _ORTHO_TOL, _WEIGHT_FLOOR


def _norm2(x):
    """Squared norm of each row."""
    return np.einsum("ij,ij->i", x.real, x.real) + np.einsum("ij,ij->i", x.imag, x.imag)


def _relax(psi, pairs):
    """Row-wise ``relax.relax_to_ground`` over cached (basis, ground) pairs."""
    out = np.zeros_like(psi)
    for basis, ground in pairs:
        x = (psi @ basis.conj()) @ basis.T
        w = np.sqrt(_norm2(x))
        keep = w > _WEIGHT_FLOOR
        if not keep.any():
            continue
        y = (x[keep] @ ground.conj()) @ ground.T
        wy = np.sqrt(_norm2(y))
        if np.any(wy < _ORTHO_TOL * w[keep]):
            raise RuntimeError(
                "sector component is orthogonal to its sector ground space; "
                "relaxation target undefined"
            )
        out[keep] += y * (w[keep] / wy)[:, None]
    total = np.sqrt(_norm2(out))
    if np.any(total < _WEIGHT_FLOOR):
        raise RuntimeError("relaxation produced the zero vector")
    return out / total[:, None]


def _measure_and_correct(setup, psi, u, g1s, g2s):
    """Alice's gates and (J, Jz) measurement, Bob's correction and fidelity.

    Returns the index into ``protocol.BRANCHES`` (``-1`` for an outcome
    outside the four branches) and Bob's fidelity for every row of ``psi``.
    """
    coeffs = [psi @ cols for cols in setup["alice_cols"]]
    probs = np.stack([_norm2(c) for c in coeffs], axis=1)
    sector = born_index(probs, u)
    fid = np.empty(len(psi))
    sign = setup["b_sign"]
    for s, up_rows, dn_rows in setup["bob_rows"]:
        rows = sector == s
        c = coeffs[s][rows] / np.sqrt(probs[rows, s])[:, None]
        au, ad = c @ up_rows.T, c @ dn_rows.T
        r00, r11 = _norm2(au), _norm2(ad)
        r01 = (au * ad.conj()) @ sign
        g1, g2 = g1s[rows], g2s[rows]
        val = np.abs(g1) ** 2 * r00 + np.abs(g2) ** 2 * r11 + 2.0 * (g1.conj() * r01 * g2).real
        tr = r00 + r11
        ratio = np.divide(val, tr, out=np.zeros_like(tr), where=tr > 0.0)
        fid[rows] = np.sqrt(np.maximum(ratio, 0.0))
    return setup["branch_of_sector"][sector], fid


def electronic_batch(setup, g1s, g2s, u_branch):
    """Branch index and fidelity of each electronic trial."""
    psi = g1s[:, None] * setup["s_up"] + g2s[:, None] * setup["s_dn"]
    return _measure_and_correct(setup, psi, u_branch, g1s, g2s)


def coldatom_batch(setup, g1s, g2s, draw, max_rounds):
    """Branch index, rounds and fidelity of each cold-atom trial.

    ``draw(rows, k)`` returns, for the trials at the integer array ``rows``,
    their ``k``-th uniform in stream order (``k`` a scalar or one entry per
    row): draw ``r - 1`` decides class measurement ``r`` and draw ``rounds``
    the branch.  Hitting ``max_rounds`` raises, as in the step-by-step path.
    """
    n = len(g1s)
    p_int = setup["p_int"]
    psi = g1s[:, None] * setup["s_up"] + g2s[:, None] * setup["s_dn"]
    rounds = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    for r in range(1, max_rounds + 1):
        x = psi[active] @ p_int.T
        p = _norm2(x)
        rounds[active] = r
        hit = draw(active, r - 1) < p
        psi[active[hit]] = x[hit] / np.sqrt(p[hit])[:, None]
        miss = ~hit
        y = psi[active[miss]] - x[miss]
        active = active[miss]
        if not active.size:
            break
        if r == max_rounds:
            raise RuntimeError(
                f"no integer-spin outcome after {max_rounds} restarts; "
                "statistically unreachable, check the setup"
            )
        psi[active] = _relax(y / np.sqrt(_norm2(y))[:, None], setup["relax_pairs"])
    u_branch = draw(np.arange(n), rounds)
    branch, fid = _measure_and_correct(setup, psi, u_branch, g1s, g2s)
    return branch, rounds, fid
