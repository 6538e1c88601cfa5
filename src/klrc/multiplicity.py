"""Weight multiplicities by the Freudenthal recursion.

The multiplicity of Lambda - beta in the level-k highest weight module counts
the simple modules of the block at beta.  The recursion runs entirely on
weight-root and root-root pairings, so no normalization of weight-weight
values ever enters; all arithmetic is exact and the dividing factor is
asserted to divide exactly.

Positive roots of the affine system are the finite-type positive roots and
their null-root complements, shifted by multiples of the null root; imaginary
multiples of the null root carry multiplicity equal to the finite rank.

``weight_multiplicity`` validates its value objects, and the recursion
``_mult`` runs on plain tuples, with every pairing a dot product: (Lambda, x)
= sum m_i d_i x_i and (x, alpha) = x . (d.A.alpha).  Because A.delta = 0,
(x, alpha + t*delta) = (x, alpha) for every root-lattice x, so one d.A.alpha
serves a whole delta-string (``_root_table``).

The sum runs only at dominant Lambda - beta.  Multiplicities are Weyl
invariant, so ``_mult`` straightens any other beta into the dominant chamber
and reads the entry of the straightened beta', which its whole orbit shares.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul, sub

from .cartan import RANK_CACHE_SIZE, DominantWeight, GuardError, RootVector, cartan
from .maxweights import _straighten

DEFAULT_MAX_HEIGHT = 14


@lru_cache(maxsize=RANK_CACHE_SIZE)
def finite_positive_roots(ell: int) -> tuple[RootVector, ...]:
    """Positive roots of the rank-ell finite type C system, in affine coordinates.

    eps_i - eps_j = alpha_i + ... + alpha_{j-1} for 1 <= i < j <= ell, then
    eps_i + eps_j = (alpha_i + ... + alpha_{j-1}) + 2(alpha_j + ... + alpha_{ell-1})
    + alpha_ell for 1 <= i <= j <= ell (2 eps_i at i = j).
    """
    pairs = [(i, j) for i in range(1, ell + 1) for j in range(i, ell + 1)]
    minus = [(0,) * i + (1,) * (j - i) + (0,) * (ell + 1 - j) for i, j in pairs if i < j]
    plus = [(0,) * i + (1,) * (j - i) + (2,) * (ell - j) + (1,) for i, j in pairs]
    return tuple(RootVector(coeffs) for coeffs in minus + plus)


@lru_cache(maxsize=RANK_CACHE_SIZE)
def first_layer_roots(ell: int) -> tuple[RootVector, ...]:
    """The positive real roots not exceeding the null root: gamma and delta - gamma."""
    delta = RootVector.null_root(ell)
    finite = finite_positive_roots(ell)
    layer = list(finite) + [delta - gamma for gamma in finite]
    return tuple(sorted(set(layer), key=lambda r: r.coeffs))


@lru_cache(maxsize=RANK_CACHE_SIZE)
def _root_table(ell: int) -> tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]:
    """(first-layer root or delta, root multiplicity, d.A.alpha), one row per delta-string."""
    datum = cartan(ell)
    real = tuple((gamma.coeffs, 1, tuple(map(mul, datum.d, datum.apply_matrix(gamma.coeffs))))
                 for gamma in first_layer_roots(ell))
    return real + ((datum.delta_coeffs, ell, (0,) * (ell + 1)),)


def positive_roots_within(ell: int, bound: tuple[int, ...]) -> list[tuple[RootVector, int]]:
    """All positive roots componentwise at most ``bound``, with multiplicities."""
    out = []
    delta = cartan(ell).delta_coeffs
    for root, root_mult, _ in _root_table(ell):
        while all(c <= b for c, b in zip(root, bound)):
            out.append((RootVector(root), root_mult))
            root = tuple(map(add, root, delta))
    return out


def weight_multiplicity(weight: DominantWeight, beta: RootVector, *,
                        max_height: int = DEFAULT_MAX_HEIGHT) -> int:
    """dim of the weight space Lambda - beta, i.e. the number of simple modules at beta."""
    if weight.ell != beta.ell:
        raise ValueError("rank mismatch")
    if not beta.in_positive_cone():
        raise ValueError("beta must lie in the positive cone")
    if beta.height > max_height:
        raise GuardError(f"height {beta.height} exceeds the cap of {max_height}")
    return _mult(weight.m, beta.coeffs)


@lru_cache(maxsize=4096)
def _mult(m: tuple[int, ...], coeffs: tuple[int, ...]) -> int:
    beta = _straighten(m, coeffs)[0]
    if beta is None:
        return 0
    if not any(beta):
        return 1
    if beta != coeffs:
        return _mult(m, beta)  # Weyl invariance: the sum runs at dominant keys only
    ell = len(m) - 1
    datum = cartan(ell)
    ax = datum.apply_matrix(beta)
    assert min(mi - v for mi, v in zip(m, ax)) >= 0
    md = tuple(map(mul, m, datum.d))
    # 2(Lambda + rho, beta) - (beta, beta); rho pairs with roots like sum(Lambda_i)
    denom = sum(xi * di * (2 * mi + 2 - v) for xi, di, mi, v in zip(beta, datum.d, m, ax))
    assert denom > 0
    delta = datum.delta_coeffs
    md_delta = sum(map(mul, md, delta))
    numer = 0
    for gamma, root_mult, dag in _root_table(ell):
        # alpha runs over the delta-string gamma, gamma + delta, ... while it fits below beta
        alpha, md_alpha = gamma, sum(map(mul, md, gamma))
        below = tuple(map(sub, beta, gamma))
        while min(below) >= 0:
            rest = below
            while min(rest) >= 0:
                inner = _mult(m, rest)
                if inner:
                    # (Lambda - beta + j*alpha, alpha) with rest = beta - j*alpha
                    numer += root_mult * (md_alpha - sum(map(mul, rest, dag))) * inner
                rest = tuple(map(sub, rest, alpha))
            alpha = tuple(map(add, alpha, delta))
            md_alpha += md_delta
            below = tuple(map(sub, below, delta))
    assert (2 * numer) % denom == 0
    return (2 * numer) // denom
