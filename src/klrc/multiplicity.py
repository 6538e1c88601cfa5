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

At a dominant Lambda - beta the sum runs over orbits of its stabilizer
(Moody-Patera, Bull. AMS 1982).  The stabilizer is W_J, J = {j : hub_j = 0},
a finite group because J is a proper subset of I.  It permutes the positive
roots outside the finite system Delta_J and leaves each term of the sum
unchanged, so a term is summed once per orbit, at the orbit's one J-dominant
member gamma ((gamma, alpha_j) >= 0 for j in J), and scaled by the orbit's
size |W_J|/|W_J'|, J' = {j in J : (gamma, alpha_j) = 0}.  The roots of
Delta_J, that is the t = 0 member of a string whose gamma has support in J,
form orbits closed under alpha -> -alpha, and the terms of alpha and -alpha
are equal at a weight fixed by s_alpha, so these count half their orbit.
W_J fixes delta, so the imaginary roots count once each.  Each row of
``_root_table`` carries bitmasks of the j with (gamma, alpha_j) < 0 and = 0
and of supp gamma, so one AND skips a row that is not J-dominant.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
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


_Row = tuple[tuple[int, ...], int, tuple[int, ...], int, int, int]


def _mask(flags) -> int:
    """The bitmask over I of the indices whose flag is true."""
    return sum(1 << j for j, flag in enumerate(flags) if flag)


@lru_cache(maxsize=RANK_CACHE_SIZE)
def _root_table(ell: int) -> tuple[_Row, ...]:
    """One row per delta-string: (first-layer root or delta, root multiplicity,
    d.A.alpha, then three bitmasks over I: {j : (d.A.alpha)_j < 0},
    {j : (d.A.alpha)_j = 0} and the support of alpha)."""
    datum = cartan(ell)
    strings = [(gamma.coeffs, 1) for gamma in first_layer_roots(ell)]
    rows = []
    for gamma, root_mult in strings + [(datum.delta_coeffs, ell)]:
        dag = tuple(map(mul, datum.d, datum.apply_matrix(gamma)))
        rows.append((gamma, root_mult, dag, _mask(v < 0 for v in dag),
                     _mask(v == 0 for v in dag), _mask(gamma)))
    return tuple(rows)


@lru_cache(maxsize=1024)  # every (ell, J) up to ell = 8 fits
def _weyl_order(ell: int, mask: int) -> int:
    """|W_J| for J the set bits of ``mask``, a proper subset of I.

    Each run of n consecutive indices of J is a component of the diagram
    0 => 1 - ... - (ell-1) <= ell: of type C_n, with 2^n n! elements, when it
    holds 0 or ell, and of type A_n, with (n+1)! elements, otherwise.
    """
    runs = format(mask, f"0{ell + 1}b").split("0")  # runs of J; the first holds ell, the last 0
    order = 1
    for k, run in enumerate(runs):
        n = len(run)
        order *= 2 ** n * factorial(n) if k in (0, len(runs) - 1) else factorial(n + 1)
    return order


def positive_roots_within(ell: int, bound: tuple[int, ...]) -> list[tuple[RootVector, int]]:
    """All positive roots componentwise at most ``bound``, with multiplicities."""
    out = []
    delta = cartan(ell).delta_coeffs
    for root, root_mult, *_ in _root_table(ell):
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


# A ``simples`` query leaves about ten entries, so the bound spans about a
# hundred queries
@lru_cache(maxsize=1024)
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
    # Lambda - beta is fixed by W_J, J = {j : hub_j = 0}; each W_J-orbit of
    # positive roots counts once, at its one J-dominant member
    jmask = _mask(mi == v for mi, v in zip(m, ax))
    order = _weyl_order(ell, jmask)
    twice = 0  # twice the Freudenthal sum, so that halved terms stay integers
    for gamma, root_mult, dag, neg, zero, supp in _root_table(ell):
        if neg & jmask:
            continue
        # gamma + t*delta has |W_J|/|W_J'| images, J' = {j in J : (gamma, alpha_j) = 0}
        weight = 2 * root_mult * order // _weyl_order(ell, zero & jmask)
        # Delta_J meets the string only at t = 0, when supp gamma is in J; its
        # orbits hold -alpha with alpha, whose terms are equal, so they count half
        count = weight if supp & ~jmask else weight // 2
        # alpha runs over the delta-string gamma, gamma + delta, ... while it fits below beta
        alpha, md_alpha = gamma, sum(map(mul, md, gamma))
        below = tuple(map(sub, beta, gamma))
        while min(below) >= 0:
            rest = below
            while min(rest) >= 0:
                inner = _mult(m, rest)
                if inner:
                    # (Lambda - beta + j*alpha, alpha) with rest = beta - j*alpha
                    twice += count * (md_alpha - sum(map(mul, rest, dag))) * inner
                rest = tuple(map(sub, rest, alpha))
            alpha = tuple(map(add, alpha, delta))
            md_alpha += md_delta
            below = tuple(map(sub, below, delta))
            count = weight
    assert twice % denom == 0
    return twice // denom
