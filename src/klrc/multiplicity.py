"""Weight multiplicities by the Freudenthal recursion.

The multiplicity of Lambda - beta in the level-k highest weight module counts
the simple modules of the block at beta.  The recursion runs entirely on
weight-root and root-root pairings, so no normalization of weight-weight
values ever enters; all arithmetic is exact and the dividing factor is
asserted to divide exactly.

Positive real roots of the affine system are the first-layer roots of
``cartan._first_layer`` shifted by multiples of the null root; imaginary
multiples of the null root carry multiplicity equal to the finite rank.

``weight_multiplicity`` validates its value objects, and the kernel runs on
plain tuples, with every pairing a dot product: (Lambda - x, alpha) =
sum alpha_i d_i hub(x)_i, hub(x) = m - A.x.  Because A.delta = 0,
(x, alpha + t*delta) = (x, alpha) and hub(x - j*(alpha + t*delta)) =
hub(x) + j*A.alpha for every root-lattice x, so one A.alpha serves a whole
delta-string (``_root_table``), and the sum carries the hub of each of its
terms along instead of computing it.

The sum runs only at dominant Lambda - beta.  Multiplicities are Weyl
invariant, so any other beta is straightened into the dominant chamber, from
the hub at hand, and reads the sum at the straightened beta', which its
whole orbit shares.  A term whose hub is nonnegative is already dominant and
reads its sum directly.  The cache ``_mult`` holds these sums and nothing
else, so its misses count the sums run.

Every key a sum reads has a lower height than the sum's own key, because
straightening only raises a weight.  ``_evaluate`` therefore runs no
recursion: it collects the keys whose sums are not cached from a worklist,
then runs their sums in order of height, so the stack does not grow with
the height.

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
and of supp gamma, so one AND skips a row that is not J-dominant, and one
more a row whose roots all leave the support of beta.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import add, mul, sub

from .cartan import RANK_CACHE_SIZE, DominantWeight, GuardError, RootVector, _first_layer, cartan
from .maxweights import _straighten

DEFAULT_MAX_HEIGHT = 14


_Row = tuple[tuple[int, ...], int, tuple[int, ...], int, int, int, int]


def _mask(flags) -> int:
    """The bitmask over I of the indices whose flag is true."""
    return sum(1 << j for j, flag in enumerate(flags) if flag)


@lru_cache(maxsize=RANK_CACHE_SIZE)
def _root_table(ell: int) -> tuple[_Row, ...]:
    """One row per delta-string: (first-layer root or delta, root multiplicity,
    A.alpha, (alpha, alpha), then three bitmasks over I: {j : (A.alpha)_j < 0},
    {j : (A.alpha)_j = 0} and the support of alpha).

    The first-layer roots of ``cartan._first_layer`` come first, in
    lexicographic order, each of multiplicity 1; the last row is delta
    itself, of multiplicity ell.
    """
    datum = cartan(ell)
    delta = datum.delta_coeffs
    rows = []
    for gamma, ag in sorted(_first_layer(ell)) + [(delta, datum.apply_matrix(delta))]:
        root_mult = ell if gamma == delta else 1
        aa = sum(map(mul, map(mul, gamma, datum.d), ag))
        rows.append((gamma, root_mult, ag, aa, _mask(v < 0 for v in ag),
                     _mask(v == 0 for v in ag), _mask(gamma)))
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
    return _multiplicity(weight.m, beta.coeffs)


def _multiplicity(m: tuple[int, ...], coeffs: tuple[int, ...]) -> int:
    """``weight_multiplicity`` on plain tuples: 0 when straightening leaves
    the weight system, 1 at the highest weight, else the sum at the
    straightened key."""
    beta = _straighten(m, coeffs)[0]
    if beta is None:
        return 0
    if not any(beta):
        return 1
    slot = _mult(m, beta)
    if not slot:
        _evaluate(m, beta, slot)
    return slot[0]


# A ``simples`` query runs about three sums, so the bound spans hundreds of
# queries.  The cache holds a slot, not the sum itself, so that reading a key
# runs no sum: a miss makes an empty slot, which the evaluation that read it
# fills.  So the misses count the sums run, and no sum runs out of height
# order.
@lru_cache(maxsize=1024)
def _mult(m: tuple[int, ...], beta: tuple[int, ...]) -> list[int]:
    """The slot of the Freudenthal sum at the dominant nonzero ``beta``: empty
    until ``_evaluate`` puts the sum in it."""
    return []


def _evaluate(m: tuple[int, ...], beta: tuple[int, ...], slot: list[int]) -> None:
    """Put the sum at the dominant nonzero ``beta`` in its empty ``slot``.

    The worklist collects every key whose slot is empty, from ``beta`` down
    through the keys each sum reads; the sums then run in order of height,
    so each reads only slots already filled.
    """
    slots = {(0,) * len(m): [1], beta: slot}  # every key read, with its slot
    sums = {}
    work = [beta]
    while work:
        key = work.pop()
        terms, _ = sums[key] = _terms(m, key)
        for inner in terms:
            if inner not in slots:
                slots[inner] = _mult(m, inner)
                if not slots[inner]:
                    work.append(inner)
    for key in sorted(sums, key=sum):
        terms, denom = sums.pop(key)
        twice = sum([c * slots[inner][0] for inner, c in terms.items()])
        assert twice % denom == 0
        slots[key].append(twice // denom)


def _terms(m: tuple[int, ...], beta: tuple[int, ...]) -> tuple[dict, int]:
    """The Freudenthal sum at the dominant nonzero ``beta`` as (terms, denom):
    the sum is sum(c * mult(key) for key, c in terms.items()) / denom, each
    key the straightened beta' of a term, each c twice its coefficient."""
    ell = len(m) - 1
    datum = cartan(ell)
    ax = datum.apply_matrix(beta)
    hub = tuple(map(sub, m, ax))
    assert min(hub) >= 0
    # 2(Lambda + rho, beta) - (beta, beta); rho pairs with roots like sum(Lambda_i)
    denom = sum(xi * di * (2 * mi + 2 - v) for xi, di, mi, v in zip(beta, datum.d, m, ax))
    assert denom > 0
    delta = datum.delta_coeffs
    dhub = tuple(map(mul, datum.d, hub))
    md_delta = sum(map(mul, map(mul, m, datum.d), delta))  # (Lambda - beta, delta)
    outside = ~_mask(beta)
    terms: dict[tuple[int, ...], int] = {}
    # Lambda - beta is fixed by W_J, J = {j : hub_j = 0}; each W_J-orbit of
    # positive roots counts once, at its one J-dominant member
    jmask = _mask(h == 0 for h in hub)
    order = _weyl_order(ell, jmask)
    for gamma, root_mult, ag, aa, neg, zero, supp in _root_table(ell):
        if neg & jmask:
            continue
        if supp & outside:
            continue  # every root of the string leaves supp beta
        # gamma + t*delta has |W_J|/|W_J'| images, J' = {j in J : (gamma, alpha_j) = 0}
        weight = 2 * root_mult * order // _weyl_order(ell, zero & jmask)
        # Delta_J meets the string only at t = 0, when supp gamma is in J; its
        # orbits hold -alpha with alpha, whose terms are equal, so they count half
        count = weight if supp & ~jmask else weight // 2
        # (Lambda - beta + alpha, alpha) at alpha = gamma; alpha runs over the
        # delta-string gamma, gamma + delta, ... while it fits below beta
        pair = sum(map(mul, gamma, dhub)) + aa
        alpha, below = gamma, tuple(map(sub, beta, gamma))
        while min(below) >= 0:
            rest, h, c, step = below, hub, count * pair, count * aa
            while min(rest) >= 0:
                # rest = beta - j*alpha, whose hub is hub + j*A.gamma and whose
                # coefficient (Lambda - beta + j*alpha, alpha) grows by (alpha, alpha)
                h = tuple(map(add, h, ag))
                key = rest if min(h) >= 0 else _straighten(m, rest, h)[0]
                if key is not None:
                    terms[key] = terms.get(key, 0) + c
                rest = tuple(map(sub, rest, alpha))
                c += step
            alpha = tuple(map(add, alpha, delta))
            below = tuple(map(sub, below, delta))
            pair += md_delta
            count = weight
    return terms, denom
