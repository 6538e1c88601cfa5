"""Weight multiplicities by the Freudenthal recursion.

The multiplicity of Lambda - beta in the level-k highest weight module counts
the simple modules of the block at beta.  The recursion runs entirely on
weight-root and root-root pairings, so no normalization of weight-weight
values ever enters; all arithmetic is exact and the dividing factor is
asserted to divide exactly.

Positive roots of the affine system are the finite-type positive roots and
their null-root complements, shifted by multiples of the null root; imaginary
multiples of the null root carry multiplicity equal to the finite rank.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import DominantWeight, GuardError, RootVector, cartan, hub, pairing
from .maxweights import dominantify

DEFAULT_MAX_HEIGHT = 14


@lru_cache(maxsize=None)
def finite_positive_roots(ell: int) -> tuple[RootVector, ...]:
    """Positive roots of the rank-ell finite type C system, in affine coordinates."""
    roots = []
    # eps_i - eps_j = alpha_i + ... + alpha_{j-1}, 1 <= i < j <= ell
    for i in range(1, ell + 1):
        for j in range(i + 1, ell + 1):
            coeffs = [0] * (ell + 1)
            for t in range(i, j):
                coeffs[t] = 1
            roots.append(RootVector(tuple(coeffs)))
    # eps_i + eps_j = (alpha_i + ... + alpha_{j-1}) + 2(alpha_j + ... + alpha_{ell-1}) + alpha_ell
    # including 2 eps_i at i = j
    for i in range(1, ell + 1):
        for j in range(i, ell + 1):
            coeffs = [0] * (ell + 1)
            for t in range(i, j):
                coeffs[t] = 1
            for t in range(j, ell):
                coeffs[t] += 2
            coeffs[ell] += 1
            roots.append(RootVector(tuple(coeffs)))
    return tuple(roots)


@lru_cache(maxsize=None)
def first_layer_roots(ell: int) -> tuple[RootVector, ...]:
    """The positive real roots not exceeding the null root: gamma and delta - gamma."""
    delta = RootVector.null_root(ell)
    finite = finite_positive_roots(ell)
    layer = list(finite) + [delta - gamma for gamma in finite]
    return tuple(sorted(set(layer), key=lambda r: r.coeffs))


def positive_roots_within(ell: int, bound: tuple[int, ...]) -> list[tuple[RootVector, int]]:
    """All positive roots componentwise at most ``bound``, with multiplicities."""
    out = []
    delta = RootVector.null_root(ell)

    def fits(r: RootVector) -> bool:
        return all(c <= b for c, b in zip(r.coeffs, bound))

    for gamma in first_layer_roots(ell):
        root = gamma
        while fits(root):
            out.append((root, 1))
            root = root + delta
    imaginary = delta
    while fits(imaginary):
        out.append((imaginary, ell))
        imaginary = imaginary + delta
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
    weight = DominantWeight(m)
    straightened = dominantify(weight, RootVector(coeffs))
    if straightened is None:
        return 0
    beta = straightened
    if beta.is_zero():
        return 1
    ell = weight.ell
    assert min(hub(weight, beta)) >= 0
    d = cartan(ell).d
    # denominator 2(Lambda + rho, beta) - (beta, beta); rho pairs with roots like sum(Lambda_i)
    rho_beta = sum(di * xi for di, xi in zip(d, beta.coeffs))
    denom = 2 * (pairing(weight, beta) + rho_beta) - pairing(beta, beta)
    assert denom > 0
    numer = 0
    for alpha, root_mult in positive_roots_within(ell, beta.coeffs):
        j = 1
        while True:
            rest = beta - alpha * j
            if not rest.in_positive_cone():
                break
            inner = _mult(m, rest.coeffs)
            if inner:
                # (Lambda - beta + j*alpha, alpha)
                value = pairing(weight, alpha) - pairing(rest, alpha)
                numer += root_mult * value * inner
            j += 1
    assert (2 * numer) % denom == 0
    return (2 * numer) // denom
