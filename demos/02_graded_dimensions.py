"""Graded dimensions of idempotent truncations.

The dimension of e(nu) A e(nu') for the block at beta is the sum over all
multipartition shapes of the product of two tableau generating functions
K(nu, shape).  ``graded_hom_dim`` computes it with the Fock engine: expanding
nu as a word of single steps gives K(nu, shape) as the coefficient of each
shape.  The shape-by-shape tableau sums printed first are the reference route
the tests compare against.  The first computation below walks the classic
rank-2 example whose answer is 1 + 2q^2 + 3q^4 + 2q^6 + q^8.
"""

from klrc import (DominantWeight, RootVector, expand, graded_hom_dim, kostka_q,
                  multipartitions)

ell = 2
weight = DominantWeight((1, 1, 0))        # Lambda_0 + Lambda_1
delta = RootVector((1, 2, 1))             # the null root
nu = (0, 1, 2, 1)

print(f"block of {weight} at beta = {delta} (the null root), nu = {nu}")
print("shape-by-shape tableau sums:")
for shape in multipartitions(4, 2):
    k = kostka_q(weight.charges, nu, shape, ell)
    if not k.is_zero():
        print(f"  {str(shape):18} K = {k}")
print("the same coefficients from the Fock expansion of nu:")
print(f"  {expand(weight, [(r, 1) for r in reversed(nu)])}")

value = graded_hom_dim(weight, delta, nu)
print(f"\ndim_q e(nu) A e(nu) = {value}")

# changing the ambient weight changes the answer: same block data at 2*Lambda_0
other = DominantWeight((2, 0, 0))
print(f"dim_q at {other}      = {graded_hom_dim(other, delta, nu)}")

# an off-diagonal truncation
nu2 = (1, 2, 0, 1)
print(f"off-diagonal (nu, nu') = {graded_hom_dim(weight, delta, nu, nu2)}")
