"""Divided-power words acting on the vacuum of the deformed Fock space.

Each word identifies an indecomposable projective of the block it lands in;
matching coefficients of two expansions gives the graded Hom dimension
between the projectives.
"""

from klrc import DominantWeight, LaurentPolynomial, expand, hom_dim

weight = DominantWeight((2, 1, 0))  # 2*Lambda_0 + Lambda_1 at rank 2

steps = [
    ("f_0", [(0, 1)]),
    ("f_1^(2) f_0", [(1, 2), (0, 1)]),
    ("f_0 f_1^(2) f_0", [(0, 1), (1, 2), (0, 1)]),
]
for name, word in steps:
    vector = expand(weight, word)
    print(f"{name} v =")
    print(f"  {vector}\n")

projective = expand(weight, [(0, 1), (1, 2), (0, 1)])
print("dim_q End =", hom_dim(projective, projective))

# multiplying back the quantum factorials of the divided powers recovers the
# idempotent truncation dimension of the same residue word
from klrc import RootVector, graded_hom_dim

level_two = DominantWeight((0, 2, 0, 0))
word = [(3, 1), (2, 2), (1, 2)]
vector = expand(level_two, word)
end = hom_dim(vector, vector)
two_factorial = LaurentPolynomial({-1: 1, 1: 1})  # [2]! = q^-1 + q
bridge = end * two_factorial * two_factorial * two_factorial * two_factorial
direct = graded_hom_dim(level_two, RootVector((0, 2, 2, 1)), (1, 1, 2, 2, 3))
print("\nlevel two, rank 3:")
print("  expansion        =", vector)
print("  dim_q End        =", end)
print("  times [2]!^4     =", bridge)
print("  idempotent dim   =", direct)
assert bridge == direct
