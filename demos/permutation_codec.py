"""The conversion-vector codec for permutations, used inside decode."""

from itertools import permutations, product

from posvec import conversion_vector, permutation_from_conversion

# Entry i of the conversion vector counts earlier entries smaller than
# entry i, so it always lies in 0..i-1.
perm = (4, 2, 3, 5, 1)
print(perm, "->", conversion_vector(perm))

# Each prefix of the vector decodes on its own.  One entry longer puts
# r_i + 1 last and bumps every earlier entry that would tie or beat it.
vector = (0, 0, 1, 3, 0)
for k in range(1, len(vector) + 1):
    print(vector[:k], "->", permutation_from_conversion(vector[:k]))

# The codec is a bijection: all m! vectors with entries below their
# index appear exactly once.
m = 4
image = sorted(conversion_vector(p) for p in permutations(range(1, m + 1)))
box = sorted(product(*(range(i) for i in range(1, m + 1))))
print(f"\nm={m}: image of all permutations == full box: {image == box}")
for row in image:
    print(" ", row, "->", permutation_from_conversion(row))
