"""Decide, straight from a vector, whether it encodes a numerical semigroup."""

from posvec import class_profile, decode, is_semigroup_closed_form, is_semigroup_vector
from posvec.oracle import closure_violations

# Not every vector encodes a set closed under addition.  (2,6) decodes
# to {0,5,13} mod 3, where 5+5 = 10 should land on 13's residue class
# but falls short of it.
for vector in [(2, 2, 4), (2, 4), (2, 6), (1, 1, 1, 1, 1), (3, 2, 1, 6, 7)]:
    verdict = is_semigroup_vector(vector)
    numset = decode(vector).to_numerical_set()
    print(f"{vector}: semigroup={verdict}", end="")
    if verdict:
        print(f"  generators={numset.summary().minimal_generators}")
    else:
        a, b = closure_violations(numset)[0]
        print(f"  witness: {a}+{b}={a + b} is missing from {numset}")

# The verdict depends on the vector only through its congruence class
# (entry i taken mod i) and the quotients u_i = (v_i - 1) // i, which
# is how the paper states the criterion.  The code evaluates the same
# condition as Kunz's inequality W[a] + W[b] >= W[(a+b) mod n] on the
# Apéry elements indexed by residue.
profile = class_profile((3, 2, 1, 6, 7))
print("\nclass representative:", profile.representative)
print("class permutation:", profile.permutation)
print("entry quotients u:", profile.entry_quotients)
print("descent flags:", profile.descent_flags)

# For moduli up to 5 the criterion collapses to a handful of
# inequalities in u, looked up by the class representative.
print()
for vector in [(9, 4), (9, 12), (2, 2, 5), (5, 3, 9, 2)]:
    assert is_semigroup_closed_form(vector) == is_semigroup_vector(vector)
    print(f"closed form on {vector}: {is_semigroup_closed_form(vector)}")
