"""The three-setting lift: from a 3x3x3 facet to a four-party facet.

Starting from the three-party three-setting facet wbz333 and two of its
symmetry images, the three-setting lift produces a four-party inequality
with 46 terms on the 3x3x3x3 scenario.  The compatibility condition (the
implied fourth expression must itself be a valid inequality) is checked
exactly, and the output is certified as a facet: local bound 1 over all
4096 strategies and 81 linearly independent saturating vertices.
"""

from bellift import (
    compatibility_holds,
    four_party_19,
    lift3,
    lr_max,
    symmetry_images,
    tightness,
    wbz333,
)

b = wbz333()
b1, b2, b3 = symmetry_images()

print("base facet wbz333:", sum(1 for _ in b.terms()), "nonzero coefficients")
print("local-realistic maximum:", lr_max(b))
print("rank of saturating vertices:", tightness(b).rank, "(need 27)")

# The images swap or cycle the settings of every party alike, and
# they satisfy a linear identity that powers the compatibility condition.
print("\nidentity  b + b1 == b2 + b3 :", b + b1 == b2 + b3)

ok, witness = compatibility_holds(b, b2, b3)
print("compatibility condition holds:", ok, "(witness:", witness, ")")

lifted, diag = lift3(b, b2, b3, diagnose=False)
print("\nlifted four-party expression:", sum(1 for _ in lifted.terms()), "terms")

fp = four_party_19()  # same thing with the new party moved to the last slot
rep = tightness(fp)
print("local bound", rep.lr_max, "| saturating", rep.saturating_count, "| rank", rep.rank)
print("facet?", rep.is_tight)

# An incompatible triple for contrast: the implied expression reaches 3.
from bellift import BellExpression, Scenario

two = Scenario((2, 2))
e = {ij: BellExpression.from_terms(two, [(ij, 1)]) for ij in [(0, 0), (0, 1), (1, 0)]}
ok, witness = compatibility_holds(e[(0, 0)], e[(0, 1)], e[(1, 0)])
print("\nsingle-correlation triple compatible?", ok)
print("violating strategy:", witness.outcomes)
