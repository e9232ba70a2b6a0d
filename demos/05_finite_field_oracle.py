#!/usr/bin/env python3
"""Check the closed-form codimensions against finite-field point counts.

A closed locus of codimension c captures roughly a q^(-c) fraction of random
points, so -log_q(hit rate) estimates c, with accuracy improving as q grows.
Every hit below is decided by exact linear algebra over the field; nothing is
floating point except the final logarithm.
"""

from excodim.fforacle.experiments import (
    excess_experiment,
    restriction_codim,
    singular_experiment,
    singular_membership,
)
from excodim.fforacle.fields import gf
from excodim.fforacle.polynomials import MultiPoly

print("=" * 72)
print("pairs of linear forms in the plane meeting in a line (predicted codim 2)")
print("=" * 72)
for q, field in [(2, gf(2)), (3, gf(3)), (5, gf(5))]:
    res = excess_experiment(2, (1, 1), 1, field, mode="exhaustive")
    print(f"  F_{q}: {res.hits:>5} hits of {res.trials:>6}  "
          f"est {res.est_codim:.3f}  (larger q hugs the prediction)")

print("\n" + "=" * 72)
print("plane curves with positive-dimensional singular locus")
print("=" * 72)
for ell in (3, 4, 5):
    res = singular_experiment(2, ell, gf(2), mode="exhaustive")
    print(f"  degree {ell} over F_2: {res.hits} of {res.trials} forms, "
          f"est {res.est_codim:.2f} vs predicted {res.predicted_codim}")

print("\nsampled mode is reproducible (a seed pins the hits):")
res = singular_experiment(2, 5, gf(2), mode="sampled", trials=200_000)
print(f"  seed {res.seed}: {res.hits}/{res.trials}  est {res.est_codim:.2f}")

print("\n" + "=" * 72)
print("single-form spot checks of the singular-locus detector")
print("=" * 72)
f2 = gf(2)
x0, x1 = MultiPoly.variable(f2, 2, 0), MultiPoly.variable(f2, 2, 1)
cone = MultiPoly.from_terms(f2, 2, 3, {(2, 1, 0): 1})
print(f"  X0^2*X1 over F_2: singular locus dimension "
      f"{singular_membership(cone).sing_dim} (derivative of the square drops)")
smooth = MultiPoly.from_terms(gf(3), 2, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
print(f"  smooth conic over F_3: singular locus dimension "
      f"{singular_membership(smooth).sing_dim} (empty)")

print("\n" + "=" * 72)
print("vanishing on a b-plane imposes exactly C(d+b, b) conditions")
print("=" * 72)
for (r, d, b) in [(4, 3, 1), (4, 2, 2), (3, 5, 3), (5, 4, 2)]:
    print(f"  r={r}, d={d}, b={b}: rank {restriction_codim(r, d, b)}")
