"""Finite-dimensional toolkit for set-valued convex analysis.

Values of the maps studied here live in the complete lattice of upper closed
subsets of R^m ordered by reverse inclusion: sets A with A = cl(A + C) for a
fixed polyhedral ordering cone C.  The package provides exact polyhedral
geometry (double description, dual cones, support values), the lattice
operations, scalarizations and set-valued conjugates, point-wise checkers for
the classical and lattice semicontinuity notions of multifunctions, and a
verifier for the set-valued fundamental duality formula, together with a
ground-truth-labeled corpus of counterexample maps.
"""

__version__ = "0.1.0"
