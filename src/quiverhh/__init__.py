"""Exact computation of first Hochschild cohomology for quiver algebras.

Subpackages build on each other roughly in this order: exactla (scalars,
sparse vectors), pathalg (quivers, paths, free-algebra elements), groebner
(noncommutative Groebner bases and chain spaces), quotient (finite
dimensional quotient algebras), ppcomplex (the parallel-paths cochain
complex, HH0/HH1 and the Lie structure), baroracle (a deliberately naive
bar-resolution cross-check), brauer (Brauer graph algebras), cli.
"""

from __future__ import annotations

__version__ = "0.1.0"
