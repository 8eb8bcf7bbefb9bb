"""Exact-arithmetic toolkit for log Calabi-Yau surface pairs.

Four computation layers, all over exact rationals:

- ``lattice_fan``: complete 2-D toric fans, star subdivisions, minimal
  resolution, projections to the projective line;
- ``boundary_graph``: crepant blow-up/blow-down calculus on weighted dual
  graphs, Calabi-Yau balance, complexity and coregularity;
- ``gdp_atlas``: the rank-one Gorenstein del Pezzo catalog and the
  cluster-type decision procedures, surface- and pair-level;
- ``fiber_criteria``: criteria for standard models over toric bases and the
  weighted-corner obstruction arithmetic.

``fixtures`` holds the bundled worked-example corpus and ``cli`` the
command-line front end.  ``cli`` is not imported here, so that
``python -m cypair.cli`` runs it fresh; ``from cypair import cli`` loads it.
"""

from . import boundary_graph, fiber_criteria, fixtures, gdp_atlas, lattice_fan

__all__ = [
    "boundary_graph",
    "cli",
    "fiber_criteria",
    "fixtures",
    "gdp_atlas",
    "lattice_fan",
]

__version__ = "0.1.0"
