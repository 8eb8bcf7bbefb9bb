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
command-line front end.  Importing the package loads none of them: each
submodule loads on first use, as ``cypair.<name>`` or ``from cypair import
<name>``, so ``python -m cypair.cli`` runs the front end without a warning.
"""

import importlib

__all__ = [
    "boundary_graph",
    "cli",
    "fiber_criteria",
    "fixtures",
    "gdp_atlas",
    "lattice_fan",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
