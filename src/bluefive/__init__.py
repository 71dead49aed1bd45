"""bluefive: exact checker for the red/blue unit-distance colouring argument.

The package machine-checks, with exact field arithmetic and a small
constraint solver, that a red-blue colouring of the plane with no red
unit-distance pair must contain five blue collinear points at unit
spacing.  See README.md for the command line interface and the layout of
the verification scripts.
"""

from .field import FieldElement, fe

__version__ = "0.1.0"

__all__ = [
    "FieldElement",
    "fe",
    "__version__",
]
