"""Error types with stable machine-readable codes.

Every failure the toolkit can signal deliberately carries a short string
code so the CLI and the catalog runner can report it without parsing
human-oriented messages.  Codes are part of the public contract and must
not change once released.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class; subclasses set ``code``."""

    code = "toolkit_error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class UnsupportedTypeError(ToolkitError):
    """Group descriptor outside the supported rank <= 3 families."""

    code = "unsupported_type"


class DegenerateInputError(ToolkitError):
    """Input is structurally empty or outside an op's domain (e.g. a

    torus-only group where a semisimple part is required)."""

    code = "degenerate_input"


class NotSubalgebraError(ToolkitError):
    code = "not_subalgebra"


class NonReductiveError(ToolkitError):
    code = "non_reductive"


class DimensionCapError(ToolkitError):
    """A requested module would exceed the documented dimension cap."""

    code = "dimension_cap"


class NonDominantError(ToolkitError):
    code = "non_dominant"


class NonNilpotentDirectionError(ToolkitError):
    code = "non_nilpotent_direction"


class BandLimitError(ToolkitError):
    """Quadrature scheme too coarse for the requested band."""

    code = "band_limit"


class NoIntertwinerError(ToolkitError):
    code = "no_intertwiner"


class NuSquareObstructionError(ToolkitError):
    """An antilinear solution exists but cannot be scaled to square to id."""

    code = "nu_square_obstruction"


class NotAdaptedError(ToolkitError):
    code = "not_adapted"


class NotOrthonormalError(ToolkitError):
    code = "not_orthonormal"


class CatalogFormatError(ToolkitError):
    code = "catalog_format"


class UnknownNameError(ToolkitError):
    """Lookup of a catalog entry or named construction that does not exist."""

    code = "unknown_name"


class ParseError(ToolkitError):
    code = "parse_error"


class InternalInvariantError(ToolkitError):
    """A computed object failed a check its mathematics guarantees (a

    dimension, a multiplicity, a bracket relation): a fault in the program,
    not in the input.  Raised instead of ``assert`` so that ``python -O``
    cannot drop the checks that a verdict rests on."""

    code = "internal_invariant"
