"""Exception hierarchy shared by the library and the command line tool.

Each class corresponds to one failure mode that the CLI reports through a
dedicated exit code, so library code should raise the most specific class
that applies.
"""


class TbiError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParseError(TbiError):
    """Input document is malformed (bad JSON, missing keys, wrong shapes)."""

    exit_code = 1


class TableTooLargeError(TbiError):
    """The cohomology tables of the datum are larger than the fixed memory
    limit, so they are refused before anything is allocated."""

    exit_code = 1


class FormInvalidError(TbiError):
    """The integer extension form violates alternation or shape constraints."""

    exit_code = 2


class StructureDegenerateError(TbiError):
    """A period matrix does not split the complexified lattice, or the
    form's split along the pair overflows the float range."""

    exit_code = 3


class MembershipError(TbiError):
    """The structure pair is incompatible with the extension form."""

    exit_code = 4


class ToleranceAmbiguityError(TbiError):
    """Numerical rank bookkeeping is internally inconsistent at the working
    tolerance, so no trustworthy verdict can be produced."""

    exit_code = 5
