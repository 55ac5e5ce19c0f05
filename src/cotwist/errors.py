"""Exception types shared across the package."""


class CotwistError(Exception):
    """Base class for all errors raised by this package."""


class ConductorMismatch(CotwistError):
    """Arithmetic between cyclotomic numbers with different conductors."""


class AlphabetMismatch(CotwistError):
    """Operation mixing polynomials over different generator alphabets."""


class ParseError(CotwistError):
    """Malformed scalar, relation or formula text."""


class ValidationError(CotwistError):
    """Input data violates a structural invariant (cocycle identity,
    action axioms, duality nondegeneracy, ...).  The message names the
    first failing check."""


class LimitExceeded(CotwistError):
    """Well-formed input whose computation would pass one of the tool's
    resource limits, such as the group order of a |G| x |G| table."""


class DegreeBoundExceeded(CotwistError):
    """A degree-truncated structure was asked about degrees above its bound."""


class FalsificationError(CotwistError):
    """A mathematical claim failed to check out on the given input: an
    exhaustive verification search ran out of candidates, or a spec file's
    cocycle fails its identity or normalization, a relation is not
    G-homogeneous under the declared degrees, or an action fails a check of
    `action.action_violations`.  The spec loader (`jsonio`) reports the last
    three as this error; the command line exits 1 on it."""
