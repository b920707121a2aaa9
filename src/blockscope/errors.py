"""Exception hierarchy shared across the library."""


class BlockscopeError(Exception):
    """Base class for all library errors."""


class InputError(BlockscopeError):
    """Malformed user input (recipes, catalog files, CLI arguments)."""


class ParseError(InputError):
    """A file or text fragment could not be parsed."""


class InvalidAction(InputError):
    """A semidirect-product action table does not define automorphisms."""


class DegreeOverflow(InputError):
    """A recipe would produce a permutation degree above the configured cap."""


class CapExceeded(BlockscopeError):
    """A computation exceeded one of the configured size caps."""


class NotNormalized(BlockscopeError):
    """The acting subgroup does not normalize the target subgroup."""


class NotAbelian(BlockscopeError):
    """Operation requires an abelian group."""


class NotPIntegral(BlockscopeError):
    """A cyclotomic value has a denominator divisible by p."""


class InternalInconsistency(BlockscopeError):
    """A mathematical invariant failed; results must not be emitted."""


class NoDefectClass(InternalInconsistency):
    """No defect class was found for a block."""


class MethodDisagreement(InternalInconsistency):
    """Two independent algorithms for the same invariant disagree."""


class NoComplementFound(BlockscopeError):
    """No odd-order complement was found by the bounded search."""
