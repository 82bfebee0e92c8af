"""Error taxonomy shared by the solvers and the command line front end,
and the default resource caps that both read.

The command line maps these to process exit codes: InputError exits 1,
ResourceCapError exits 2, ContractError exits 3.  The caps live here
rather than in the solvers, so that the command line can show each
flag's default without loading any solver.
"""

# PropGame: the largest |S| + |R| exact mode accepts and the size table fills
DEFAULT_CAP_EXACT_STRINGS = 8
DEFAULT_CAP_STRINGS = 16
# FoGame: positions visited, choice functions enumerated, extension class size
DEFAULT_CAP_POSITIONS = 1_000_000
DEFAULT_CAP_CHOICE_FUNCTIONS = 100_000
DEFAULT_CAP_CLASS_SIZE = 64


class InputError(ValueError):
    """Malformed or out-of-range input: bad JSON, width mismatch, bad index."""


class ResourceCapError(RuntimeError):
    """A configured resource cap would be exceeded.

    Messages name the cap and, where one exists, the command line flag
    that raises it.
    """


class ContractError(RuntimeError):
    """A documented precondition was violated by the caller."""
