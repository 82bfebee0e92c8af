"""Exact formula-size games over binary strings and finite structures.

Winner decision, minimal separating formula sizes, witness synthesis,
and certificate measures for size lower bounds, in two settings:
propositional properties of fixed-width strings and first-order
properties of classes of finite relational models.
"""

from .errors import ContractError, InputError, ResourceCapError
from .fo import (
    Assignment,
    EMPTY_ASSIGNMENT,
    EqAtom,
    Exists,
    FoAnd,
    FoFormula,
    FoNot,
    FoOr,
    Forall,
    Model,
    RelAtom,
    Structure,
    StructureClass,
    Vocabulary,
    atom_candidates,
    atomic_separators,
    class_from_json,
    class_to_json,
    extend_choice,
    extend_star,
    fo_eval,
    fo_free_vars,
    fo_nnf,
    fo_quantifier_rank,
    fo_separates,
    fo_size,
    format_fo,
    is_existential,
    structure_from_json,
    structure_to_json,
)
from .fobounds import (
    BoolCombClass,
    LinOrderClass,
    boolcomb_alternating_sentence,
    boolcomb_existential_sentence,
    boolcomb_instances,
    boolcomb_vocabulary,
    classify_boolcomb,
    classify_linorder,
    linear_order,
    linorder_existential_sentence,
    linorder_instances,
    linorder_log_sentence,
    linorder_vocabulary,
    measure_M,
    measure_N,
)
from .fogame import FoGame, FoMode
from .oracle import (
    FoEnumerator,
    count_functions_up_to,
    fo_enumerate_separator,
    min_size_table,
    oracle_minsize,
)
from .propbounds import (
    DensityPair,
    density,
    density_lower_bound,
    parity_balanced,
    parity_dnf,
    parity_property,
)
from .propgame import (
    GameMode,
    LeftSplit,
    Player,
    PropGame,
    PropPosition,
    RightSplit,
    WinClaim,
    formula_strategy_move,
    literal_win,
    successors,
)
from .props import (
    And,
    BitString,
    Literal,
    Not,
    Or,
    PropFormula,
    StringProperty,
    Var,
    evaluate,
    format_formula,
    is_nnf,
    parse_formula,
    separates,
    size,
    to_nnf,
    truth_table,
)

__version__ = "0.1.0"
