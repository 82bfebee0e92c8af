"""Exact formula-size games over binary strings and finite structures.

Winner decision, minimal separating formula sizes, witness synthesis,
and certificate measures for size lower bounds, in two settings:
propositional properties of fixed-width strings and first-order
properties of classes of finite relational models.

The names below load lazily: the first read of one imports the
submodule that defines it, so a caller of one setting does not pay for
the other.
"""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {
    "ContractError": "errors",
    "InputError": "errors",
    "ResourceCapError": "errors",
    "Player": "formula",
    "Assignment": "fo",
    "EMPTY_ASSIGNMENT": "fo",
    "EqAtom": "fo",
    "Exists": "fo",
    "FoAnd": "fo",
    "FoFormula": "fo",
    "FoMode": "fo",
    "FoNot": "fo",
    "FoOr": "fo",
    "Forall": "fo",
    "Model": "fo",
    "RelAtom": "fo",
    "Structure": "fo",
    "StructureClass": "fo",
    "Vocabulary": "fo",
    "atom_candidates": "fo",
    "atomic_separators": "fo",
    "class_from_json": "fo",
    "class_to_json": "fo",
    "extend_choice": "fo",
    "extend_star": "fo",
    "fo_eval": "fo",
    "fo_free_vars": "fo",
    "fo_nnf": "fo",
    "fo_quantifier_rank": "fo",
    "fo_separates": "fo",
    "fo_size": "fo",
    "format_fo": "fo",
    "is_existential": "fo",
    "structure_from_json": "fo",
    "structure_to_json": "fo",
    "BoolCombClass": "fobounds",
    "LinOrderClass": "fobounds",
    "boolcomb_alternating_sentence": "fobounds",
    "boolcomb_existential_sentence": "fobounds",
    "boolcomb_instances": "fobounds",
    "boolcomb_vocabulary": "fobounds",
    "classify_boolcomb": "fobounds",
    "classify_linorder": "fobounds",
    "linear_order": "fobounds",
    "linorder_existential_sentence": "fobounds",
    "linorder_instances": "fobounds",
    "linorder_log_sentence": "fobounds",
    "linorder_vocabulary": "fobounds",
    "measure_M": "fobounds",
    "measure_N": "fobounds",
    "FoGame": "fogame",
    "FoEnumerator": "oracle",
    "count_functions_up_to": "oracle",
    "fo_enumerate_separator": "oracle",
    "min_size_table": "oracle",
    "oracle_minsize": "oracle",
    "DensityPair": "propbounds",
    "density": "propbounds",
    "density_lower_bound": "propbounds",
    "parity_balanced": "propbounds",
    "parity_dnf": "propbounds",
    "parity_property": "propbounds",
    "GameMode": "propgame",
    "LeftSplit": "propgame",
    "PropGame": "propgame",
    "PropPosition": "propgame",
    "RightSplit": "propgame",
    "WinClaim": "propgame",
    "formula_strategy_move": "propgame",
    "literal_win": "propgame",
    "successors": "propgame",
    "And": "props",
    "BitString": "props",
    "Literal": "props",
    "Not": "props",
    "Or": "props",
    "PropFormula": "props",
    "StringProperty": "props",
    "Var": "props",
    "evaluate": "props",
    "format_formula": "props",
    "is_nnf": "props",
    "parse_formula": "props",
    "separates": "props",
    "size": "props",
    "to_nnf": "props",
    "truth_table": "props",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and bind the name here,
    so that later reads are plain attribute reads (PEP 562)."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
