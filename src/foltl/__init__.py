"""First-order LTL over tree-structured event traces.

Compile quantified temporal formulas into alternating automata, monitor
finite traces with three-valued verdicts, and decide exact acceptance
on ultimately periodic traces, cross-validated by a brute-force oracle.
"""

from .acceptance import (
    DEFAULT_STATE_LIMIT,
    FuzzCase,
    OracleEvaluator,
    ResourceLimitError,
    fuzz_compare,
    lasso_accepts,
    oracle_eval,
)
from .automaton import (
    EMPTY_VALUATION,
    Automaton,
    Valuation,
    build_automaton,
)
from .events import (
    EmptyLoopError,
    LassoTrace,
    MalformedInputError,
    Message,
    dom,
    load_lasso,
    load_trace,
    parse_message,
    position_message,
)
from .formula import (
    Formula,
    FormulaSyntaxError,
    ShadowedVariableError,
    UnboundVariableError,
    format_formula,
    negate,
    parse,
    temporal_depth,
    to_nnf,
)
from .gen import GenBounds
from .monitor import (
    Configuration,
    Verdict,
    initial_configuration,
    monitor_trace,
    step,
    verdict,
)

__version__ = "0.1.0"
