"""splicelab: a workbench for flat and circular splicing systems.

The package covers three capabilities:

* bounded closures and membership with replayable derivations
  (:mod:`splicelab.closure`),
* deciding whether a splicing language equals a given regular language,
  and searching for a system generating one (:mod:`splicelab.decider`),
* compiling alphabetic systems to context-free grammars
  (:mod:`splicelab.synthesis`), via rule-set transformations
  (:mod:`splicelab.transform`).

Systems, grammars, and automata have plain text formats
(:mod:`splicelab.fileformat`) and a command-line front end
(:mod:`splicelab.cli`).
"""

from .automata import (
    Dfa,
    dfa_difference,
    dfa_equivalent,
    dfa_from_words,
    dfa_intersect,
    dfa_subset,
    dfa_union,
    difference_witness,
    enumerate_dfa,
    parse_regex,
    regex_to_dfa,
    render_regex,
)
from .closure import closure_bounded, derivation, member, witness
from .core import (
    CIRCULAR,
    CONCAT,
    FLAT,
    SPLICE,
    Alphabet,
    BudgetExceededError,
    CircularWord,
    InitialRef,
    InitialSet,
    ParseError,
    Production,
    ProductionSequence,
    SpliceError,
    SplicingRule,
    SplicingSystem,
    StepRef,
    UnsupportedError,
    apply_concat,
    apply_splice,
    apply_splice_circular,
    conjugates,
    iter_circular_splices,
    iter_splice_cuts,
    matches_pattern,
    replay_sequence,
)
from .decider import (
    Verdict,
    alphabetic_generability,
    all_alphabetic_rules,
    decide_equal,
    splice_image,
)
from .fileformat import (
    parse_dfa,
    parse_grammar,
    parse_system,
    serialize_dfa,
    serialize_grammar,
    serialize_system,
)
from .grammar import (
    Cfg,
    GeneralizedCfg,
    cfg_canonical,
    enumerate_cfg,
    kral_eliminate,
    kral_single,
)
from .synthesis import concat_grammar, pure_grammar, synthesize
from .transform import (
    circular_rule_expansion,
    circular_to_flat,
    complete_system,
    is_complete,
    normalize_sequence,
    to_heterogeneous,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BudgetExceededError",
    "CIRCULAR",
    "CONCAT",
    "Cfg",
    "cfg_canonical",
    "CircularWord",
    "Dfa",
    "FLAT",
    "GeneralizedCfg",
    "InitialRef",
    "InitialSet",
    "ParseError",
    "Production",
    "ProductionSequence",
    "SPLICE",
    "SpliceError",
    "SplicingRule",
    "SplicingSystem",
    "StepRef",
    "UnsupportedError",
    "Verdict",
    "alphabetic_generability",
    "all_alphabetic_rules",
    "apply_concat",
    "apply_splice",
    "apply_splice_circular",
    "circular_rule_expansion",
    "circular_to_flat",
    "closure_bounded",
    "complete_system",
    "concat_grammar",
    "conjugates",
    "decide_equal",
    "derivation",
    "dfa_difference",
    "dfa_equivalent",
    "dfa_from_words",
    "dfa_intersect",
    "dfa_subset",
    "dfa_union",
    "difference_witness",
    "enumerate_cfg",
    "enumerate_dfa",
    "is_complete",
    "iter_circular_splices",
    "iter_splice_cuts",
    "kral_eliminate",
    "kral_single",
    "matches_pattern",
    "member",
    "normalize_sequence",
    "parse_dfa",
    "parse_grammar",
    "parse_regex",
    "parse_system",
    "pure_grammar",
    "regex_to_dfa",
    "render_regex",
    "replay_sequence",
    "serialize_dfa",
    "serialize_grammar",
    "serialize_system",
    "splice_image",
    "synthesize",
    "to_heterogeneous",
    "witness",
]
