"""Compiling alphabetic splicing systems to context-free grammars.

Three compilers, one per system class:

- ``pure_grammar``  — systems whose rules all insert between two letters.
  Words are generated with a seam marker between every pair of adjacent
  letters; a marker ``M_a_b`` expands to whatever the rules allow to be
  inserted between an ``a`` and a ``b``, or to nothing.
- ``concat_grammar`` — systems whose rules only concatenate whole words.
  Variables track first and last letters; axioms enter through grafted
  pseudo-terminals.
- ``synthesize``    — any alphabetic system, flat or circular: linearize,
  complete, split into concatenation + insertion stages, and feed the
  concatenation closure to the insertion compiler as a context-free
  initial set.
"""

from __future__ import annotations

import dataclasses

from .core import CIRCULAR, FLAT, InitialSet, SplicingSystem
from .grammar import (
    Cfg,
    GeneralizedCfg,
    cfg_canonical,
    cfg_simplify,
    fresh_name,
    ins_image,
    kral_eliminate,
    marker,
    split_first_last,
    substitute,
)
from .transform import circular_to_flat, complete_system, is_complete, to_heterogeneous

START = "S"


def word_var(a: str, b: str) -> str:
    """Variable for words of length ≥ 2 starting with ``a``, ending ``b``."""
    return f"W_{a}_{b}"


def letter_var(a: str) -> str:
    """Variable for the one-letter word ``a`` (present iff ``a`` is)."""
    return f"S_{a}"


def _axiom_term(a: str, b: str) -> str:
    return f"WI_{a}_{b}"


def _body_language(bodies) -> Cfg:
    """Finite language of symbol tuples, as a grammar (symbols may be
    multi-character names)."""
    bodies = [tuple(b) for b in bodies]
    symbols = sorted({s for b in bodies for s in b})
    start = fresh_name("R", symbols)
    return Cfg(tuple(symbols), (start,), [(start, b) for b in bodies], start)


def _check_common(system: SplicingSystem, *, kind: str) -> None:
    if system.mode != FLAT:
        raise ValueError(f"{kind} grammars are built for flat systems")
    if not system.is_alphabetic:
        raise ValueError(f"{kind} grammars require alphabetic rules")
    if system.initial.had_epsilon:
        raise ValueError(
            "the initial set contains the empty word; strip it first "
            "(it adds nothing to the closure and is re-attached at the end)"
        )
    if not is_complete(system.rules, system.alphabet):
        raise ValueError("the rule set is not complete")


def pure_grammar(system: SplicingSystem, method: str = "graft") -> Cfg:
    """Grammar for the language of a complete pure alphabetic system.

    ``method="graft"`` splices the marker images of the initial components
    directly into the grammar; ``method="kral"`` builds the generalized
    grammar whose right-hand sides are whole languages and flattens it by
    variable elimination.  Both yield the same language.  The generalized
    grammar declares a letter or word variable only when its language is
    non-empty, so no elimination step has an empty closure to graft.
    """
    _check_common(system, kind="insertion")
    if system.concat_rules:
        raise ValueError("insertion grammars accept splice-usage rules only")
    impure = [r for r in system.splice_rules if not r.is_pure]
    if impure:
        raise ValueError(f"impure rule {impure[0].notation()}")
    if method not in ("graft", "kral"):
        raise ValueError(f"unknown method {method!r}")

    letters = system.alphabet.letters
    components, singles = split_first_last(system.initial, system.alphabet)
    pairs = [(a, b) for a in letters for b in letters]

    group1: list[tuple[str, tuple[str, ...]]] = []
    for a, b in pairs:
        group1.append((START, (word_var(a, b),)))
    for a in letters:
        group1.append((START, (letter_var(a),)))
    for a in sorted(singles):
        group1.append((letter_var(a), (a,)))

    group2: dict[str, list[tuple[str, ...]]] = {marker(a, b): [] for a, b in pairs}
    for rule in sorted(system.splice_rules):
        a, b, g, d = rule.handles
        if g and d:
            group2[marker(a, b)].append((marker(a, g), word_var(g, d), marker(d, b)))
        elif g or d:
            c = g or d
            group2[marker(a, b)].append((marker(a, c), letter_var(c), marker(c, b)))
        # a rule inserting from an unconstrained pattern adds nothing its
        # completed siblings do not already cover

    if method == "graft":
        variables: list[str] = [START]
        variables += [word_var(a, b) for a, b in pairs]
        variables += [letter_var(a) for a in letters]
        variables += [marker(a, b) for a, b in pairs]
        prods: list[tuple[str, tuple[str, ...]]] = list(group1)
        for (a, b), comp in sorted(components.items()):
            image = ins_image(comp)
            variables += list(image.variables)
            prods.append((word_var(a, b), (image.start,)))
            prods += list(image.productions)
        for m, bodies in group2.items():
            prods += [(m, body) for body in bodies]
        for a, b in pairs:
            prods.append((marker(a, b), ()))
        return cfg_canonical(cfg_simplify(Cfg(tuple(letters), variables, prods, START)))

    # only the non-empty letter and word variables are declared, and the
    # bodies that name a left-out one go with it
    rhs = [(letter_var(a), _body_language([(a,)])) for a in letters if a in singles]
    rhs += [(word_var(a, b), ins_image(components[(a, b)])) for a, b in pairs if (a, b) in components]
    declared = {v for v, _ in rhs} | set(group2)

    def language(bodies) -> Cfg:
        return _body_language([b for b in bodies if declared.issuperset(b)])

    rhs.insert(0, (START, language([b for h, b in group1 if h == START])))
    rhs += [(m, language(bodies + [()])) for m, bodies in group2.items()]
    generalized = GeneralizedCfg(tuple(letters), tuple(v for v, _ in rhs), START, tuple(rhs))
    return cfg_canonical(kral_eliminate(generalized))


def concat_grammar(system: SplicingSystem) -> Cfg:
    """Grammar for the language of a complete alphabetic concatenation
    system: longer axioms enter via pseudo-terminals substituted by the
    split initial components, one-letter axioms as letters; each rule
    contributes one production pairing the shapes of its two operands."""
    _check_common(system, kind="concatenation")
    if system.splice_rules:
        raise ValueError("concatenation grammars accept concat-usage rules only")

    letters = system.alphabet.letters
    components, singles = split_first_last(system.initial, system.alphabet)
    pairs = [(a, b) for a in letters for b in letters]

    variables = (
        [START] + [word_var(a, b) for a, b in pairs] + [letter_var(a) for a in letters]
    )
    terminals = list(letters)
    sigma: dict[str, Cfg] = {}
    prods: list[tuple[str, tuple[str, ...]]] = []
    for a, b in pairs:
        prods.append((START, (word_var(a, b),)))
    for a in letters:
        prods.append((START, (letter_var(a),)))
    for (a, b), comp in sorted(components.items()):
        term = _axiom_term(a, b)
        terminals.append(term)
        sigma[term] = comp
        prods.append((word_var(a, b), (term,)))
    for a in sorted(singles):
        prods.append((letter_var(a), (a,)))

    def classify(h1: str, h2: str) -> tuple[str, str] | None:
        """Symbol standing for an operand matching ``h1 A* h2``, plus the
        operand's outer letter; None when any word would match."""
        if h1 and h2:
            return word_var(h1, h2), None  # outer letters are h1 and h2
        if h1 or h2:
            c = h1 or h2
            return letter_var(c), c
        return None

    for rule in sorted(system.concat_rules):
        a, b, g, d = rule.handles
        u_side = classify(a, b)
        v_side = classify(g, d)
        if u_side is None or v_side is None:
            continue
        usym, u_single = u_side
        vsym, v_single = v_side
        first = u_single or a
        last = v_single or d
        prods.append((word_var(first, last), (usym, vsym)))

    host = Cfg(tuple(terminals), tuple(variables), prods, START)
    return cfg_canonical(cfg_simplify(substitute(host, sigma)))


def synthesize(system: SplicingSystem, method: str = "graft") -> Cfg:
    """End-to-end grammar for an alphabetic system, flat or circular.

    Circular systems are linearized first.  The rule set is completed and
    split into concatenation rules and pure insertion rules; every
    derivation can be reordered to do all concatenations first, so the
    concatenation closure serves as a context-free initial set for the
    insertion compiler.  An empty word in the initial set is carried
    through as a final ε-production on the start symbol."""
    if not system.is_alphabetic:
        raise ValueError("synthesis requires alphabetic rules")
    if method not in ("graft", "kral"):
        raise ValueError(f"unknown method {method!r}")
    if system.mode == CIRCULAR:
        system = circular_to_flat(system)
    had_epsilon = system.initial.had_epsilon
    if had_epsilon:
        system = dataclasses.replace(
            system, initial=dataclasses.replace(system.initial, had_epsilon=False)
        )
    system = complete_system(system)
    het = to_heterogeneous(system)
    concat_stage = SplicingSystem(
        alphabet=het.alphabet,
        initial=het.initial,
        rules=frozenset(het.concat_rules),
        mode=FLAT,
    )
    l1 = concat_grammar(concat_stage)
    insert_stage = SplicingSystem(
        alphabet=het.alphabet,
        initial=InitialSet.contextfree(l1),
        rules=frozenset(het.splice_rules),
        mode=FLAT,
    )
    result = pure_grammar(insert_stage, method=method)
    if had_epsilon:
        result = Cfg(
            result.terminals,
            result.variables,
            result.productions + ((result.start, ()),),
            result.start,
        )
    return result
