"""Core value types: alphabets, flat and circular words, splicing rules,
splicing systems, and recorded production sequences.

A flat splicing production inserts one word into another: a rule
``alpha#beta$gamma#delta`` applied to ``u = x alpha . beta y`` and a second
word ``v = gamma z delta`` yields ``x alpha v beta y``.  A concatenation
production glues two words end to end.  Circular productions operate on
conjugacy classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterable, Iterator, Union


class SpliceError(Exception):
    """Base error for this package."""


class ParseError(SpliceError):
    """Malformed textual input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ReplayError(SpliceError):
    """A recorded production sequence failed validation; carries the
    1-based index of the offending step."""

    def __init__(self, message: str, step: int):
        self.step = step
        super().__init__(f"step {step}: {message}")


class BudgetExceededError(SpliceError):
    """A bounded search ran out of its node budget before deciding."""


class UnsupportedError(SpliceError):
    """The requested operation is outside the implemented fragment."""


# Characters that may never be alphabet letters: rule and word syntax
# delimiters, the epsilon placeholders, whitespace, and ASCII uppercase
# (reserved for grammar variables in the text format).
RESERVED_CHARS = frozenset("#$-_") | frozenset(" \t\r\n\f\v")


def _check_letter(ch: str) -> None:
    if len(ch) != 1:
        raise ValueError(f"letters are single characters, got {ch!r}")
    if ch in RESERVED_CHARS or ("A" <= ch <= "Z"):
        raise ValueError(f"reserved character {ch!r} cannot be a letter")


@dataclass(frozen=True)
class Alphabet:
    """A finite, nonempty set of single-character letters.

    Letters are kept sorted so every order-dependent output (canonical
    circular representatives, length-lex enumerations, witnesses) is
    deterministic.
    """

    letters: tuple[str, ...]

    def __init__(self, letters: Iterable[str]):
        seen = []
        for ch in letters:
            _check_letter(ch)
            if ch not in seen:
                seen.append(ch)
        if not seen:
            raise ValueError("alphabet must be nonempty")
        object.__setattr__(self, "letters", tuple(sorted(seen)))

    def __contains__(self, ch: str) -> bool:
        return ch in self.letters

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def check_word(self, word: str) -> str:
        for ch in word:
            if ch not in self.letters:
                raise ValueError(f"letter {ch!r} not in alphabet {self.letters}")
        return word


def conjugates(word: str) -> set[str]:
    """All rotations of ``word`` (the empty word has only itself)."""
    if not word:
        return {""}
    return {word[i:] + word[:i] for i in range(len(word))}


def canonical_rotation(word: str) -> str:
    """The lexicographically least rotation of ``word``: the least
    ``len(word)``-letter window of ``word + word``, taken one window at a
    time, so that it holds linear memory (its time is still quadratic)."""
    if not word:
        return word
    n = len(word)
    ww = word + word
    return min(ww[i : i + n] for i in range(n))


@dataclass(frozen=True)
class CircularWord:
    """A conjugacy class of nonempty words, stored by its least rotation.

    Two circular words are equal iff they are rotations of each other.
    """

    representative: str

    def __init__(self, word: str):
        if not word:
            raise ValueError("circular words are nonempty")
        object.__setattr__(self, "representative", canonical_rotation(word))

    @classmethod
    def _of_least(cls, rep: str) -> CircularWord:
        """The circular word whose least rotation ``rep`` already is."""
        w = object.__new__(cls)
        object.__setattr__(w, "representative", rep)
        return w

    def linearize(self) -> set[str]:
        return conjugates(self.representative)

    def __len__(self) -> int:
        return len(self.representative)

    def __str__(self) -> str:
        return f"({self.representative})"

    def sort_key(self) -> tuple[int, str]:
        return (len(self.representative), self.representative)


AnyWord = Union[str, CircularWord]

SPLICE = "splice"
CONCAT = "concat"


@dataclass(frozen=True, order=True)
class SplicingRule:
    """A rule with four handle words and a usage tag.

    ``splice`` usage inserts the second operand into the first at a cut
    flanked by ``alpha`` / ``beta``; ``concat`` usage appends the second
    operand, with the handles constraining ends of both operands.
    """

    alpha: str
    beta: str
    gamma: str
    delta: str
    usage: str = SPLICE

    def __post_init__(self):
        if self.usage not in (SPLICE, CONCAT):
            raise ValueError(f"unknown usage {self.usage!r}")

    @property
    def handles(self) -> tuple[str, str, str, str]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @property
    def is_alphabetic(self) -> bool:
        return all(len(h) <= 1 for h in self.handles)

    @property
    def is_pure(self) -> bool:
        """Both cut handles nonempty: insertions never touch the ends."""
        return self.usage == SPLICE and bool(self.alpha) and bool(self.beta)

    def notation(self) -> str:
        a, b, g, d = (h if h else "-" for h in self.handles)
        body = f"{a}#{b}${g}#{d}"
        return body if self.usage == SPLICE else f"<{body}>c"

    def __str__(self) -> str:
        return self.notation()


def dominates(usage: str, shorter: tuple, longer: tuple) -> bool:
    """Whether a rule of ``usage`` with the handles ``shorter`` dominates
    one with the handles ``longer``: the tuples differ, and each handle of
    ``shorter`` is the one of ``longer`` at that place shortened on its
    outer side (splice: alpha and delta keep a suffix, beta and gamma a
    prefix; concat: alpha and gamma keep a prefix, beta and delta a
    suffix).  The dominating rule then makes every production the other
    makes."""
    a, b, g, d = shorter
    a2, b2, g2, d2 = longer
    if usage == SPLICE:
        outer = a2.endswith(a) and b2.startswith(b)
    else:
        outer = a2.startswith(a) and b2.endswith(b)
    return outer and g2.startswith(g) and d2.endswith(d) and shorter != longer


def matches_pattern(word: str, prefix: str, suffix: str) -> bool:
    """Whether ``word`` lies in ``prefix A* suffix`` (formal concatenation:
    when both handles are nonempty the word must be long enough to contain
    them without overlap)."""
    if prefix and not word.startswith(prefix):
        return False
    if suffix and not word.endswith(suffix):
        return False
    if prefix and suffix and len(word) < len(prefix) + len(suffix):
        return False
    return True


def iter_splice_cuts(rule: SplicingRule, u: str) -> Iterator[int]:
    """Cut positions ``i`` of ``u`` with ``u[:i]`` ending in alpha and
    ``u[i:]`` starting with beta."""
    a, b = rule.alpha, rule.beta
    for i in range(len(u) + 1):
        if a and not u[:i].endswith(a):
            continue
        if b and not u[i:].startswith(b):
            continue
        yield i


def apply_splice(rule: SplicingRule, u: str, v: str) -> set[str]:
    """All results of inserting ``v`` into ``u`` under a splice rule."""
    if rule.usage != SPLICE:
        raise ValueError("apply_splice requires a splice-usage rule")
    if not matches_pattern(v, rule.gamma, rule.delta):
        return set()
    return {u[:i] + v + u[i:] for i in iter_splice_cuts(rule, u)}


def apply_concat(rule: SplicingRule, u: str, v: str) -> str | None:
    """``u + v`` when the operands match the rule's end patterns, else None."""
    if rule.usage != CONCAT:
        raise ValueError("apply_concat requires a concat-usage rule")
    if matches_pattern(u, rule.alpha, rule.beta) and matches_pattern(
        v, rule.gamma, rule.delta
    ):
        return u + v
    return None


def iter_circular_splices(
    rule: SplicingRule, cu: CircularWord, cv: CircularWord
) -> Iterator[tuple[int, int, CircularWord]]:
    """Rotation pairs and results for a circular splice.

    The first operand is rotated to the arrangement ``beta x alpha`` and the
    second to ``gamma y delta``; the result is the circular word of their
    concatenation.
    """
    if rule.usage != SPLICE:
        raise ValueError("circular splicing requires a splice-usage rule")
    ru, rv = cu.representative, cv.representative
    for i in range(len(ru)):
        left = ru[i:] + ru[:i]
        if not matches_pattern(left, rule.beta, rule.alpha):
            continue
        for j in range(len(rv)):
            right = rv[j:] + rv[:j]
            if not matches_pattern(right, rule.gamma, rule.delta):
                continue
            yield i, j, CircularWord(left + right)


def apply_splice_circular(
    rule: SplicingRule, cu: CircularWord, cv: CircularWord
) -> set[CircularWord]:
    """All circular results of splicing ``cv`` into ``cu``."""
    return {w for _, _, w in iter_circular_splices(rule, cu, cv)}


# --------------------------------------------------------------------------
# Initial sets and systems


def _sorted_repr(obj, **keys) -> str:
    """The dataclass repr of ``obj``, with each frozenset field named in
    ``keys`` listed sorted by its key instead of in hash order, so the
    text is the same under every hash seed."""

    def text(name: str) -> str:
        value = getattr(obj, name)
        if name in keys and value:
            return f"frozenset({{{', '.join(map(repr, sorted(value, key=keys[name])))}}})"
        return repr(value)

    body = ", ".join(f"{f.name}={text(f.name)}" for f in fields(obj))
    return f"{type(obj).__qualname__}({body})"


@dataclass(frozen=True)
class InitialSet:
    """The axiom language of a system: finite, regular, or context-free.

    Never contains the empty word; for regular/context-free kinds the empty
    word is stripped at construction and remembered in ``had_epsilon``.
    """

    kind: str
    words: frozenset[str] | None = None
    dfa: "object | None" = None
    cfg: "object | None" = None
    had_epsilon: bool = False
    source_regex: str | None = field(default=None, compare=False)

    @classmethod
    def finite(cls, words: Iterable[str]) -> "InitialSet":
        ws = frozenset(words)
        if "" in ws:
            raise ValueError(
                "the empty word cannot be an axiom; membership of the empty "
                "word is determined by the axiom set alone, so drop it"
            )
        return cls(kind="finite", words=ws)

    @classmethod
    def regular(cls, dfa, source_regex: str | None = None) -> "InitialSet":
        from . import automata as _a

        return cls(
            kind="regular",
            dfa=_a.dfa_without_epsilon(dfa),
            had_epsilon=dfa.accepts(""),
            source_regex=source_regex,
        )

    @classmethod
    def contextfree(cls, cfg) -> "InitialSet":
        from . import grammar as _g

        had = _g._min_lengths(cfg)[cfg.start] == 0
        return cls(kind="contextfree", cfg=cfg, had_epsilon=had)

    def __repr__(self) -> str:
        return _sorted_repr(self, words=lambda w: (len(w), w))

    def contains(self, word: str) -> bool:
        if word == "":
            return False
        if self.kind == "finite":
            return word in self.words
        if self.kind == "regular":
            return self.dfa.accepts(word)
        return word in self.enumerate(len(word))

    def _contains_rotation(self, word: str) -> bool:
        """Whether some rotation of ``word`` is an axiom.  A regular set
        decides all rotations in one pass of transition maps; any other set
        meets them with its words of up to that length."""
        if not word:
            return False
        if self.kind == "regular":
            from . import automata as _a

            return _a._accepts_rotation(self.dfa, word)
        found = self.words if self.kind == "finite" else set(self.enumerate(len(word)))
        ww, n = word + word, len(word)
        return not found.isdisjoint(ww[i : i + n] for i in range(n))

    def enumerate(self, max_len: int) -> list[str]:
        """Axioms of length <= max_len in length-lex order (never epsilon)."""
        if self.kind == "finite":
            return sorted(
                (w for w in self.words if len(w) <= max_len),
                key=lambda w: (len(w), w),
            )
        if self.kind == "regular":
            from . import automata as _a

            return [w for w in _a.enumerate_dfa(self.dfa, max_len) if w]
        from . import grammar as _g

        return [w for w in _g.enumerate_cfg(self.cfg, max_len) if w]


FLAT = "flat"
CIRCULAR = "circular"
# the dataclass order of rules of one usage, without its generated __lt__
_handles = attrgetter("alpha", "beta", "gamma", "delta")


@dataclass(frozen=True)
class SplicingSystem:
    """An alphabet, an initial set of axioms, and a finite set of rules.
    A circular system takes splice rules only."""

    alphabet: Alphabet
    initial: InitialSet
    rules: frozenset[SplicingRule]
    mode: str = FLAT

    def __post_init__(self):
        if self.mode not in (FLAT, CIRCULAR):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == CIRCULAR and any(r.usage == CONCAT for r in self.rules):
            raise UnsupportedError("circular systems take splice rules only")
        for rule in self.rules:
            for h in rule.handles:
                self.alphabet.check_word(h)
        if self.initial.kind == "finite":
            for w in self.initial.words:
                self.alphabet.check_word(w)
        elif self.initial.kind == "regular":
            if self.initial.dfa.alphabet != self.alphabet.letters:
                raise ValueError(f"initial automaton not over {self.alphabet.letters}")
        else:
            for t in self.initial.cfg.terminals:
                self.alphabet.check_word(t)

    def __repr__(self) -> str:
        return _sorted_repr(self, rules=lambda r: (r.usage, r.handles))

    def __getstate__(self) -> dict:
        # what a search caches on the system is no part of its value, and
        # holds functions that do not pickle
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def splice_rules(self) -> list[SplicingRule]:
        return sorted((r for r in self.rules if r.usage == SPLICE), key=_handles)

    @property
    def concat_rules(self) -> list[SplicingRule]:
        return sorted((r for r in self.rules if r.usage == CONCAT), key=_handles)

    @property
    def is_alphabetic(self) -> bool:
        return all(r.is_alphabetic for r in self.rules)

    def initial_contains(self, word: AnyWord) -> bool:
        """Axiom membership; in circular mode any rotation may be an axiom."""
        if self.mode == CIRCULAR:
            rep = word.representative if isinstance(word, CircularWord) else word
            return self.initial._contains_rotation(rep)
        assert isinstance(word, str)
        return self.initial.contains(word)


# --------------------------------------------------------------------------
# Recorded productions


@dataclass(frozen=True)
class InitialRef:
    """Operand taken directly from the initial set."""

    word: AnyWord


@dataclass(frozen=True)
class StepRef:
    """Operand produced by an earlier step (0-based index)."""

    index: int


Ref = Union[InitialRef, StepRef]


@dataclass(frozen=True)
class Production:
    """One recorded production: rule, operand references, the chosen cut,
    and the claimed result.

    For flat splices ``cut`` is the insertion position in the left operand;
    for concatenations it is the length of the left operand; for circular
    splices it is the pair of rotation offsets applied to the two
    representatives.
    """

    rule: SplicingRule
    left: Ref
    right: Ref
    cut: int | tuple[int, int]
    result: AnyWord


@dataclass(frozen=True)
class ProductionSequence:
    """A list of productions whose operands refer to axioms or earlier
    steps.  A zero-length sequence denotes a bare axiom, carried in
    ``seed``."""

    steps: tuple[Production, ...] = ()
    seed: AnyWord | None = None

    @property
    def result(self) -> AnyWord:
        if self.steps:
            return self.steps[-1].result
        if self.seed is None:
            raise ValueError("empty sequence with no seed word")
        return self.seed


def _axiom(system: SplicingSystem, word: AnyWord, what: str, step_no: int) -> AnyWord:
    """``word``, checked to be an axiom of the system's kind of word."""
    if not isinstance(word, CircularWord if system.mode == CIRCULAR else str):
        raise ReplayError(f"{system.mode} sequences use {system.mode} words", step_no)
    if not system.initial_contains(word):
        raise ReplayError(f"{what} {word} is not an axiom", step_no)
    return word


def _resolve(
    system: SplicingSystem,
    ref: Ref,
    results: list[AnyWord],
    step_no: int,
) -> AnyWord:
    if isinstance(ref, StepRef):
        if not 0 <= ref.index < len(results):
            raise ReplayError(f"reference to step {ref.index} out of range", step_no)
        return results[ref.index]
    return _axiom(system, ref.word, "operand", step_no)


def _replay_flat(rule: SplicingRule, u: str, v: str, cut, step_no: int) -> str:
    if rule.usage == CONCAT:
        if apply_concat(rule, u, v) is None:
            raise ReplayError(f"operands do not match {rule}", step_no)
        return u + v
    if not isinstance(cut, int) or not 0 <= cut <= len(u):
        raise ReplayError(f"cut {cut!r} out of range", step_no)
    if rule.alpha and not u[:cut].endswith(rule.alpha):
        raise ReplayError(f"cut {cut} not preceded by {rule.alpha!r}", step_no)
    if rule.beta and not u[cut:].startswith(rule.beta):
        raise ReplayError(f"cut {cut} not followed by {rule.beta!r}", step_no)
    if not matches_pattern(v, rule.gamma, rule.delta):
        raise ReplayError(f"inserted word {v!r} does not match {rule}", step_no)
    return u[:cut] + v + u[cut:]


def _replay_circular(
    rule: SplicingRule, cu: CircularWord, cv: CircularWord, cut, step_no: int
) -> CircularWord:
    if not (isinstance(cut, tuple) and len(cut) == 2):
        raise ReplayError("circular cut is a rotation pair", step_no)
    i, j = cut
    ru, rv = cu.representative, cv.representative
    if not (0 <= i < len(ru) and 0 <= j < len(rv)):
        raise ReplayError(f"rotation pair {cut} out of range", step_no)
    left = ru[i:] + ru[:i]
    right = rv[j:] + rv[:j]
    if not matches_pattern(left, rule.beta, rule.alpha):
        raise ReplayError(f"rotation {left!r} does not match {rule}", step_no)
    if not matches_pattern(right, rule.gamma, rule.delta):
        raise ReplayError(f"rotation {right!r} does not match {rule}", step_no)
    return CircularWord(left + right)


def replay_sequence(system: SplicingSystem, seq: ProductionSequence) -> AnyWord:
    """Re-run a recorded sequence, validating every step, and return the
    final word.  Raises ReplayError (with the 1-based step index) on the
    first invalid step."""
    if not seq.steps:
        if seq.seed is None:
            raise ReplayError("empty sequence with no seed word", 1)
        return _axiom(system, seq.seed, "seed", 1)
    results: list[AnyWord] = []
    for k, step in enumerate(seq.steps):
        step_no = k + 1
        if step.rule not in system.rules:
            raise ReplayError(f"rule {step.rule} is not part of the system", step_no)
        u = _resolve(system, step.left, results, step_no)
        v = _resolve(system, step.right, results, step_no)
        if system.mode == CIRCULAR:
            w: AnyWord = _replay_circular(step.rule, u, v, step.cut, step_no)
        else:
            w = _replay_flat(step.rule, u, v, step.cut, step_no)
        if w != step.result:
            raise ReplayError(
                f"recorded result {step.result} differs from replay {w}", step_no
            )
        results.append(w)
    return results[-1]
