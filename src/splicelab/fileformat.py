"""Plain-text formats for splicing systems, grammars, and automata.

System files are line-oriented; a line that starts with '#' is a
comment, and there are no trailing comments, since '#' is rule syntax.
``mode`` is optional (default flat), ``initial`` is ``finite`` words or a
``regex``, whitespace inside a rule is ignored and '-' stands for the
empty handle::

    # a comment
    alphabet a b c
    mode flat
    initial finite ab c
    splice a#b$a#b
    concat - # c $ a # b

Grammar files: '_' is the empty body, uppercase-initial tokens are
variables and other tokens are strings of one-letter terminals::

    start S
    terminals a b
    S -> a S b | ab | _

Automaton files give one transition per line, as state letter state,
for every state and letter::

    alphabet a b
    states 3
    start 0
    final 0 2
    0 a 1
    ...

Parsers raise ParseError with a line number; serializers produce text
that parses back to an equal object (systems are normalized: sorted
letters, words, and rules).  One exception: a finite initial set that
holds the empty word is written as a regex, ``(w1|w2|...)?`` or ``_``,
so it parses back as a regular set with the same language.
"""

from __future__ import annotations

from .automata import Dfa, _normalize, dfa_empty, dfa_to_regex, regex_to_dfa, render_regex
from .core import (
    CIRCULAR,
    CONCAT,
    FLAT,
    SPLICE,
    Alphabet,
    InitialSet,
    ParseError,
    SplicingRule,
    SplicingSystem,
    UnsupportedError,
)
from .grammar import Cfg

# --------------------------------------------------------------------------
# Splicing systems


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_rule_body(body: str, alphabet: Alphabet, usage: str, lineno: int) -> SplicingRule:
    compact = "".join(body.split())
    halves = compact.split("$")
    if len(halves) != 2:
        raise ParseError(f"a rule needs exactly one '$', got {body!r}", lineno)
    handles: list[str] = []
    for half in halves:
        parts = half.split("#")
        if len(parts) != 2:
            raise ParseError(f"each side of a rule needs exactly one '#', got {body!r}", lineno)
        handles.extend(parts)
    cleaned = tuple("" if h == "-" else h for h in handles)
    for h in cleaned:
        for ch in h:
            if ch not in alphabet.letters:
                raise ParseError(f"unknown letter {ch!r} in rule {body!r}", lineno)
    return SplicingRule(*cleaned, usage=usage)


def parse_system(text: str) -> SplicingSystem:
    """Read a splicing system from its text form."""
    alphabet: Alphabet | None = None
    mode = FLAT
    initial: InitialSet | None = None
    rules: list[SplicingRule] = []
    for lineno, line in _significant_lines(text):
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "alphabet":
            letters = rest.split()
            if not letters:
                raise ParseError("alphabet line needs at least one letter", lineno)
            try:
                alphabet = Alphabet("".join(letters))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        elif keyword == "mode":
            if rest not in (FLAT, CIRCULAR):
                raise ParseError(f"mode is 'flat' or 'circular', got {rest!r}", lineno)
            mode = rest
        elif keyword == "initial":
            if alphabet is None:
                raise ParseError("declare the alphabet before the initial set", lineno)
            kind, _, payload = rest.partition(" ")
            payload = payload.strip()
            if kind == "finite":
                words = payload.split()
                if any(w in ("_", "-") for w in words):
                    raise ParseError(
                        "the empty word cannot be an axiom: the generated "
                        "language contains the empty word exactly when the "
                        "axioms do, so it is tracked separately — drop it",
                        lineno,
                    )
                for w in words:
                    for ch in w:
                        if ch not in alphabet.letters:
                            raise ParseError(f"unknown letter {ch!r} in word {w!r}", lineno)
                initial = InitialSet.finite(words)
            elif kind == "regex":
                if not payload:
                    raise ParseError("initial regex needs a pattern", lineno)
                try:
                    dfa = regex_to_dfa(payload, alphabet.letters)
                except (ParseError, ValueError) as exc:
                    raise ParseError(str(exc), lineno) from exc
                initial = InitialSet.regular(dfa, source_regex=payload)
            else:
                raise ParseError(f"initial kind is 'finite' or 'regex', got {kind!r}", lineno)
        elif keyword in (SPLICE, CONCAT):
            if alphabet is None:
                raise ParseError("declare the alphabet before any rule", lineno)
            rules.append(_parse_rule_body(rest, alphabet, keyword, lineno))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)
    if alphabet is None:
        raise ParseError("missing alphabet line", 0)
    if initial is None:
        raise ParseError("missing initial line", 0)
    try:
        return SplicingSystem(
            alphabet=alphabet, initial=initial, rules=frozenset(rules), mode=mode
        )
    except ValueError as exc:
        raise ParseError(str(exc), 0) from exc


def _rule_text(rule: SplicingRule) -> str:
    a, b, g, d = (h if h else "-" for h in rule.handles)
    return f"{a}#{b}${g}#{d}"


def _initial_lines(initial: InitialSet) -> str:
    if initial.kind == "finite":
        words = sorted(initial.words, key=lambda w: (len(w), w))
        if initial.had_epsilon:
            # the finite form has no token for the empty word
            return f"initial regex ({'|'.join(words)})?" if words else "initial regex _"
        return ("initial finite " + " ".join(words)).rstrip()
    if initial.kind == "regular":
        if initial.source_regex is not None:
            return f"initial regex {initial.source_regex}"
        if dfa_empty(initial.dfa):
            if not initial.had_epsilon:
                # "initial finite" would parse back as a finite set
                raise UnsupportedError("an empty regular initial set has no text form")
            return "initial regex _"
        rendered = render_regex(dfa_to_regex(initial.dfa))
        if initial.had_epsilon:
            rendered = f"({rendered})?"
        return f"initial regex {rendered}"
    raise UnsupportedError("only finite and regular initial sets have a text form")


def serialize_system(system: SplicingSystem) -> str:
    """Text form of a system; parses back to an equal system."""
    lines = [
        "alphabet " + " ".join(system.alphabet.letters),
        f"mode {system.mode}",
        _initial_lines(system.initial),
    ]
    for rule in sorted(system.rules):
        lines.append(f"{rule.usage} {_rule_text(rule)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Grammars


def _is_variable_token(tok: str) -> bool:
    return "A" <= tok[0] <= "Z"


def parse_grammar(text: str) -> Cfg:
    """Read a grammar from its text form, its productions grouped by head
    (the start's first, the others by first line) as ``serialize_grammar``
    writes them, so that text parses back to an equal grammar."""
    start: str | None = None
    declared_terminals: list[str] | None = None
    bodies: dict[str, list[tuple[str, ...]]] = {}  # per head, in order of first use
    seen_terminals: list[str] = []
    for lineno, line in _significant_lines(text):
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "start":
            if not rest or " " in rest:
                raise ParseError("start line needs exactly one variable name", lineno)
            if not _is_variable_token(rest):
                raise ParseError("variable names begin with an uppercase letter", lineno)
            start = rest
            continue
        if keyword == "terminals":
            declared_terminals = rest.split()
            for t in declared_terminals:
                if len(t) != 1 or _is_variable_token(t) or t == "_":
                    raise ParseError(f"terminals are single lowercase symbols, got {t!r}", lineno)
            continue
        if "->" not in line:
            raise ParseError(f"expected a production line, got {line!r}", lineno)
        head, _, rhs = line.partition("->")
        head = head.strip()
        if not head or not _is_variable_token(head):
            raise ParseError(f"production head must be a variable, got {head!r}", lineno)
        bodies.setdefault(head, [])
        for alt in rhs.split("|"):
            tokens = alt.split()
            if not tokens:
                raise ParseError("empty alternative; use '_' for the empty body", lineno)
            body: list[str] = []
            for tok in tokens:
                if tok == "_":
                    continue
                elif _is_variable_token(tok):
                    body.append(tok)
                else:
                    for ch in tok:
                        if _is_variable_token(ch) or ch == "_":
                            raise ParseError(
                                f"cannot mix variables into the terminal string {tok!r}; "
                                "separate symbols with spaces",
                                lineno,
                            )
                        body.append(ch)
                        if ch not in seen_terminals:
                            seen_terminals.append(ch)
            bodies[head].append(tuple(body))
    if start is None:
        raise ParseError("missing start line", 0)
    heads = list(dict.fromkeys([start, *bodies]))
    productions = [(h, b) for h in heads for b in bodies.get(h, ())]
    # ``Cfg`` keeps the first of each repeated variable
    variables = heads + [s for _, b in productions for s in b if _is_variable_token(s)]
    terminals = declared_terminals if declared_terminals is not None else sorted(seen_terminals)
    try:
        return Cfg(tuple(terminals), tuple(variables), tuple(productions), start)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from exc


def serialize_grammar(g: Cfg) -> str:
    """Text form of a grammar (single-letter terminals only)."""
    for t in g.terminals:
        if len(t) != 1 or _is_variable_token(t) or t == "_":
            raise UnsupportedError(
                f"grammar text form needs single-letter terminals, got {t!r}"
            )
    lines = [f"start {g.start}"]
    if g.terminals:
        lines.append("terminals " + " ".join(g.terminals))
    rendered: dict[str, list[str]] = {v: [] for v in g.variables}
    for head, body in g.productions:
        rendered[head].append(" ".join(body) if body else "_")
    for var, bodies in rendered.items():
        if bodies:
            lines.append(f"{var} -> " + " | ".join(bodies))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Automata


def parse_dfa(text: str) -> Dfa:
    """Read a deterministic automaton from its text form.  The result is
    normalized (trimmed, minimized, renumbered) like every other Dfa."""
    alphabet: tuple[str, ...] | None = None
    n_states: int | None = None
    start: int | None = None
    finals: list[int] = []
    moves: dict[tuple[int, str], int] = {}

    def state(tok: str, lineno: int) -> int:
        if not tok.isdigit():
            raise ParseError(f"states are numbers, got {tok!r}", lineno)
        q = int(tok)
        if n_states is not None and not q < n_states:
            raise ParseError(f"state {q} out of range", lineno)
        return q

    for lineno, line in _significant_lines(text):
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "alphabet":
            try:  # letters as in a system file, so the text form round-trips
                alphabet = Alphabet("".join(rest.split())).letters
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        elif keyword == "states":
            if not rest.isdigit() or int(rest) <= 0:
                raise ParseError(f"states line needs a positive count, got {rest!r}", lineno)
            n_states = int(rest)
        elif keyword == "start":
            start = state(rest, lineno)
        elif keyword == "final":
            finals = [state(tok, lineno) for tok in rest.split()]
        else:
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"expected 'state letter state', got {line!r}", lineno)
            src, letter, dst = parts
            if alphabet is None or letter not in alphabet:
                raise ParseError(f"unknown letter {letter!r}", lineno)
            key = (state(src, lineno), letter)
            if key in moves:
                raise ParseError(f"duplicate transition for {key}", lineno)
            moves[key] = state(dst, lineno)
    if alphabet is None or n_states is None or start is None:
        raise ParseError("automaton needs alphabet, states, and start lines", 0)
    if start >= n_states or any(f >= n_states for f in finals):
        raise ParseError("start or final state out of range", 0)
    table = []
    for q in range(n_states):
        row = []
        for letter in alphabet:
            if (q, letter) not in moves:
                raise ParseError(f"missing transition from state {q} on {letter!r}", 0)
            row.append(moves[(q, letter)])
        table.append(row)
    return _normalize(alphabet, table, start, set(finals))


def serialize_dfa(d: Dfa) -> str:
    """Text form of an automaton whose letters an alphabet may hold, sorted
    and distinct: other letters would not read back as they were."""
    try:
        same = Alphabet(d.alphabet).letters == d.alphabet
    except ValueError:
        same = False
    if not same:
        raise UnsupportedError(
            f"automaton text form needs sorted, distinct alphabet letters, got {d.alphabet!r}"
        )
    lines = [
        "alphabet " + " ".join(d.alphabet),
        f"states {d.n_states}",
        f"start {d.start}",
        "final " + " ".join(str(q) for q in sorted(d.finals)),
    ]
    for q in range(d.n_states):
        for x, letter in enumerate(d.alphabet):
            lines.append(f"{q} {letter} {d.transitions[q][x]}")
    return "\n".join(lines) + "\n"
