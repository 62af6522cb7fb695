"""Command-line interface.

Exit codes: 0 for a positive result, 1 for a negative one (non-member,
not equal, not generable, check mismatch), 2 for usage or input errors,
3 when a search budget is exhausted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .automata import regex_to_dfa
from .closure import DEFAULT_BUDGET, closure_bounded, derivation, member
from .core import (
    CIRCULAR,
    Alphabet,
    BudgetExceededError,
    InitialRef,
    ParseError,
    ProductionSequence,
    SpliceError,
    SplicingSystem,
)
from .decider import alphabetic_generability, decide_equal
from .fileformat import (
    parse_dfa,
    parse_grammar,
    parse_system,
    serialize_grammar,
    serialize_system,
)
from .grammar import enumerate_cfg
from .synthesis import synthesize
from .transform import circular_to_flat, complete_system, to_heterogeneous

EPSILON_TOKEN = "_"
REGEX_FILE_HELP = "read the regex from this file, for one too long for a command line"


def _show_word(word: str) -> str:
    return word if word else EPSILON_TOKEN


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_system(path: str) -> SplicingSystem:
    return parse_system(_read(path))


def _regex(args) -> str | None:
    """The ``--regex`` text, or that of the ``--regex-file`` without its
    trailing newline; None when neither is given."""
    if args.regex_file is not None:
        return _read(args.regex_file).removesuffix("\n")
    return args.regex


def _target_dfa(system: SplicingSystem, args):
    regex = _regex(args)
    if regex is not None:
        return regex_to_dfa(regex, system.alphabet.letters)
    return parse_dfa(_read(args.dfa))


def _trace_lines(seq: ProductionSequence):
    if not seq.steps:
        yield f"axiom {seq.result}"
        return
    results: list = []

    def fmt(ref) -> str:
        if isinstance(ref, InitialRef):
            return str(ref.word)
        return f"{results[ref.index]} (step {ref.index + 1})"

    for k, step in enumerate(seq.steps, start=1):
        left, right = fmt(step.left), fmt(step.right)
        results.append(step.result)
        yield f"{k}. [{step.rule.usage} {step.rule}] {left} + {right} -> {step.result}"


def _closure_words(system: SplicingSystem, max_len: int, linearize: bool) -> list[str]:
    words = closure_bounded(system, max_len)
    if system.mode != CIRCULAR:
        return list(words)
    if not linearize:
        return [w.representative for w in words]
    flat: set[str] = set()
    for w in words:
        flat |= w.linearize()
    return sorted(flat, key=lambda w: (len(w), w))


def _cmd_closure(args) -> int:
    system = _load_system(args.file)
    for word in _closure_words(system, args.max_len, args.linearize):
        print(word)
    return 0


def _cmd_member(args) -> int:
    system = _load_system(args.file)
    word = "" if args.word == EPSILON_TOKEN else args.word
    if args.trace and word:
        seq = derivation(system, word, budget=args.budget)
        ok = seq is not None
        if ok:
            for line in _trace_lines(seq):
                print(line)
    else:
        ok = member(system, word, budget=args.budget)
        if ok and args.trace:
            print("axiom " + EPSILON_TOKEN)
    print("MEMBER" if ok else "NOT-MEMBER")
    return 0 if ok else 1


def _cmd_decide_equal(args) -> int:
    system = _load_system(args.file)
    verdict = decide_equal(system, _target_dfa(system, args))
    if verdict.equal:
        print("EQUAL")
        return 0
    witness = _show_word(verdict.witness) if verdict.witness is not None else "-"
    print(f"NOT-EQUAL {verdict.failing_inclusion} {witness}")
    return 1


def _cmd_generable(args) -> int:
    letters = "".join(args.alphabet.split())
    alphabet = Alphabet(letters)
    system = alphabetic_generability(regex_to_dfa(_regex(args), alphabet.letters))
    if system is None:
        print("NONE")
        return 1
    sys.stdout.write(serialize_system(system))
    return 0


def _cmd_complete(args) -> int:
    sys.stdout.write(serialize_system(complete_system(_load_system(args.file))))
    return 0


def _cmd_split(args) -> int:
    system = complete_system(_load_system(args.file))
    sys.stdout.write(serialize_system(to_heterogeneous(system)))
    return 0


def _cmd_to_flat(args) -> int:
    sys.stdout.write(serialize_system(circular_to_flat(_load_system(args.file))))
    return 0


def _cmd_synthesize(args) -> int:
    grammar = synthesize(_load_system(args.file), method=args.method)
    text = serialize_grammar(grammar)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _cmd_enumerate(args) -> int:
    grammar = parse_grammar(_read(args.grammar))
    for word in enumerate_cfg(grammar, args.max_len):
        print(_show_word(word))
    return 0


def _cmd_check(args) -> int:
    system = _load_system(args.file)
    grammar = synthesize(system)
    generated = set(enumerate_cfg(grammar, args.max_len))
    expected = set(_closure_words(system, args.max_len, linearize=True))
    if system.initial.had_epsilon:
        expected.add("")
    diff = sorted(generated ^ expected, key=lambda w: (len(w), w))
    if not diff:
        print("OK")
        return 0
    print(_show_word(diff[0]))
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splicelab",
        description="Workbench for flat and circular splicing systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="list the bounded closure of a system")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument(
        "--linearize",
        action="store_true",
        help="for circular systems, list every rotation instead of canonical representatives",
    )
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("member", help="test whether a word is generated")
    p.add_argument("file")
    p.add_argument("word", help=f"bare word; {EPSILON_TOKEN!r} stands for the empty word")
    p.add_argument("--trace", action="store_true", help="print a derivation")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("decide-equal", help="compare the language with a regular one")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--regex")
    group.add_argument("--regex-file", metavar="PATH", help=REGEX_FILE_HELP)
    group.add_argument("--dfa", help="automaton file")
    p.set_defaults(func=_cmd_decide_equal)

    p = sub.add_parser("generable", help="find a splicing system for a regular language")
    p.add_argument("--alphabet", required=True, help="space-separated letters")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--regex")
    group.add_argument("--regex-file", metavar="PATH", help=REGEX_FILE_HELP)
    p.set_defaults(func=_cmd_generable)

    p = sub.add_parser("complete", help="print the completed system")
    p.add_argument("file")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("split", help="print the insertion/concatenation form")
    p.add_argument("file")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("to-flat", help="linearize a circular system")
    p.add_argument("file")
    p.set_defaults(func=_cmd_to_flat)

    p = sub.add_parser("synthesize", help="compile a system to a grammar")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the grammar here instead of stdout")
    p.add_argument("--method", choices=("graft", "kral"), default="graft")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("enumerate", help="list bounded words of a grammar")
    p.add_argument("grammar")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="verify grammar compilation against the closure")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_check)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BudgetExceededError, MemoryError) as exc:  # resource limits
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (SpliceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a bound is too large ({exc})", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a negative verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
