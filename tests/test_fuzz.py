"""Every command ends in one of the documented exit codes 0–3, on random
systems and on system, automaton and grammar files with random damage: no
exception escapes ``run_command`` and no run hangs.  An automaton or
grammar file that parses serializes to text that parses back to an equal
object."""

import random
import signal

import pytest

from splicelab.automata import parse_regex, regex_to_dfa
from splicelab.cli import run_command
from splicelab.core import CIRCULAR, CONCAT, FLAT, SPLICE, InitialSet, ParseError, SplicingSystem
from splicelab.fileformat import (
    parse_dfa,
    parse_grammar,
    serialize_dfa,
    serialize_grammar,
    serialize_system,
)

from helpers import random_cfg, random_regex, random_system, random_word

CASES = 300
ALARM_S = 5  # a hang, not a slow host: every case here takes milliseconds


class Hang(Exception):
    pass


def random_text(rng):
    """A valid system file, flat or circular, with finite or regular
    axioms and handles of 0–2 letters, and its letters."""
    mode = rng.choice((FLAT, CIRCULAR))
    system = random_system(
        rng,
        usages=(SPLICE,) if mode == CIRCULAR else (SPLICE, CONCAT),
        mode=mode,
        handle_len=rng.randint(1, 2),
    )
    if rng.random() < 0.3:
        letters = system.alphabet.letters
        regex = random_regex(rng, "".join(letters))
        initial = InitialSet.regular(regex_to_dfa(parse_regex(regex), letters), regex)
        system = SplicingSystem(system.alphabet, initial, system.rules, mode)
    return serialize_system(system), "".join(system.alphabet.letters)


def mutate(rng, text):
    """One random edit: a character dropped, doubled or replaced by a
    letter, a format character or a stray one, a line dropped or
    repeated, a token repeated in its line, or the text cut short."""
    lines = text.splitlines(keepends=True)
    kind = rng.randrange(7)
    if kind == 6:
        i = rng.randrange(len(lines))
        tokens = lines[i].split() or [""]
        j = rng.randrange(len(tokens))
        lines[i] = " ".join(tokens[: j + 1] + tokens[j:]) + "\n"
        return "".join(lines)
    if kind == 3 and len(lines) > 1:
        del lines[rng.randrange(len(lines))]
        return "".join(lines)
    if kind == 4:
        i = rng.randrange(len(lines))
        return "".join(lines[: i + 1] + lines[i:])
    if kind == 5:
        return text[: rng.randrange(len(text))]
    i = rng.randrange(len(text))
    if kind == 0:
        return text[:i] + text[i + 1 :]
    if kind == 1:
        return text[:i] + text[i] + text[i:]
    return text[:i] + rng.choice("ab#$-_()|*+ \nxZ0") + text[i + 1 :]


COMMANDS = (
    "closure", "member", "decide-equal", "generable", "complete", "split", "to-flat",
    "synthesize", "check",
)


def random_argv(rng, path, letters):
    """A command over the system file at ``path`` and words over
    ``letters``, with small bounds; a few membership searches get a
    budget too small to finish."""
    command = rng.choice(COMMANDS)
    if command == "closure":
        return ["closure", path, "--max-len", str(rng.randint(0, 6))] + (
            ["--linearize"] if rng.random() < 0.5 else []
        )
    if command == "member":
        argv = ["member", path, random_word(rng, letters, 5) if rng.random() < 0.8 else "_"]
        if rng.random() < 0.5:
            argv.append("--trace")
        if rng.random() < 0.4:
            argv += ["--budget", "0"]
        return argv
    if command == "decide-equal":
        return ["decide-equal", path, "--regex", random_regex(rng, letters)]
    if command == "generable":
        return ["generable", "--alphabet", " ".join(letters), "--regex", random_regex(rng, letters)]
    if command == "synthesize":
        return ["synthesize", path, "--method", rng.choice(("graft", "kral"))]
    if command == "check":
        return ["check", path, "--max-len", str(rng.randint(0, 5))]
    return [command, path]


@pytest.fixture
def alarm():
    """SIGALRM raises ``Hang`` for the test's duration."""

    def ring(signum, frame):
        raise Hang

    previous = signal.signal(signal.SIGALRM, ring)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("alarm")
def test_exit_codes(tmp_path, capsys):
    rng = random.Random(97)
    path = str(tmp_path / "system.spl")
    codes = dict.fromkeys(range(4), 0)
    for case in range(CASES):
        text, letters = random_text(rng)
        if rng.random() < 0.2:
            text = mutate(rng, text)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        argv = random_argv(rng, path, letters)
        signal.setitimer(signal.ITIMER_REAL, ALARM_S)
        try:
            code = run_command(argv)
        except Hang:
            pytest.fail(f"case {case} ran past {ALARM_S} s: {argv[0]} on {text!r}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        assert code in codes, (case, argv, text, code)
        codes[code] += 1
        capsys.readouterr()
    assert min(codes.values()) >= 3, codes


def dfa_case(rng, tmp_path):
    """A serialized random automaton, its parser and serializer, and the
    start of a ``decide-equal`` run of a random system over the same
    letters against it."""
    system = random_system(rng, max_letters=3)
    letters = system.alphabet.letters
    regex = random_regex(rng, "".join(letters))
    text = serialize_dfa(regex_to_dfa(parse_regex(regex), letters))
    spl = tmp_path / "system.spl"
    spl.write_text(serialize_system(system), encoding="utf-8")
    return text, parse_dfa, serialize_dfa, ["decide-equal", str(spl), "--dfa"]


def grammar_case(rng, tmp_path):
    """A serialized random grammar, its parser and serializer, and the
    start of an ``enumerate`` run of it."""
    letters = ("a", "b", "c")[: rng.randint(1, 3)]
    text = serialize_grammar(random_cfg(rng, letters, max_body=3))
    argv = ["enumerate", "--max-len", str(rng.randint(0, 6))]
    return text, parse_grammar, serialize_grammar, argv


@pytest.mark.usefixtures("alarm")
@pytest.mark.parametrize("case_of", [dfa_case, grammar_case])
def test_other_formats(tmp_path, capsys, case_of):
    """Half the files are damaged; each one that parses round-trips."""
    rng = random.Random(101)
    path = str(tmp_path / "input.txt")
    codes = dict.fromkeys(range(4), 0)
    for case in range(CASES):
        text, parse, serialize, argv = case_of(rng, tmp_path)
        if rng.random() < 0.5:
            text = mutate(rng, text)
        try:
            parsed = parse(text)
        except ParseError:
            pass
        else:
            assert parse(serialize(parsed)) == parsed, (case, text)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        argv = argv + [path]
        signal.setitimer(signal.ITIMER_REAL, ALARM_S)
        try:
            code = run_command(argv)
        except Hang:
            pytest.fail(f"case {case} ran past {ALARM_S} s: {argv[0]} on {text!r}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        assert code in codes, (case, argv, text, code)
        codes[code] += 1
        capsys.readouterr()
    assert codes[0] >= 3 and codes[2] >= 3, codes
