"""The two parsers of the command line agree.

main parses an argv of exact flags itself (cli._fast_parse) and hands every
other argv to argparse (cli._build_parser), which alone prints help, usage
and usage errors.  Drawn argv, hostile ones among them, give the same exit
code and output either way, and each argv the fast path takes gives the
settings argparse gives.
"""

from __future__ import annotations

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import skybench.cli as cli

COMMANDS = list(cli._COMMANDS)
FLAGS = {command: [flag for flag, *_ in flags] for command, (_, flags) in cli._COMMANDS.items()}
EVERY_FLAG = sorted({flag for flags in FLAGS.values() for flag in flags})

# Well-formed values of a str flag or of validate's path ...
words = st.one_of(st.sampled_from(["x", "run", "runs/a", "a=b", " 7", "", "generate"]), st.integers(0, 99).map(str))
# ... and values of every kind, for any flag.
values = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", "x", "run", "runs/a", "a=b", " 7", "7 ", "1_000", "+3", "-", "-x", "-1e3", "3.5",
                     "٣", "0x10", "-- ", "x y", "-x y", "generate", "validate"]),
    st.text(max_size=4),
)
hostile = st.sampled_from([
    "-h", "--help", "--h", "--he", "--", "-", "", "--bogus", "bogus", "-5", "--strict", "--lenient",
    *EVERY_FLAG, *COMMANDS,
])


def _well_formed_part(command: str, flag: str) -> st.SearchStrategy[list[str]]:
    kind = {f: kind for f, _, kind, _ in cli._COMMANDS[command][1]}[flag]
    if kind is int:
        return st.integers(0, 10**6).map(lambda n: [flag, str(n)])
    return words.map(lambda word: [flag, word]) if kind is str else st.just([flag])


@st.composite
def argvs(draw):
    """A command line: a command and its flags with well-formed values,
    often with hostile tokens put in: help, abbreviations, --flag=value,
    --, negative and non-integer values, other commands' flags and stray
    words."""
    command = draw(st.sampled_from(COMMANDS) if draw(st.integers(0, 9)) else st.one_of(hostile, values))
    flags = FLAGS.get(command, EVERY_FLAG)
    if command in cli._COMMANDS:
        parts = draw(st.lists(st.sampled_from(flags).flatmap(lambda flag: _well_formed_part(command, flag)),
                              max_size=5))
    else:
        parts = []
    if command == "validate":
        parts.insert(draw(st.integers(0, len(parts))), [draw(words)])
    own = st.sampled_from(flags)
    hostile_part = st.one_of(
        st.tuples(own, values).map(list),
        own.map(lambda flag: [flag]),
        st.tuples(own, st.integers(3, 20)).map(lambda fn: [fn[0][:fn[1]]]),
        st.tuples(own, values).map(lambda fv: [f"{fv[0]}={fv[1]}"]),
        hostile.map(lambda token: [token]),
        values.map(lambda value: [value]),
    )
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        parts.insert(draw(st.integers(0, len(parts))), draw(hostile_part))
    return [command] + [token for tokens in parts for token in tokens]


def _outcome(argv: list[str], fast: bool) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr, with its command replaced by
    a print of the parsed settings, and with the fast path or argparse alone."""

    def run(args):
        print(sorted(vars(args).items()))
        return cli.EXIT_OK

    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cli, "_run", run))
        if not fast:
            stack.enter_context(mock.patch.object(cli, "_fast_parse", lambda argv: None))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _argparse_settings(argv: list[str]) -> dict:
    with contextlib.redirect_stderr(io.StringIO()):
        return vars(cli._build_parser().parse_args(argv))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(argvs())
def test_main_gives_what_argparse_gives(argv):
    with mock.patch.dict("os.environ", {"COLUMNS": "80"}):
        assert _outcome(argv, fast=True) == _outcome(argv, fast=False)
    taken = cli._fast_parse(argv)
    if taken is not None:
        assert vars(taken) == _argparse_settings(argv)


# The forms the benchmark, CI and the README use, and more: each is taken by
# the fast path, with argparse's settings.
WELL_FORMED = [
    ["generate", "--out", "r", "--episodes-per-scenario", "2", "--seed", "7", "--agents", "a,b", "--canonical"],
    ["generate", "--out", "r", "--episodes-per-scenario", "2", "--seed", "7", "--canonical", "--parallel", "2"],
    ["generate", "--config", "c.json", "--scenarios", "s", "--calibration", "t.json", "--tools", "x.json"],
    ["generate", "--seed", "1", "--seed", "2"],
    ["score", "--out", "r", "--corpus", "r/corpus.jsonl", "--strict"],
    ["score", "--out", "r", "--lenient", "--lenient"],
    ["score"],
    ["aggregate", "--out", "r", "--episode-budget", "4"],
    ["analytics", "--out", "r", "--corpus", "c.jsonl"],
    ["validate", "r/corpus.jsonl", "--strict"],
    ["validate", "--lenient", "run/corpus.jsonl"],
    ["validate", ""],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda argv: " ".join(argv[:2]))
def test_well_formed_argv_take_the_fast_path(argv):
    taken = cli._fast_parse(argv)
    assert taken is not None
    assert vars(taken) == _argparse_settings(argv)


# Each is left to argparse: it is help, an error, or a form only argparse reads.
LEFT_TO_ARGPARSE = [
    [], ["-h"], ["bogus"], ["--out", "x"], ["score", "--help"], ["score", "--bogus"],
    ["score", "--cor", "c"], ["score", "--out=r"], ["score", "--", "x"], ["score", "--out"],
    ["score", "--out", "-r"], ["score", "--strict", "--lenient"], ["score", "x"],
    ["generate", "--seed", "-1"], ["generate", "--parallel", "x"], ["generate", "--seed", ""],
    ["validate"], ["validate", "a", "b"], ["validate", "-"], ["aggregate", "--corpus", "c"],
]


@pytest.mark.parametrize("argv", LEFT_TO_ARGPARSE, ids=lambda argv: " ".join(argv) or "none")
def test_other_argv_are_left_to_argparse(argv):
    assert cli._fast_parse(argv) is None
