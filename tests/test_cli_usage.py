"""The CLI's help texts and argument-parsing errors, byte for byte, against
what reference_usage.py recorded while every argv built every command's
parser; and the parser an argv builds."""

import argparse
import sys

import pytest

from renorm import cli
from record_usage import CASES, COMMANDS, run
from reference_usage import USAGE


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # as recorded: argparse wraps to the terminal width


def _commands(parser) -> list:
    """The command names parser holds a parser for."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_every_recorded_case_is_run():
    assert list(USAGE) == CASES


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_argparse_prints_the_recorded_bytes(argv):
    assert run(argv) == USAGE[argv]


@pytest.mark.parametrize("argv", [("solve", "--bogus"), ("bogus",), ("--help",)], ids=" ".join)
def test_main_reads_sys_argv_alike(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["renorm", *argv])
    assert run(None) == USAGE[argv]


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_builds_its_own_parser_only(command):
    assert _commands(cli.build_parser(command)) == [command]


@pytest.mark.parametrize("first", [None, "bogus", "--help", "-h", "--period", "Solve"])
def test_anything_else_builds_every_parser(first):
    assert _commands(cli.build_parser(first)) == list(COMMANDS)
