"""The argparse fallback of the command line: the parser of cli.COMMANDS,
built only for an argv that the fast path does not read (help, errors,
abbreviations), so a plain request never compiles it."""

from __future__ import annotations

import argparse

from .cli import _FORMAT, COMMANDS


def build_parser(argv: list[str]):
    """The parser of COMMANDS as far as argv needs it: every command's name
    and help, the action names of the command argv names, and the options
    of its one action.  The command is the first word of argv that does not
    start with '-', and the action the next: the top-level and command
    parsers take no option but -h, so argparse reads the same two words.
    The parsers argv does not name are never parsed with, so they go
    without -h."""
    words = (arg for arg in argv if not arg.startswith("-"))
    top = argparse.ArgumentParser(
        prog="quadrantal",
        description="exact computations in quadratic number rings and small number fields",
    )
    sub = top.add_subparsers(dest="command", required=True)
    chosen = next(words, None)
    for command, (help_text, actions) in COMMANDS.items():
        parser = sub.add_parser(command, help=help_text, add_help=command == chosen)
        if command == chosen:
            _add_actions(parser, actions, next(words, None))
    return top


def _add_actions(parser, actions: dict, chosen: str | None) -> None:
    if None in actions:  # a command without actions
        _add_options(parser, actions[None])
        return
    names = parser.add_subparsers(dest="action", required=True)
    for name, options in actions.items():
        leaf = names.add_parser(name, add_help=name == chosen)
        if name == chosen:
            _add_options(leaf, options)


def _add_options(parser, options: dict) -> None:
    parser.add_argument("--format", **_FORMAT)
    for flag, keywords in options.items():
        parser.add_argument(flag, **keywords)
