"""The README's examples run, and every flag it names exists."""

import argparse
import re
from pathlib import Path

from totpos.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
COMMANDS = ("fit", "analyze", "signed", "selftest")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else None]


def _options(command: str) -> set[str]:
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(subparsers.choices[command]._option_string_actions)


def _flag_blocks() -> list[tuple[str, set[str], list[str]]]:
    """Each line of a code block and each paragraph of prose in the command
    line section, with the subcommands it names and the flags it names."""
    text = _section("Command line")
    code = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    prose = re.sub(r"```sh\n.*?```", "", text, flags=re.S)
    blocks = [line for c in code for line in c.splitlines()]
    blocks += [p for p in prose.split("\n\n") if p.strip()]
    names = "|".join(COMMANDS)
    out = []
    for block in blocks:
        commands = set(re.findall(rf"`({names})`|totpos ({names})\b", block))
        commands = {c for pair in commands for c in pair if c}
        flags = re.findall(r"(?<![\w-])--[a-z][a-z-]*", block)
        if flags:
            out.append((block, commands, flags))
    return out


def test_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", _section("Library quick start"), flags=re.S)
    exec(compile(block, "README quick start", "exec"), {})


def test_command_line_flags_exist():
    blocks = _flag_blocks()
    assert blocks
    problems = []
    for block, commands, flags in blocks:
        if not commands:
            problems.append(f"no subcommand named for the flags of {block!r}")
        for command in sorted(commands):
            missing = sorted(set(flags) - _options(command))
            if missing:
                problems.append(f"`totpos {command}` has no {missing}")
    assert not problems, problems
