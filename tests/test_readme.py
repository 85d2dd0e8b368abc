"""README.md, the manual, states what the code does.

Every backquoted `module.attr` of an hmskit module must resolve by
attribute lookup (`module.py` names the module's file), and every
backquoted path under tests/, tools/, src/ or perfbench/ must exist.  Every
`MAX_*` bound of the package is stated with its value as a power of two,
the exit-code table gives each `hmscli.EXIT_*` its value, and every
`hmskit` line of the CLI block parses.
"""

import importlib
import re
import shlex
from pathlib import Path

from hmskit import hmscli

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "hmskit").glob("*.py") if p.stem != "__init__")
README = (ROOT / "README.md").read_text()
SPANS = re.findall(r"`([^`\n]+)`", README)
NAME = re.compile(r"(?<![\w./-])(?:hmskit\.)?(%s)((?:\.\w+)*)" % "|".join(MODULES))
PATH = re.compile(r"(?<![\w./])(?:tests|tools|src|perfbench)/[\w./-]*")


def test_every_backquoted_package_name_resolves():
    names = {m.group(0) for span in SPANS for m in NAME.finditer(span)}
    assert len(names) > 20
    missing = []
    for name in sorted(names):
        module, attrs = NAME.fullmatch(name).groups()
        obj = importlib.import_module(f"hmskit.{module}")
        for attr in attrs.removesuffix(".py").split(".")[1:]:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []


def test_every_backquoted_repository_path_exists():
    paths = {m.group(0) for span in SPANS for m in PATH.finditer(span)}
    assert len(paths) > 5
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []


def test_every_bound_is_stated_with_its_value():
    stated = re.findall(r"`(\w+)\.(MAX_\w+)` \(2\^(\d+)", README)
    bounds = {
        (module, name)
        for module in MODULES
        for name in re.findall(r"^(MAX_\w+) = ", (ROOT / "src" / "hmskit" / f"{module}.py").read_text(), re.M)
    }
    assert {(module, name) for module, name, _ in stated} == bounds
    assert [(m, n, k) for m, n, k in stated if getattr(importlib.import_module(f"hmskit.{m}"), n) != 1 << int(k)] == []


def test_the_exit_code_table_matches_the_cli():
    rows = re.findall(r"^\| `(\d)` \| `hmscli\.(EXIT_\w+)` \|", README, re.M)
    codes = {name: value for name, value in vars(hmscli).items() if name.startswith("EXIT_")}
    assert len(rows) == len(codes)
    assert {name: int(code) for code, name in rows} == codes
    assert sorted(codes.values()) == [0, 1, 2, 3, 4]


def test_every_cli_example_parses():
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README, re.M | re.S)[1]
    lines = [line for line in block.splitlines() if line.startswith("hmskit ")]
    assert len(lines) > 5
    for line in lines:
        hmscli._build_parser().parse_args(shlex.split(line, comments=True)[1:])
