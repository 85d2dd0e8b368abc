"""The names README.md gives for the package and the repository are real.

Every backquoted `module.attr` of an hmskit module must resolve by
attribute lookup (`module.py` names the module's file), and every
backquoted path under tests/, tools/, src/ or perfbench/ must exist.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "hmskit").glob("*.py") if p.stem != "__init__")
SPANS = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
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
