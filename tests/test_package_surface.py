"""The package ships only code that runs: every top-level function, class and
method of src/hmskit must be reachable from the CLI or from the API that the
benchmark and the tools call.  Code that only tests reach belongs under
tests/ (as in reference_exact.py).

The walk is static and over-approximates reachability:
- roots are `hmscli.main`, every dunder method, every module-level statement,
  the tracer targets of perfbench/layers.py and the hmskit names that
  perfbench/run.py and tools/*.py use;
- a bare name resolves to a definition of its own module, or through the
  module's imports (following `import ... as` aliases) to another module's;
- `module.name` resolves in that hmskit module; any other `.name` reaches
  every method called `name`, whatever its class.
An attribute that the package stores on `self` must likewise be read
somewhere outside the tests.  And no module of src/hmskit or tests/ imports
a name it never uses, and importing the CLI loads none of the standard
library modules that only dataclasses needs, nor fractions (with decimal
and numbers), nor hashlib's OpenSSL.  No
module is larger than MAX_MODULE_TOKENS.
"""

import ast
import importlib.util
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hmskit"
CALLERS = [ROOT / "perfbench" / "run.py", *sorted((ROOT / "tools").glob("*.py"))]
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Without a bytecode cache every hmskit process compiles the package, and
# compile() holds one module's tokens and syntax tree at a time, so the
# largest module's compile peak sets the resident peak of every process.
# About 4,700 tokens compile within 2.1 MB on Python 3.11.
MAX_MODULE_TOKENS = 4700


class _Module:
    """Definitions, hmskit imports and module-level statements of a file."""

    def __init__(self, path):
        self.name = path.stem
        self.tree = ast.parse(path.read_text(), str(path))
        self.defs = {}  # qualname -> node
        self.top = []  # module-level statements other than definitions
        for node in self.tree.body:
            if isinstance(node, _FUNCTIONS):
                self.defs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.defs[node.name] = node
                for item in node.body:
                    if isinstance(item, _FUNCTIONS):
                        self.defs[f"{node.name}.{item.name}"] = item
            else:
                self.top.append(node)
        # local name -> (hmskit module, name), or (module, None) for a module
        self.imports = {}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "hmskit" or (node.level == 1 and node.module is None):
                    self.imports[local] = (alias.name, None)
                elif node.level == 1:
                    self.imports[local] = (node.module, alias.name)
                elif node.module and node.module.startswith("hmskit."):
                    self.imports[local] = (node.module.split(".", 1)[1], alias.name)

    def references(self, nodes):
        """What nodes use: ("", name) for a bare name, (module, name) for a
        name of an imported hmskit module, (".", attr) for any other
        attribute."""
        refs = set()
        for n in nodes:
            if isinstance(n, ast.Name):
                refs.add(("", n.id))
            elif isinstance(n, ast.Attribute):
                base = getattr(n.value, "id", None)
                if base in self.imports and self.imports[base][1] is None:
                    refs.add((self.imports[base][0], n.attr))
                else:
                    refs.add((".", n.attr))
        return refs


def _own_nodes(node):
    """The nodes of a definition, without the bodies of its methods (each
    method is a definition of its own)."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        for child in ast.iter_child_nodes(n):
            if n is node and isinstance(node, ast.ClassDef) and isinstance(child, _FUNCTIONS):
                stack.extend(child.decorator_list)  # they run with the class body
            else:
                stack.append(child)


def _tracer_targets(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, attr) for module, attr, _, _ in layers.TARGETS]


def unreached(monkeypatch):
    """Sorted 'module.qualname' of every definition no root reaches."""
    modules = {path.stem: _Module(path) for path in sorted(PACKAGE.glob("*.py"))}
    methods = {}  # method name -> keys
    for mod in modules.values():
        for qual in mod.defs:
            if "." in qual:
                methods.setdefault(qual.split(".")[1], []).append((mod.name, qual))

    def resolve(mod, name):
        """Keys of the definitions that a name used in mod stands for."""
        if mod is None:
            return []
        if mod.name in modules and name in mod.defs:
            return [(mod.name, name)]
        head, _, rest = name.partition(".")
        if head not in mod.imports:
            return []
        target, orig = mod.imports[head]
        if orig is None:
            return resolve(modules.get(target), rest) if rest else []
        return resolve(modules.get(target), f"{orig}.{rest}" if rest else orig)

    def keys(mod, refs):
        out = []
        for where, name in refs:
            if where == ".":
                out.extend(methods.get(name, []))
            else:
                out.extend(resolve(modules.get(where) if where else mod, name))
        return out

    roots = [("hmscli", "main")]
    for mod in modules.values():
        roots.extend((mod.name, q) for q in mod.defs if q.rsplit(".", 1)[-1].startswith("__"))
        roots.extend(keys(mod, mod.references(n for stmt in mod.top for n in ast.walk(stmt))))
    for module, attr in _tracer_targets(monkeypatch):
        roots.extend(resolve(modules[module], attr))
    for path in CALLERS:
        caller = _Module(path)
        roots.extend(keys(caller, caller.references(ast.walk(caller.tree))))

    seen = set()
    while roots:
        key = roots.pop()
        if key not in seen:
            seen.add(key)
            mod = modules[key[0]]
            roots.extend(keys(mod, mod.references(_own_nodes(mod.defs[key[1]]))))
    return sorted(f"{m}.{q}" for m, mod in modules.items() for q in mod.defs if (m, q) not in seen)


def test_every_package_definition_is_reached_outside_tests(monkeypatch):
    assert unreached(monkeypatch) == []


def test_every_attribute_the_package_sets_is_read_outside_tests():
    # a value stored on self that nothing but tests reads is test-only too
    written, read = set(), set()
    for path in [*sorted(PACKAGE.glob("*.py")), *CALLERS]:
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(n, ast.Attribute):
                continue
            if isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif path.parent == PACKAGE and getattr(n.value, "id", None) == "self":
                written.add((path.stem, n.attr))
    assert sorted(f"{m}.{attr}" for m, attr in written if attr not in read) == []


def test_no_module_imports_a_name_it_never_uses():
    # `import a.b` binds `a`; a use is any occurrence of the bound name
    unused = []
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]:
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused.extend(f"{path.relative_to(ROOT)}:{node.lineno} {name}" for name in names if name not in used)
    assert unused == []


def _modules_the_cli_loads():
    # a fresh process pays for every module it imports before it computes
    # anything.  -I -S: no site hooks and no environment, so only hmskit
    # imports; -B, as -I ignores PYTHONDONTWRITEBYTECODE: no bytecode in src/
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import hmskit.hmscli, hmskit.matfac; print(*sorted(sys.modules))"
    )
    out = subprocess.run([sys.executable, "-I", "-B", "-S", "-c", code], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert {"hmskit.hmscli", "hmskit.matfac"} <= loaded
    return loaded


def test_importing_the_cli_loads_no_dataclass_machinery():
    # dataclasses alone pulls in inspect, ast, dis, tokenize and more
    loaded = _modules_the_cli_loads()
    assert sorted(loaded & {"dataclasses", "inspect", "ast", "__future__"}) == []


def test_importing_the_cli_loads_no_fractions():
    # every number the package computes is an int or a Gaussian integer;
    # fractions alone pulls in decimal and numbers
    assert sorted(_modules_the_cli_loads() & {"fractions", "decimal", "numbers"}) == []


def test_importing_the_cli_loads_no_openssl():
    # hashlib loads OpenSSL's libcrypto through _hashlib, about 3.6 MB of
    # resident memory, where the cache needs only SHA-256
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has SHA-256 only through hashlib")
    assert sorted(_modules_the_cli_loads() & {"hashlib", "_hashlib", "_blake2"}) == []


def test_no_module_is_larger_than_the_token_budget():
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
    sizes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with path.open("rb") as fh:
            sizes[path.name] = sum(tok.type not in layout for tok in tokenize.tokenize(fh.readline))
    assert {name: n for name, n in sizes.items() if n > MAX_MODULE_TOKENS} == {}
