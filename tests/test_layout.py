"""Layout rules of the package.

No code in the package is kept alive by the tests alone: every top-level
function and class of ``src/nlbox``, and every method and property of
its classes, must be reached, through a chain of reads, from module-level
code such as ``__main__``.  Code whose only callers are tests belongs in
the tests (``tests/oracle.py`` or a fixture) or nowhere.  The oracle
keeps no dead code either: each of its definitions is reached from a test
module other than ``test_oracle.py`` (its own unit tests),
directly or through other oracle definitions.  The oracle imports nothing
from ``nlbox.inequalities``: its sign tables are its own, a second route
to the package's ``C``.

The package is integer-only: it holds no complex number and no ket; the
dense ket route lives in ``tests/oracle.py``, and it is exact too: the
oracle holds no complex number and names no square root, and no test
module but this one holds a float tolerance (``approx``, ``atol``,
``rtol``, ``isclose``, ``allclose`` or a ``1e-`` literal), except the
statistical checks listed in ``STATISTICAL``.  The package is exact until
the renderer: no float literal and no true division outside ``cli.sig12``,
but for the contract's draw ``u() * 1152.0`` and the ``Path`` joins, and
no command loads ``fractions`` or ``decimal``.

The CLI writes its reports in one place: only the renderer serializes JSON
or joins fields with a separator, and no command reads ``--format``.  It
reaches stdout in one place too: every ``print`` passes ``file=sys.stderr``,
and ``main`` makes the one ``sys.stdout.write``.  Only
``cli.py`` holds text: no other module has a string constant equal to an
outcome label or a Bell code.  No module imports another's private name.
Only ``cli.entry_point`` names ``gc``, so the heap is frozen once the
command is done, and never at import or in an in-process ``main``.

No line of the package or of ``tools/`` is longer than 100 characters.

The test files mirror the modules: each is named ``test_<m>.py`` after a
module ``m`` of the package, or tests the oracle, the oracle's observables,
the layout, the acceptance criteria or the byte check.  Every line of the package that no
command line of the byte check reaches is named, with the test that
reaches it, in ``tools/bytecheck.py``'s allow-list; each of its texts
stands once in the package, and each test it names exists.  One command
line of the table runs as a whole process under the byte check's
``trace`` script here, so that its counts reach the entry point; running
the full table stays out of the test suite.

No module imports numpy, and a probe runs entries of the byte check's
table as whole ``python -S`` processes, through ``bytecheck.run``, in an
interpreter that cannot import numpy.  Each reproduces its record, loads
the package's five modules and none of ``BUDGET``, and loads ``json`` only
to write a JSON report or read the reference table.  Importing the
package alone loads none of its modules: it re-exports no name.
"""

import ast
import json
import pickle
import re
from collections import Counter
from pathlib import Path

import bytecheck
import pytest

import nlbox

PACKAGE = Path(nlbox.__file__).parent
TESTS = Path(__file__).parent
TOOLS = TESTS.parent / "tools"


def _used_names(node: ast.AST) -> Counter:
    """How often ``node`` reads each name, bare or as an attribute."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
    return used


def _parse(paths) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _modules() -> dict[str, ast.Module]:
    return _parse(sorted(PACKAGE.glob("*.py")))


def _definitions(tree: ast.Module):
    """Each top-level function and class, and each method and property of
    a top-level class except the dunders, as (name, node)."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{stmt.name}.{sub.name}", sub


def _unreached(modules: dict[str, ast.Module], roots: Counter) -> list[str]:
    """Definitions of ``modules`` that no chain of reads reaches from ``roots``.

    A definition is reached when a root, a module's top-level statements
    outside the definitions or a reached definition read its name.  A
    definition's reads of its own name (recursion) are no caller, and a
    class's reads leave out its methods', which are definitions of their own.
    """
    known, reads, short = Counter(roots), {}, {}
    for module, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                known += _used_names(stmt)
        for name, node in _definitions(tree):
            key = f"{module}:{name}"
            short[key] = name.rsplit(".", 1)[-1]
            reads[key] = _used_names(node)
            reads[key][short[key]] = 0
            if "." in name:  # a method's reads are its own, not its class's
                reads[f"{module}:{name.split('.')[0]}"] -= _used_names(node)
    done = {key for key in reads if known[short[key]]}
    frontier = list(done)
    while frontier:
        read = reads[frontier.pop()]
        new = {key for key in reads if read[short[key]]} - done
        done |= new
        frontier += new
    return [key for key in reads if key not in done]


def test_reachability_follows_chains_of_reads():
    sample = (
        "LIMIT = limit()\n"
        "def limit(): return 3\n"
        "def root(): return helper()\n"
        "def helper(): return Box().used()\n"
        "class Box:\n"
        "    def used(self): return 1\n"
        "    def only_self(self): return self.only_self()\n"
        "def ping(): return pong()\n"
        "def pong(): return ping()\n"
    )
    unreached = _unreached({"m.py": ast.parse(sample)}, Counter(["root"]))
    assert unreached == ["m.py:Box.only_self", "m.py:ping", "m.py:pong"]


@pytest.mark.parametrize(
    "defining, reading",
    [
        (sorted(PACKAGE.glob("*.py")), []),
        # the oracle's own unit tests keep no oracle definition alive
        ([TESTS / "oracle.py"], sorted(set(TESTS.glob("test_*.py")) - {TESTS / "test_oracle.py"})),
    ],
    ids=["package", "oracle"],
)
def test_every_definition_has_a_caller_in_the_package(defining, reading):
    roots = sum((_used_names(tree) for tree in _parse(reading).values()), Counter())
    unused = _unreached(_parse(defining), roots)
    assert unused == [], f"defined but reached from no caller: {unused}"


MAX_LINE = 100


def test_no_line_is_longer_than_the_limit():
    long = [
        f"{path.name}:{number}: {len(line)} characters"
        for folder in (PACKAGE, TOOLS, TESTS)
        for path in sorted(folder.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long == [], f"lines over {MAX_LINE} characters: {long}"


def _complex_uses(tree: ast.Module) -> list[str]:
    """Imaginary literals, ``complex``/``complex128`` names and ``qla`` imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("complex", "complex128"):
            found.append(f"line {node.lineno}: name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in ("complex", "complex128"):
            found.append(f"line {node.lineno}: attribute {node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("qla" in m.split(".") for m in modules):
                found.append(f"line {node.lineno}: qla import")
    return found


def test_package_is_integer_only():
    sample = "import nlbox.qla\nfrom . import qla\nz = 1j * np.complex128(2) + complex(1)"
    assert len(_complex_uses(ast.parse(sample))) == 5
    found = [
        f"{module} {use}" for module, tree in _modules().items() for use in _complex_uses(tree)
    ]
    assert found == [], f"complex numbers in the package: {found}"


def _names_from(tree: ast.Module, module: str) -> list[str]:
    """What ``tree`` imports from ``module``, or ``module`` itself, in any import form."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [(f"{node.module}.{a.name}", a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            names = [(a.name, a.name) for a in node.names]
        else:
            continue
        found += [name for full, name in names if f"{full}.".startswith(f"{module}.")]
    return found


def test_the_oracle_reads_no_expression_off_the_package():
    sample = (
        "from nlbox.inequalities import SIGN_TABLES, C\n"
        "from nlbox import inequalities, swap\n"
        "import nlbox.inequalities\n"
        "from nlbox.swap import class_map\n"
    )
    found = _names_from(ast.parse(sample), "nlbox.inequalities")
    assert found == ["SIGN_TABLES", "C", "inequalities", "nlbox.inequalities"]
    oracle = ast.parse((TESTS / "oracle.py").read_text(encoding="utf-8"))
    found = _names_from(oracle, "nlbox.inequalities")
    assert found == [], f"the oracle imports {found} from nlbox.inequalities"


TOLERANCES = re.compile(r"approx|atol|rtol|isclose|allclose|1e-")
FLOAT_ROUTES = re.compile(r"sqrt|complex|1j")
# The statistical checks keep their float thresholds: test_sampler.py's
# stdlib chi-squared survival function and its p-value threshold.  Its
# 5-sigma and 5-standard-error checks hold no token.
STATISTICAL = {"test_sampler.py": ("chi2_sf", "assert p_value > 1e-3")}


def _matching_lines(source: str, pattern: re.Pattern, allowed=()) -> list[str]:
    """Lines that ``pattern`` matches, except the lines of a top-level
    function named in ``allowed`` and lines that, stripped, are in it."""
    exempt = {
        number
        for stmt in ast.parse(source).body
        if getattr(stmt, "name", None) in allowed
        for number in range(stmt.lineno, stmt.end_lineno + 1)
    }
    return [
        f"line {number}: {line.strip()}"
        for number, line in enumerate(source.splitlines(), 1)
        if pattern.search(line) and number not in exempt and line.strip() not in allowed
    ]


def test_no_float_tolerance_in_the_oracle_or_the_tests():
    sample = (
        "def chi2_sf(x):\n"
        "    return x < 1e-15\n"
        "assert p_value > 1e-3\n"
        "assert p == pytest.approx(0.5)\n"
        "np.testing.assert_allclose(a, b, atol=1e-12)\n"
    )
    assert len(_matching_lines(sample, TOLERANCES)) == 4
    assert len(_matching_lines(sample, TOLERANCES, STATISTICAL["test_sampler.py"])) == 2
    assert len(_matching_lines("v = np.array([1, 1j]) / np.sqrt(2)\n", FLOAT_ROUTES)) == 1
    oracle = (TESTS / "oracle.py").read_text(encoding="utf-8")
    found = [f"oracle.py {hit}" for hit in _matching_lines(oracle, FLOAT_ROUTES)]
    found += [f"oracle.py {use}" for use in _complex_uses(ast.parse(oracle))]
    for path in sorted(TESTS.glob("*.py")):
        if path.name != "test_layout.py":
            allowed = STATISTICAL.get(path.name, ())
            hits = _matching_lines(path.read_text(encoding="utf-8"), TOLERANCES, allowed)
            found += [f"{path.name} {hit}" for hit in hits]
    assert found == [], f"float routes or tolerances in the tests: {found}"


def _early_floats(source: str, exempt=()) -> list[str]:
    """Float literals and true divisions outside the top-level functions
    ``exempt``, except the draw ``u() * 1152.0`` and joins of a ``Path(``."""
    lines = source.splitlines()
    found = []
    for stmt in ast.parse(source).body:
        if getattr(stmt, "name", "") in exempt:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                if "u() * 1152.0" not in lines[node.lineno - 1]:
                    found.append(f"line {node.lineno}: literal {node.value!r}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                if "Path(" not in lines[node.lineno - 1]:
                    found.append(f"line {node.lineno}: division")
    return found


def test_package_is_exact_until_the_renderer():
    sample = (
        "def sig12(n, d):\n"
        "    return float(f'{n / d:.12g}')\n"
        "x = 1 / 16 + 0.5\n"
        "y /= 2\n"
        "code = table[floor(u() * 1152.0)]\n"
        "path = Path(out) / 'events.csv'\n"
        "z = 1152.0 // 7\n"
    )
    assert len(_early_floats(sample, exempt=("sig12",))) == 4
    assert len(_early_floats(sample)) == 5
    found = [
        f"{path.name} {hit}"
        for path in sorted(PACKAGE.glob("*.py"))
        for hit in _early_floats(
            path.read_text(encoding="utf-8"), ("sig12",) if path.name == "cli.py" else ()
        )
    ]
    assert found == [], f"floats made outside cli.sig12: {found}"


RENDERER = ("_render", "_cell")


def _hand_written_reports(tree: ast.Module) -> list[str]:
    """``json.dump(s)`` and joins with a non-empty separator outside the
    renderer, and reads of ``.format`` inside a ``cmd_*`` function."""
    found = []
    for stmt in tree.body:
        name = getattr(stmt, "name", "")
        if name in RENDERER:
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if node.attr in ("dump", "dumps") and getattr(owner, "id", None) == "json":
                found.append(f"line {node.lineno}: json.{node.attr}")
            elif node.attr == "join" and isinstance(owner, ast.Constant) and owner.value:
                found.append(f"line {node.lineno}: {owner.value!r}.join")
            elif node.attr == "format" and name.startswith("cmd_"):
                found.append(f"line {node.lineno}: {name} reads .format")
    return found


def test_cli_reports_are_rendered_in_one_place():
    sample = (
        "def cmd_x(args):\n"
        "    if args.format == 'json':\n"
        "        return json.dumps({})\n"
        "    return ','.join(['a']) + ''.join([])\n"
        "def _render(fmt, report):\n"
        "    return json.dumps(report) + '|'.join([])\n"
    )
    assert len(_hand_written_reports(ast.parse(sample))) == 3
    found = _hand_written_reports(_modules()["cli.py"])
    assert found == [], f"report text written outside the renderer: {found}"


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _is_sys(node: ast.AST, attr: str) -> bool:
    """Whether ``node`` reads ``sys.<attr>``."""
    return isinstance(node, ast.Attribute) and node.attr == attr and _is_name(node.value, "sys")


def _ways_to_stdout(source: str) -> list[str]:
    """Each ``print`` that does not pass ``file=sys.stderr``, and each
    ``sys.stdout.write``, as the top-level definition around it and its text."""
    found = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func, files = node.func, [k.value for k in node.keywords if k.arg == "file"]
            printed = _is_name(func, "print") and not any(_is_sys(f, "stderr") for f in files)
            written = getattr(func, "attr", None) == "write" and _is_sys(func.value, "stdout")
            if printed or written:
                text = ast.get_source_segment(source, node)
                found.append(f"{getattr(stmt, 'name', 'module')}: {text}")
    return found


def test_stdout_is_written_once_in_main():
    # one write, after every rename, so one closed-stdout rule covers the
    # report and the wrote lines
    sample = (
        "import sys\n"
        "print('x')\n"
        "def f():\n"
        "    print('y', file=sys.stderr)\n"
        "    print('z', file=sys.stdout)\n"
        "    sys.stdout.write('w')\n"
        "    sys.stderr.write('v')\n"
    )
    assert _ways_to_stdout(sample) == [
        "module: print('x')",
        "f: print('z', file=sys.stdout)",
        "f: sys.stdout.write('w')",
    ]
    found = [
        f"{path.name} {hit}"
        for path in sorted(PACKAGE.glob("*.py"))
        for hit in _ways_to_stdout(path.read_text(encoding="utf-8"))
    ]
    assert [hit for hit in found if "sys.stdout.write(" not in hit] == [], found
    assert [hit.split(":")[0] for hit in found] == ["cli.py main"]


# the command line's outcome labels and Bell codes
LABELS = ("++", "+-", "-+", "--", "PP", "PM", "SP", "SM")


def _labels(tree: ast.Module) -> list[str]:
    """String constants equal to a label; a docstring that names one is longer."""
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in LABELS
    ]


def test_only_the_cli_holds_text():
    sample = 'OUTCOMES = ("++", "+-")\n"""Codes PP and SM."""\nx = "SM,SM" or "--"\n'
    assert len(_labels(ast.parse(sample))) == 3
    found = [
        f"{module} {hit}"
        for module, tree in _modules().items()
        if module != "cli.py"
        for hit in _labels(tree)
    ]
    assert found == [], f"labels outside cli.py: {found}"
    assert len(_labels(_modules()["cli.py"])) == len(LABELS)


def _gc_uses(tree: ast.Module, allowed: bool) -> list[str]:
    """Imports and reads of ``gc``, outside a top-level ``entry_point`` if ``allowed``."""
    inside = {
        id(node)
        for stmt in tree.body
        if allowed and isinstance(stmt, ast.FunctionDef) and stmt.name == "entry_point"
        for node in ast.walk(stmt)
    }
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            isinstance(node, ast.Name) and node.id == "gc"
            or isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "gc"
        )
    ]


def test_only_the_entry_point_touches_the_collector():
    # a freeze at import or inside main would freeze before the command's
    # work, and in every in-process caller
    sample = (
        "import gc\n"
        "from gc import freeze\n"
        "def main():\n"
        "    gc.freeze()\n"
        "def entry_point():\n"
        "    import gc\n"
        "    gc.freeze()\n"
    )
    assert _gc_uses(ast.parse(sample), allowed=True) == ["line 1", "line 2", "line 4"]
    assert len(_gc_uses(ast.parse(sample), allowed=False)) == 5
    modules = _modules()
    found = [
        f"{module} {hit}"
        for module, tree in modules.items()
        for hit in _gc_uses(tree, allowed=module == "cli.py")
    ]
    assert found == [], f"gc used outside cli.entry_point: {found}"
    assert _gc_uses(modules["cli.py"], allowed=False) != []


def _private_imports(tree: ast.Module) -> list[str]:
    """Private names taken from another package module: ``from .x import _y``,
    or ``x._y`` where ``from . import x`` bound the module ``x``."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name[0] == "_"]
            if node.module is None:
                modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_name():
    sample = (
        "from .inequalities import _COLUMNS, C\n"
        "from . import swap, _util\n"
        "x = swap._frame + swap.WEIGHT + swap.__name__\n"
    )
    assert len(_private_imports(ast.parse(sample))) == 3
    found = [
        f"{module} {hit}" for module, tree in _modules().items() for hit in _private_imports(tree)
    ]
    assert found == [], f"private names imported across modules: {found}"


def _numpy_imports(tree: ast.Module) -> list[str]:
    """Imports of numpy or of a numpy submodule, at any depth of the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name.split(".")[0] == "numpy"]
    return found


def test_no_module_imports_numpy():
    sample = (
        "import numpy as np\n"
        "from numpy.random import PCG64\n"
        "from . import numpy_free\n"
        "def f():\n"
        "    import os, numpy.linalg\n"
    )
    assert len(_numpy_imports(ast.parse(sample))) == 3
    found = [
        f"{module} {hit}" for module, tree in _modules().items() for hit in _numpy_imports(tree)
    ]
    assert found == [], f"numpy imported in the package: {found}"


# python -S -c PROBE MODULES ARGV: nlbox ARGV in an interpreter that cannot
# import numpy.  It calls the entry point directly, so that no import of its own
# counts, and however the command exits it writes the names of the modules it
# holds to the file MODULES
PROBE = """\
import sys
modules = sys.argv.pop(1)
sys.modules["numpy"] = None
try:
    import nlbox.cli
    nlbox.cli.entry_point()
finally:
    names = [name for name, module in sys.modules.items() if module is not None]
    with open(modules, "w") as fh:
        fh.write(" ".join(names))
"""

# modules that no command loads: numpy, exact arithmetic beside the package's
# integers, argparse with the gettext it brings, and what the named tuples and
# the reference table read by path spare
BUDGET = (
    "numpy",
    "fractions",
    "decimal",
    "argparse",
    "gettext",
    "dataclasses",
    "inspect",
    "typing",
    "importlib.resources",
)
SUBMODULES = [f"nlbox.{name}" for name in ("cli", "inequalities", "polytope", "sampler", "swap")]

# entries of the byte check's table, each with its exit code, the stream that
# starts with the usage line, and whether it loads json: to write a JSON report
# or to read the reference table
PROBED = {
    "help": (0, "stdout", False),
    "help-after-options": (0, "stdout", False),
    "zero-shots": (2, "stderr", False),
    "verify-table3-csv": (0, None, True),
    "bounds-csv": (0, None, False),
    "swap-map-PM-PP": (0, None, True),
    "sample-400-0-csv": (0, None, False),
    "sample-400-0-json": (0, None, True),
}
RECORD = json.loads(bytecheck.RECORD.read_text())


@pytest.mark.parametrize("name", list(PROBED))
def test_command_keeps_its_module_budget(tmp_path, name):
    entry = next(entry for entry in bytecheck.TABLE if entry.name == name)
    modules = tmp_path / "modules"
    done = bytecheck.run(entry, tmp_path / "run", ("-S", "-c", PROBE, modules))
    assert bytecheck.recorded(done) == RECORD[name]
    code, usage, reads_json = PROBED[name]
    usages = [stream.startswith(b"usage: nlbox") for stream in (done.stdout, done.stderr)]
    assert (done.code, usages) == (code, [usage == "stdout", usage == "stderr"])
    loaded = modules.read_text().split()
    assert [module for module in BUDGET if module in loaded] == []
    assert ("json" in loaded) == reads_json
    assert sorted(module for module in loaded if module.startswith("nlbox.")) == SUBMODULES


def test_csv_sample_loads_no_json(tmp_path):
    # a CSV sample of another size than the table's, called through main
    script = (
        "import sys\n"
        "import nlbox.cli as cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "assert 'json' not in sys.modules and 'argparse' not in sys.modules\n"
    )
    argv = ["sample", "--shots", "500", "--format", "csv", "--out", "run"]
    done = bytecheck.run(bytecheck.Entry("", argv), tmp_path / "cwd", ("-S", "-c", script))
    assert (done.code, done.stderr) == (0, b"")
    names = sorted(path.name for path in (tmp_path / "cwd" / "run").iterdir())
    assert names == ["events.csv", "summary.csv"]


def test_package_import_loads_no_submodule(tmp_path):
    script = "import sys, nlbox\nprint(*(m for m in sys.modules if m.startswith('nlbox.')))"
    done = bytecheck.run(bytecheck.Entry("", []), tmp_path / "run", ("-S", "-c", script))
    assert (done.code, done.stdout, done.stderr) == (0, b"\n", b"")


# the test files that test no single module of the package; test_observables.py
# checks the oracle's four-outcome observables against the package's masks
NOT_A_MODULE = (
    "test_oracle.py",
    "test_observables.py",
    "test_layout.py",
    "test_acceptance.py",
    "test_bytecheck.py",
)


def test_each_test_file_is_named_after_a_module():
    names = {f"test_{path.stem}.py" for path in PACKAGE.glob("*.py")} | set(NOT_A_MODULE)
    stray = sorted(path.name for path in TESTS.glob("test_*.py") if path.name not in names)
    assert stray == [], f"test files named after no module: {stray}"


def _defines(tree: ast.Module, names) -> bool:
    """Whether ``tree`` defines ``names[0]`` at top level, ``names[1]`` in it, and so on."""
    body = tree.body
    for name in names:
        node = next((node for node in body if getattr(node, "name", None) == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_reach_allow_list_names_single_lines_and_existing_tests():
    assert _defines(ast.parse("class A:\n    def f(self): pass\n"), ["A", "f"])
    assert not _defines(ast.parse("def f(): pass\n"), ["A", "f"])
    texts = bytecheck.package_texts()
    assert len(bytecheck.occurrences(("try:",), texts)) > 1
    found = []
    for key, test in bytecheck.ALLOWED.items():
        count = len(bytecheck.occurrences(key, texts))
        if count != 1:
            found.append(f"{key} stands {count} times in the package")
        path, *names = test.split("::")
        tree = ast.parse((TESTS.parent / path).read_text(encoding="utf-8"))
        if not _defines(tree, names):
            found.append(f"{key} names a missing test {test}")
    assert found == []


def test_reach_counts_a_whole_process(tmp_path):
    # the entry runs as the byte check runs it, with stdout closed; its counts
    # reach python -m nlbox's one call and entry_point's freeze at the end
    entry = next(entry for entry in bytecheck.TABLE if entry.name == "closed-verify-table3")
    counts = tmp_path / "counts"
    done = bytecheck.run(entry, tmp_path / "run", ("-c", bytecheck.TRACED, counts))
    assert (done.code, done.stderr) == (1, b"error: stdout is closed\n")
    reached = pickle.loads(counts.read_bytes())
    for name, text in (("__main__.py", "entry_point()"), ("cli.py", "    gc.freeze()")):
        lines = (bytecheck.PACKAGE / name).read_text(encoding="utf-8").splitlines()
        assert (str(bytecheck.PACKAGE / name), lines.index(text) + 1) in reached, (name, text)
