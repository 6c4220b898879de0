"""A process loads only the layers its request uses.

The package resolves each exported name on first access, the CLI imports
a subcommand's library layer when that subcommand runs, and no module
uses dataclasses.  The module-set checks run in fresh interpreters, as a
batch CLI runs one request per process.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cyclocover
from cyclocover import cli
from cyclocover.serialize import canonical_dumps

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = pathlib.Path(cli.default_corpus_path())

# what `import cyclocover, cyclocover.cli` may load
CLI_CORE = {"cyclocover", "cyclocover.cli", "cyclocover.errors",
            "cyclocover.serialize", "cyclocover.matrices", "cyclocover.rings",
            "cyclocover.arith"}
NEVER_AT_IMPORT = {"dataclasses", "inspect", "argparse", "json"}


def fresh(code, *args):
    """Run `code` in a new interpreter that imports the package from this
    checkout; return what it prints on stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


# sys.modules of the bare interpreter, after the import, and after one
# hp-minus request whose report goes to a buffer
MODULE_SETS = """
import io, sys
from contextlib import redirect_stdout
bare = set(sys.modules)
import cyclocover
package = set(sys.modules)
import cyclocover.cli
imported = set(sys.modules)
with redirect_stdout(io.StringIO()):
    code = cyclocover.cli.run(["hp-minus", "--p", "23"])
assert code == 0
print(repr([sorted(package - bare), sorted(imported - bare),
            sorted(set(sys.modules) - bare)]))
"""


def test_cli_import_loads_only_its_core():
    package, imported, after_run = ast.literal_eval(fresh(MODULE_SETS))
    assert package == ["cyclocover"]
    ours = {m for m in imported if m.split(".")[0] == "cyclocover"}
    assert ours == CLI_CORE
    assert not NEVER_AT_IMPORT & set(imported)
    # hp-minus adds its layer and nothing of the others
    ours = {m for m in after_run if m.split(".")[0] == "cyclocover"}
    assert ours == CLI_CORE | {"cyclocover.classnumbers"}
    # importlib.resources loads inspect from Python 3.12 on
    assert not {"dataclasses", "inspect", "importlib.resources"} & set(after_run)


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "cyclocover").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and not node.level]
        assert "dataclasses" not in names, path.name


def _first_case(subcommand):
    for path in sorted(CORPUS.glob("*.json")):
        case = json.loads(path.read_text())
        if case["subcommand"] == subcommand:
            return case
    raise AssertionError(f"no corpus case for {subcommand}")


def _argv(subcommand, params):
    """The command line whose flags `cli` converts back into `params`."""
    argv = [subcommand]
    for flag, read in cli._COMMANDS[subcommand][1].items():
        value = params[flag]
        if read not in cli._TEXT:
            text = json.dumps(value)
        elif read is cli.parse_int_list:
            text = ",".join(map(str, value))
        else:
            text = str(value)
        argv += ["--" + flag, text]
    return argv


@pytest.mark.parametrize("subcommand", list(cli._COMMANDS))
def test_each_subcommand_in_a_fresh_interpreter(subcommand):
    # no subcommand may rely on a layer that another one loaded
    case = _first_case(subcommand)
    # what the console script runs
    code = "from cyclocover.cli import main\nmain()"
    report = json.loads(fresh(code, *_argv(subcommand, case["params"])))
    assert report["subcommand"] == subcommand
    assert canonical_dumps(report["result"]) == canonical_dumps(case["expected"])


def test_every_export_resolves():
    for name, module in cyclocover._EXPORTS.items():
        layer = importlib.import_module(f"cyclocover.{module}")
        assert getattr(cyclocover, name) is getattr(layer, name), name
    listed = dir(cyclocover)
    assert set(cyclocover._EXPORTS) <= set(listed)
    assert set(cyclocover._SUBMODULES) <= set(listed)
    assert "__version__" in listed
    star = {}
    exec("from cyclocover import *", star)
    assert set(cyclocover._EXPORTS) | set(cyclocover._SUBMODULES) <= set(star)


def test_exports_resolve_in_a_fresh_interpreter():
    code = ("from cyclocover import ModulePresentation, hp_minus, covers\n"
            "import cyclocover, sys\n"
            "assert covers is sys.modules['cyclocover.covers']\n"
            "assert ModulePresentation.__module__ == 'cyclocover.modules'\n"
            "print(hp_minus(23), cyclocover.periodicity.__name__)\n")
    assert fresh(code).split() == ["3", "cyclocover.periodicity"]


@pytest.mark.parametrize("name", ["no_such_name", "_EXPORTS_", "dataclass"])
def test_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(cyclocover, name)
    assert not hasattr(cyclocover, name)
