"""The library holds what runs.

Every public top-level function and class in ``src/hmnlab``, and every public
method of such a class, must be reached from somewhere other than the tests:
its name is referenced in ``src/hmnlab`` outside its own definition, or it
appears in ``perfbench/*.py``, or it is one of the paper studies in
``PAPER_STUDIES``.  A function or class is referenced as a name, an
attribute or an import; a method only as an attribute (``.name``), so a
local variable of the same spelling does not count.
References that only the tests call belong in ``tests/conftest.py``.

The check goes by spelling, so a method shadowed by a used attribute of the
same spelling is not caught: a test-only ``to_matrix`` method on one class
passes because ``PauliString.to_matrix`` is called, and so would a
``support`` method, because the field ``HamiltonianTerm.support`` is read.

Every settable value, a parameter default or a dataclass field default, is
listed in ``SETTABLE`` with the reason callers leave it unset.

The last two tests keep ``numpy`` the only runtime dependency: no
``import`` of a test dependency appears anywhere in the library's code,
function bodies included, and importing every module in a fresh interpreter
loads neither.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hmnlab"

# studies of the paper's statements that only tests run today; each stays in
# the library as the computation the statement describes
PAPER_STUDIES = {
    "is_commutation_preserving": "the commutation-preservation property the decay theorems assume",
}


# every parameter default and dataclass field default in the library, with
# the reason callers leave it unset; a new default fails until it is listed
SETTABLE = {
    "channels.ChannelLayer.channels": "the empty layer of the thermal state",
    "cli.main.argv": "None reads sys.argv, as the console entry point does",
    "experiments.DecayCurve.points": "a curve starts empty and add fills it",
    "experiments.decay_curve.channel_p": "the parity and Bell chains' read-out takes no p, and perfbench's Bell curves pass none",
    "model.SiteGraph.q": "qubit sites on the Ising and cluster chains, q = 4 on the parity and Bell chains",
    "model.PauliString.sign": "+1 from a label; products and the Bell measurement's -YY carry -1",
    "model.entropy_bits.degeneracy": "1 for classical and dense spectra, each value's multiplicity on pauli",
    "pauli._xor_span.dtype": "int64 group indices, the smallest type for the damping tables' indices",
}


def public_definitions():
    """(module file, name, first line, last line, is a method) of every public
    top-level function and class and every public method of a public class."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((path, node.name, node.lineno, node.end_lineno, False))
            if isinstance(node, ast.ClassDef):
                out += [
                    (path, m.name, m.lineno, m.end_lineno, True)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
    return out


def references():
    """{module file: [(name, line, is an attribute)]} of every name, attribute
    and imported name in the library's code (docstrings and comments are not
    code)."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        refs = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.append((node.id, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node.lineno, True))
            elif isinstance(node, ast.alias):
                refs.append((node.name, node.lineno, False))
        out[path] = refs
    return out


def unreached():
    """{qualified name: name} of the public definitions that neither the
    library (outside the definition itself) nor perfbench refers to; a
    method counts as referred to only as an attribute."""
    refs = references()
    perfbench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    out = {}
    for path, name, first, last, method in public_definitions():
        in_src = any(
            ref == name and (attr or not method) and (other != path or not first <= line <= last)
            for other, found in refs.items()
            for ref, line, attr in found
        )
        if not (in_src or re.search(rf"{'[.]' if method else ''}\b{name}\b", perfbench)):
            out[f"{path.stem}.{name}"] = name
    return out


def settable_values():
    """{qualified name} of every parameter default (module.function.parameter,
    methods and nested functions included) and dataclass field default
    (module.Class.field) in the library."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                with_default = positional[len(positional) - len(a.defaults) :]
                with_default += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out |= {f"{path.stem}.{node.name}.{arg.arg}" for arg in with_default}
            elif isinstance(node, ast.ClassDef):
                out |= {
                    f"{path.stem}.{node.name}.{st.target.id}"
                    for st in node.body
                    if isinstance(st, ast.AnnAssign) and st.value is not None
                }
    return out


def test_every_public_name_is_reached_outside_the_tests():
    names = sorted(q for q, name in unreached().items() if name not in PAPER_STUDIES)
    assert names == [], f"only tests reach {names}; move them to tests/conftest.py or delete them"


def test_every_paper_study_is_otherwise_unreached():
    """An allowlisted name that the library or perfbench reaches, or that is
    gone, is a stale entry."""
    assert set(PAPER_STUDIES) <= set(unreached().values())


def test_every_settable_value_is_listed():
    """The library's settable values are exactly the listed ones: a new
    default fails until it is listed with its reason, and a removed one is a
    stale entry."""
    assert settable_values() == set(SETTABLE)


TEST_DEPENDENCIES = ("pytest", "hypothesis")


def test_imports_name_no_test_dependency():
    """No import statement in ``src/hmnlab``, at any depth, names pytest or
    hypothesis: an import inside a function runs only when it is called,
    which a fresh interpreter's import of the modules does not show."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in TEST_DEPENDENCIES]
    assert found == []


def test_runtime_imports_need_only_numpy():
    """Importing every hmnlab module in a fresh interpreter loads neither
    pytest nor hypothesis."""
    modules = ["hmnlab"] + [f"hmnlab.{p.stem}" for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    code = (
        "import importlib, sys\n"
        f"for m in {modules!r}:\n"
        "    importlib.import_module(m)\n"
        f"print(sorted(m for m in {TEST_DEPENDENCIES!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]", done.stdout + done.stderr
