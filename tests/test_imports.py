"""What a process loads: lazy re-exports, lazy layers, and never scipy.

Every check runs in a fresh interpreter, so nothing an earlier test
imported can hide an eager import.  Seven more checks read the sources:
every top-level function and class in the package, private ones too, is
reached by the program, every module uses each name it imports, every
third-party import is a runtime dependency in pyproject.toml, no module
but core chooses an integer width or an isqrt path, no module but errors
raises a resource cap by hand, every FiberSet.rows call passes its
caller's cap, and one function calls the sphere gauge and reads its
acceptance band.
"""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import heisgeo

SRC = os.path.dirname(os.path.dirname(os.path.abspath(heisgeo.__file__)))
SEARCH_LAYERS = ("heisgeo.covering", "heisgeo.ergodic", "heisgeo.separation")


def run_fresh(code: str, tmp_path) -> dict:
    """Run code in a new interpreter; it prints one JSON document last."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["ball", "--n", "1", "--k", "5"],
    ["folner", "--n", "1", "--k", "4", "--sigma", "e1"],
    ["boundary", "--n", "1", "--k", "3", "--t", "1"],
    ["doubling", "--n", "1", "--k-max", "3"],
])
def test_lattice_commands_load_no_scipy_and_no_search_layer(argv, tmp_path):
    doc = run_fresh(f"""
        import json, sys
        import heisgeo
        after_package = sorted(m for m in sys.modules if m.startswith("heisgeo."))
        import heisgeo.cli
        code = heisgeo.cli.main({argv!r} + ["--out", "artifact.txt"])
        loaded = sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m in {SEARCH_LAYERS!r})
        print(json.dumps({{"code": code, "after_package": after_package,
                          "loaded": loaded}}))
    """, tmp_path)
    assert doc["code"] == 0
    assert doc["after_package"] == []
    assert doc["loaded"] == []
    assert (tmp_path / "artifact.txt").read_text().strip()


def test_net_command_loads_covering_but_no_separation(tmp_path):
    doc = run_fresh("""
        import json, sys
        import heisgeo.cli
        code = heisgeo.cli.main(["net", "--n", "1", "--rho", "0.9", "--out", "artifact.txt"])
        print(json.dumps({"code": code, "covering": "heisgeo.covering" in sys.modules,
                          "separation": "heisgeo.separation" in sys.modules}))
    """, tmp_path)
    assert doc == {"code": 0, "covering": True, "separation": False}
    assert (tmp_path / "artifact.txt").read_text().strip()


def test_every_public_name_resolves_and_is_listed(tmp_path):
    doc = run_fresh("""
        import json, sys
        import heisgeo
        loaded = sorted(m for m in sys.modules if m.startswith("heisgeo."))
        listed = set(dir(heisgeo))
        unlisted = [n for n in heisgeo.__all__ if n not in listed]
        unresolved = []
        for name in heisgeo.__all__:
            try:
                getattr(heisgeo, name)
            except AttributeError:
                unresolved.append(name)
        star = {}
        exec("from heisgeo import *", star)
        missing_star = sorted(set(heisgeo.__all__) - set(star))
        try:
            heisgeo.no_such_name
            unknown = "resolved"
        except AttributeError as exc:
            unknown = str(exc)
        print(json.dumps({"loaded": loaded, "count": len(heisgeo.__all__),
                          "unlisted": unlisted,
                          "unresolved": unresolved, "missing_star": missing_star,
                          "unknown": unknown,
                          "submodule": heisgeo.balls.__name__,
                          "hasattr": hasattr(heisgeo, "no_such_name")}))
    """, tmp_path)
    assert doc["loaded"] == []  # dir() lists names before any submodule loads
    assert doc["count"] == len(heisgeo.__all__) == 65
    assert doc["unlisted"] == []
    assert doc["unresolved"] == []
    assert doc["missing_star"] == []
    assert "no_such_name" in doc["unknown"]
    assert doc["hasattr"] is False
    assert doc["submodule"] == "heisgeo.balls"


# reached from the tests alone, kept on purpose: the paper's dichotomy
# (mass bound or chain) stays until ROADMAP item 3 decides whether its
# growth clause belongs in certify_chain
TEST_ONLY = {"maintech_chain"}


def code_uses(tree: ast.AST) -> Counter:
    """Names read as code: bare names, attributes and imported names."""
    return Counter(node.id if isinstance(node, ast.Name) else
                   node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def test_every_public_definition_is_reached():
    # every top-level function and class, private or public (dunders aside),
    # is used as code outside its own definition in the package, the demos or
    # the bench; comments, docstrings and strings do not count, nor does the
    # export list in __init__, and a name only the tests use belongs in the tests
    package = Path(heisgeo.__file__).parent
    folders = (package, package.parents[1] / "demos", package.parents[1] / "bench")
    trees = {path: ast.parse(path.read_text()) for folder in folders for path in folder.glob("*.py")}
    uses = sum((code_uses(tree) for path, tree in trees.items() if path.name != "__init__.py"),
               Counter())
    unreached = [
        f"{path.name}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
        and node.name not in TEST_ONLY
        and uses[node.name] == code_uses(node)[node.name]
    ]
    assert unreached == []


def test_no_module_imports_a_name_it_never_uses():
    # a deletion must take its imports along; __init__ is left out, since
    # it names its exports as strings
    package = Path(heisgeo.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}:{name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_integer_width_rule_lives_in_core():
    # core._int_dtype picks int64 or Python-int object arrays from a caller's
    # bound, and core._isqrt_vec takes both; no other module restates either
    rule = re.compile(r"2\s*\*\*\s*6[123]\b|1\s*<<\s*6[123]\b|dtype\s*=\s*object\b"
                      r"|\.astype\(\s*object\s*\)|frompyfunc\(\s*math\.isqrt")
    package = Path(heisgeo.__file__).parent
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(package.glob("*.py")) if path.name != "core.py"
             for i, line in enumerate(path.read_text().splitlines(), 1) if rule.search(line)]
    assert found == []


def calls_in_package(name: str):
    """(file, line, call) for every call of name, as a function or a method, in the package."""
    for path in sorted(Path(heisgeo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
                yield path.name, node.lineno, node


def test_cap_refusals_go_through_check_cap():
    # errors.check_cap is the one refusal rule: predicted > cap raises, with
    # one message format, before the caller allocates anything
    assert [f"{name}:{line}" for name, line, _ in calls_in_package("ResourceCapError")
            if name != "errors.py"] == []


def test_every_rows_call_passes_a_cap():
    # FiberSet.rows is the one place lattice points are written, and it
    # refuses beyond the cap its caller holds
    calls = list(calls_in_package("rows"))
    assert calls
    assert [f"{name}:{line}" for name, line, call in calls
            if not call.args and not any(kw.arg == "cap" for kw in call.keywords)] == []


def test_exact_offset_enters_the_gauge_at_one_site():
    # balls._gauge_inside alone calls gauge_min and reads _ACCEPT, so the exact
    # offset is scaled by t and rounded to floats in one place
    calls, reads = [], []
    for path in sorted(Path(heisgeo.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            site = f"{path.name}:{getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "gauge_min":
                    calls.append(site)
                elif isinstance(node, ast.Name) and node.id == "_ACCEPT" and isinstance(
                        node.ctx, ast.Load):
                    reads.append(site)
    assert calls == reads == ["balls.py:_gauge_inside"]


@pytest.mark.parametrize("argv", [
    ["closeball"],
    ["lss"],
    ["intersect", "--trials", "30", "--seed", "1"],
])
def test_no_command_loads_scipy(argv, tmp_path):
    # closeball and intersect reach the Nelder-Mead polish, which is counted
    doc = run_fresh(f"""
        import json, sys
        import heisgeo.cli
        from heisgeo import separation as sp
        polishes = []
        solve = sp._nelder_mead
        sp._nelder_mead = lambda *a, **k: polishes.append(1) or solve(*a, **k)
        code = heisgeo.cli.main({argv!r} + ["--out", "artifact.json"])
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps({{"code": code, "polishes": len(polishes), "loaded": loaded}}))
    """, tmp_path)
    assert doc["code"] == 0
    assert doc["loaded"] == []
    assert (doc["polishes"] > 0) == (argv[0] != "lss")
    assert json.loads((tmp_path / "artifact.json").read_text())["result"]


def test_third_party_imports_are_dependencies():
    # every top-level import of the package, lazy ones included, is the
    # standard library, the package itself or a runtime dependency
    tomllib = pytest.importorskip("tomllib")
    package = Path(heisgeo.__file__).parent
    with open(package.parents[1] / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}
    imported = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    third_party = {m: f for m, f in imported.items()
                   if m not in sys.stdlib_module_names and m != "heisgeo"}
    assert "numpy" in third_party
    assert {m: f for m, f in third_party.items() if m not in listed} == {}
