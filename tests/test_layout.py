"""Where the quadrature oracle lives: `scipy.integrate.quad` is called at
one site in the package, behind the one acceptance rule (`fading._quad`),
and the scenario layer reaches the oracle only through public routes.
The double model's 2F1 is likewise called at one site."""

import ast
import inspect
from pathlib import Path

import jamsec
from jamsec import scenario


def _call_sites(name):
    """(file, top-level definition, line) of each call of `name` in the
    package; a call outside any definition is in "<module>"."""
    sites = []
    for path in sorted(Path(jamsec.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called == name:
                    sites.append((path.name, getattr(stmt, "name", "<module>"), node.lineno))
    return sites


def test_one_quad_call_site():
    sites = _call_sites("quad")
    assert [site[:2] for site in sites] == [("fading.py", "_quad")], sites


def test_one_hyp2f1_call_site():
    # the double model's density is evaluated in one place, the scalar one
    # every route integrates; public dksm_pdf maps it over arrays
    sites = _call_sites("hyp2f1")
    assert [site[:2] for site in sites] == [("fading.py", "_dksm_pdf_scalar")], sites


def test_scenario_imports_no_integrator_or_private_fading_name():
    modules, names, private = set(), set(), []
    for node in ast.walk(ast.parse(inspect.getsource(scenario))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
            modules.add(node.module or "")
            if node.module == "fading":
                names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "fading" and node.attr.startswith("_")):
            private.append(node.attr)
    assert "scipy.integrate" not in modules
    assert [n for n in names if n.startswith("_")] == [] and private == []
