"""Where the quadrature oracle lives: `scipy.integrate.quad` is called at
one site in the package, behind the one acceptance rule (`fading._quad`),
and the scenario layer reaches the oracle only through public routes."""

import ast
import inspect
from pathlib import Path

import jamsec
from jamsec import scenario


def test_one_quad_call_site():
    sites = []
    for path in sorted(Path(jamsec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "quad":
                    sites.append((path.name, node.lineno))
    assert len(sites) == 1 and sites[0][0] == "fading.py", sites


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
