"""Where the quadrature oracle lives: one integrator in the package,
`fading._gauss_kronrod`, called at one site, behind the one acceptance
rule (`fading._quad`); no module imports `scipy.integrate`, and the
scenario layer reaches the oracle only through public routes.  Both
receiver laws integrate one kappa-mu shadowed density, whose 1F1 is
called at one site; the double model's Gauss 2F1 density lives only in
the tests.  A blockage link's LOS/NLOS blend is written once.  The
quadrature capacities and outages reach no closed-form kernel: the
methods stay independent."""

import ast
import fnmatch
import inspect
import re
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
    # no module imports scipy.integrate, directly or by a lazy_import of
    # its name, and the one integrator has one caller, the acceptance rule
    integrate = re.compile(r"scipy\.integrate(\.\w+)*$")
    imports = []
    for path in sorted(Path(jamsec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            imports += [(path.name, n) for n in names if integrate.match(n)]
    assert imports == []
    assert _call_sites("quad") == []
    sites = _call_sites("_gauss_kronrod")
    assert [site[:2] for site in sites] == [("fading.py", "_quad")], sites


def test_one_density_call_site_and_no_2f1():
    # one kappa-mu shadowed density serves both receiver laws' quadrature
    # outages; the package evaluates no Gauss 2F1
    assert _call_sites("hyp2f1") == []
    sites = _call_sites("hyp1f1")
    assert [site[:2] for site in sites] == [("fading.py", "_kappa_mu_shadowed_pdf")], sites
    defs = _definitions()
    for route in ("dksm_cdf", "rician_shadowed_cdf_integral"):
        assert "_kappa_mu_shadowed_pdf" in _reachable([route], defs), route


def test_one_blockage_blend():
    # the LOS/NLOS blend p_los V_LOS + (1 - p_los) V_NLOS is written once,
    # for every analytic route; the helpers that wrote it elsewhere are gone
    sites = []
    for path in sorted(Path(jamsec.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                        and isinstance(node.left, ast.Constant) and node.left.value == 1.0
                        and "p_los" in ast.unparse(node.right)):
                    sites.append((path.name, getattr(stmt, "name", "<module>")))
    assert sites == [("scenario.py", "_blockage_blend")], sites
    defs = _definitions()
    assert [n for n in ("mixture_cdf", "_rician_outage_quadrature", "big_k") if n in defs] == []


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


# the closed-form kernels: the receiver's Meijer-G fold, the eavesdropper's
# E_n sums and the functions that build them
_CLOSED_FORM = ("_scaled_en*", "meijer_series_fold", "capacity_*_series",
                "_partial_fraction_sum", "_expansion_sum")


def _definitions():
    """name -> the package's module-level functions and class methods of
    that name; a nested function is part of the body that defines it."""
    defs = {}
    for path in sorted(Path(jamsec.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
                if isinstance(node, ast.FunctionDef):
                    defs.setdefault(node.name, []).append(node)
    return defs


def _reachable(roots, defs):
    """Every name read or called from `roots`, following the package's own
    definitions: bare names and attributes (secrecy.f) alike."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for fn in defs.get(name, ()):
            for node in ast.walk(fn):
                ref = (node.id if isinstance(node, ast.Name)
                       else node.attr if isinstance(node, ast.Attribute) else None)
                if ref is not None and ref not in seen:
                    todo.append(ref)
    return seen


def test_quadrature_capacities_reach_no_closed_form_kernel():
    defs = _definitions()
    secrecy_defs = {node.name for node in ast.parse(
        (Path(jamsec.__file__).parent / "secrecy.py").read_text()).body
        if isinstance(node, ast.FunctionDef)}
    roots = sorted(n for n in secrecy_defs
                   if fnmatch.fnmatch(n, "capacity_*_quadrature") or n == "_mgf_capacity")
    assert roots == ["_mgf_capacity", "capacity_eve_quadrature", "capacity_receiver_quadrature"]
    for root in roots:
        reached = _reachable([root], defs)
        assert "_quad" in reached
        if root != "_mgf_capacity":
            assert "_mgf_capacity" in reached, root
        kernels = sorted(n for n in reached
                         if any(fnmatch.fnmatch(n, k) for k in _CLOSED_FORM))
        assert kernels == [], (root, kernels)
    # the closed forms themselves do reach them: the patterns name real code
    closed = _reachable(["capacity_receiver_series", "capacity_eve_series"], defs)
    assert {"meijer_series_fold", "_scaled_en", "_partial_fraction_sum",
            "_expansion_sum"} <= closed


# the closed-form outage kernels: the Rician NB sum and the pmf mixture
# that sums it, the SINR CDF's finite sum, and the Gamma CDF
_CLOSED_FORM_OUTAGES = ("rician_shadowed_cdf", "eve_sinr_cdf", "gamma_cdf", "_pmf_mixture")


def test_quadrature_outages_reach_no_closed_form_kernel():
    defs = _definitions()
    for root in ("dksm_cdf", "rician_shadowed_cdf_integral", "eve_sinr_cdf_integral",
                 "gamma_cdf_integral"):
        reached = _reachable([root], defs)
        assert "_quad" in reached, root
        kernels = sorted(n for n in reached if any(
            fnmatch.fnmatch(n, k) for k in _CLOSED_FORM + _CLOSED_FORM_OUTAGES))
        assert kernels == [], (root, kernels)
    # the closed forms do reach them: the names are real code
    closed = _reachable(["rician_shadowed_cdf", "eve_sinr_cdf", "gamma_cdf"], defs)
    assert set(_CLOSED_FORM_OUTAGES) <= closed
