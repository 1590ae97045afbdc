"""Dead-definition guard for the package.

Every top-level function and class in `src/hasseweil/*.py`, and every
method and property of those classes other than a dunder, must be loaded by
name, imported, reached as an attribute, or named by a string (as `getattr`
and the benchmark's tracer do) somewhere in the package, its tests or the
benchmark.  A load of a name that the enclosing function binds itself is
the local, not the module-level definition.  Class bodies and
comprehensions are not treated as scopes, so a local there can hide a dead
definition, but a used one is never reported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hasseweil"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _locals(fn) -> set[str]:
    """Names a function or lambda binds in its own scope."""
    a = fn.args
    names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
    names |= {arg.arg for arg in (a.vararg, a.kwarg) if arg}
    declared_global: set[str] = set()
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names - declared_global


class _Uses(ast.NodeVisitor):
    """Every name a module refers to other than through a local binding."""

    def __init__(self):
        self.used: set[str] = set()
        self.scopes: list[set[str]] = []

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in s for s in self.scopes):
            self.used.add(node.id)

    def visit_Attribute(self, node):
        self.used.add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self.used.add(node.name)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.used.add(node.value)

    def _scope(self, fn, body):
        # decorators, defaults and annotations belong to the enclosing scope
        for decorator in getattr(fn, "decorator_list", []):
            self.visit(decorator)
        self.visit(fn.args)
        if getattr(fn, "returns", None):
            self.visit(fn.returns)
        self.scopes.append(_locals(fn))
        for node in body:
            self.visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node):
        self._scope(node, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._scope(node, [node.body])


def _used_names() -> set[str]:
    uses = _Uses()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tests").rglob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        uses.visit(_parse(path))
    return uses.used


def _definitions(path: Path):
    """(qualified name, name) of each top-level function and class, and of each
    non-dunder method and property of those classes."""
    for node in _parse(path).body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, FUNCTIONS) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_top_level_definition_is_used():
    used = _used_names()
    dead = [qualified for path in sorted(PACKAGE.glob("*.py"))
            for qualified, name in _definitions(path) if name not in used]
    assert dead == []


def _owners_of(tree: ast.Module, match) -> list[str]:
    """The innermost enclosing function of each node `match` accepts."""
    owners = []

    def walk(node, owner):
        if isinstance(node, (*FUNCTIONS, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if match(node):
            owners.append(owner)
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    walk(tree, "<module>")
    return owners


def _owners(tree: ast.Module, name: str) -> list[str]:
    """The innermost enclosing function of each reference to `name`."""
    return _owners_of(tree, lambda node: (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and name in (node.name, node.asname)
        or isinstance(node, ast.Constant) and node.value == name))


def _package_owners(name: str) -> set[str]:
    return {
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in _owners(_parse(path), name)
    }


def test_no_gammainc_in_package():
    # the Lambda series at every s, integer s included, is the package's own engine
    assert _package_owners("gammainc") == set()


def test_q_series_only_for_f_and_the_node_table():
    # one integer q-series loop sums f(iy) for the root number and every node
    # of the trapezoid, for every s and order
    assert _package_owners("_q_series") == {"analytic.f_on_imaginary_axis",
                                             "analytic._node_table"}


def test_node_walk_only_behind_the_plan_cache():
    # the walk over the nodes' bounds is the plan kept on the context by step: no
    # per-request path walks the nodes again
    assert _package_owners("_log_bump") == {"analytic._plan_at_step"}
    assert _package_owners("_plan_at_step") == {"analytic._plan"}


def test_root_number_at_one_fixed_accuracy():
    # w is a sign: each f(iy) is counted by the certified tail rule alone, and
    # the root number neither copies its context nor reads an accuracy from it
    import dataclasses

    from hasseweil.analytic import AnalyticContext

    assert _package_owners("_q_terms") == {"analytic.f_on_imaginary_axis", "analytic._plan_at_step",
                                            "analytic._node_table", "analytic._lambda_at_1"}
    assert _owners(_parse(PACKAGE / "analytic.py"), "copy") == []
    assert "target_log10" not in {f.name for f in dataclasses.fields(AnalyticContext)}


def test_real_period_by_the_agm_alone():
    # quadrature and polyroots are the tests' oracle of Omega; the report's
    # period and torsion share one exact cubic solver
    assert _package_owners("quad") == {"bsd.real_period_quadrature"}
    assert _package_owners("_cubic_roots") == {"bsd.real_period_quadrature"}
    assert _package_owners("_cubic_brackets") == {
        "curves._integer_cubic_roots", "bsd.<module>", "bsd._period_enclosure",
    }


def test_factorize_only_for_the_minimal_model_and_heights():
    # the discriminant is factored once per curve, with the minimal model;
    # heights factor a point's denominator, and sigma0 serves the tests
    assert _package_owners("factorize") == {
        "curves.<module>", "curves._minimal",
        "heights.<module>", "heights.canonical_height_breakdown",
        "numtheory.sigma0",
    }


def test_n_max_only_sizes_the_first_table():
    # every sum, the closed form at s = 1 included, counts its terms by `_q_terms`
    # from the one 2^-prec budget: n_max only sizes the a_n the context fetches up
    # front, no tail enters a bound, and the CLI has no --nmax
    analytic = _parse(PACKAGE / "analytic.py")
    assert set(_owners(analytic, "n_max")) == {"__post_init__", "coefficients"}
    assert [node.name for node in ast.walk(analytic)
            if isinstance(node, FUNCTIONS) and node.name.startswith("tail")] == []
    cli = (PACKAGE / "cli.py").read_text()
    assert "nmax" not in cli and "n_max" not in cli


def test_height_walk_in_integers_and_no_determinant_in_bsd():
    # the archimedean doubling walk does no mpmath arithmetic in its loop, and the
    # regulator takes mpmath's determinant rather than one of its own
    heights = _parse(PACKAGE / "heights.py")
    breakdown = next(node for node in heights.body
                     if isinstance(node, FUNCTIONS) and node.name == "canonical_height_breakdown")
    walks = [node for node in ast.walk(breakdown)
             if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(iterations)"]
    assert len(walks) == 1
    assert {node.id for node in ast.walk(walks[0]) if isinstance(node, ast.Name)}.isdisjoint(
        {"mp", "mpmath"})
    bsd = _parse(PACKAGE / "bsd.py")
    assert [node.name for node in ast.walk(bsd)
            if isinstance(node, FUNCTIONS) and "det" in node.name.lower()] == []
    assert _owners(bsd, "det") == ["regulator"]


def test_weight_and_purity_decided_exactly():
    # |alpha|^2 = p^w is Hermite's criterion in Fractions: polyroots serves only the
    # period quadrature (the tests' oracle), realizations sets no working precision,
    # and neither check takes a tolerance
    import inspect

    from hasseweil.realizations import check_purity, check_weight

    assert _package_owners("polyroots") == {"bsd._cubic_roots"}
    assert _owners(_parse(PACKAGE / "realizations.py"), "workdps") == []
    assert all("tol" not in inspect.signature(check).parameters
               for check in (check_weight, check_purity))


def test_one_trapezoid_for_every_lambda():
    # every Lambda(s) and Lambda^(k)(1) is one `_lambda_series` call
    assert _package_owners("_node_table") == {"analytic._lambda_series"}
    assert _package_owners("_powers") == {"analytic._lambda_series"}


def test_torsion_heights_by_the_exact_order_test():
    # no doubling probe: `order_of_point` decides torsion
    assert _owners(_parse(PACKAGE / "heights.py"), "_chord_tangent") == []


def test_tate_on_the_minimal_model_only():
    # the global minimal model is minimal at every p, so nothing restarts
    assert _package_owners("_tate") == {"localdata.tate_local"}
    assert not any(isinstance(node, ast.Return) and "non-minimal" in ast.unparse(node)
                   for node in ast.walk(_parse(PACKAGE / "localdata.py")))
    assert _package_owners("_tate_at_prime") == _package_owners("restarts") == set()


def test_one_polynomial_division_over_q():
    # Euclid and the exact quotient of the squarefree part share `_poly_divmod`
    realizations = _parse(PACKAGE / "realizations.py")
    assert _owners_of(realizations, _is_leading_quotient) == ["_poly_divmod"]
    assert _package_owners("_poly_gcd_q") == set()


def _is_leading_quotient(node) -> bool:
    """f[0] / g[0], the step of a polynomial long division."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and all(isinstance(side, ast.Subscript) and ast.unparse(side.slice) == "0"
                    for side in (node.left, node.right)))


def test_point_counts_only_through_the_sweep():
    # below Mestre's bound a_p is enumerated (p <= 13) or read from the Hasse
    # invariant, both inside `ap_sweep`; `kernels` re-exports the enumeration
    # as the tests' oracle and the tracer's layer
    assert _package_owners("count_points_mod_p") == {"_kernels_py.ap_sweep",
                                                      "kernels.<module>"}
    assert _package_owners("hasse_invariant") == {"_kernels_py.ap_sweep"}
    # localdata reaches the kernel only as kernels.ap_sweep and kernels.ap_bsgs
    localdata = _parse(PACKAGE / "localdata.py")
    assert set(_owners_of(localdata, _is_kernels_attribute)) == {"_good_aps"}
    assert {node.attr for node in ast.walk(localdata)
            if _is_kernels_attribute(node)} == {"ap_sweep", "ap_bsgs"}
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 for node in ast.walk(_parse(path))
                 if isinstance(node, ast.ImportFrom) and node.module == "_kernels_py"}
    assert importers == {"kernels"}


def _is_kernels_attribute(node) -> bool:
    """kernels.<name>, a reference through the kernel's public module."""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "kernels")
