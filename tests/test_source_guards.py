"""Source guards: properties of the library's code itself.

One root finder: ``mpmath.polyroots`` is never called under
``src/quadrics`` and ``numpy.roots`` only by
``univariate.companion_eigenvalues``, the double eigen-solve behind the
seeds of ``univariate._solve``, the cuts of the closed-form
characteristic, ``nevanlinna._arc_mean``, which reads them in double
precision, and the Newton starts in a quadtree cell of a few zeros,
``nevanlinna._ZeroSearch._leaf``.  Every other numeric polynomial root
goes through the same seeded solve: Aberth-Ehrlich's iteration in
doubling precision from those seeds, with no fallback, for
``univariate.numeric_roots_squarefree`` alone; ``_arc_mean`` calls
neither ``_solve`` nor ``_aberth``.

One recognizer for exact roots and points: ``scalars.reconstruct_gauss``
is called only by ``univariate.numeric_roots_squarefree``, with a
denominator bound and a radius worked out from each root (no constant),
and the closed forms for degree 1 and 2, the mod-prime pretest and the
recovery of polished points are gone.  ``_try_intersection`` builds
``ProjPointNum.from_exact`` only where the fiber root is exact, so an
intersection point is exact exactly when its fiber root is.

One evaluator for exponential sums: ``ExpSum._scaled`` is the only reader
of the cached term coefficients and of the derivative's, and no
``numpy.polyval`` copy of it is left, so points and arrays are evaluated
by the same code.

One gather and one evaluation per refinement round: ``nevanlinna`` calls
no ``numpy.insert``, so the batched winding merges its samples by one
index per round, and ``_windings`` reads g and g' from one ``logeval``
call per round.

One Newton path: each step of ``_polish_zero`` reads g and g' from one
``_scaled`` call, and neither it nor ``_ZeroSearch`` builds the sum
``g.derivative()``; ``_ZeroSearch._leaf`` starts every cell of winding 1
to ``_POWER_SUMS`` at the zeros of its contour's power sums.

One evaluator for forms at numeric points: ``polynomials.MpForms``
scales a form once to integer coefficients and sums its terms exactly on
Gaussian integers, over one power table per point; no other code sums a
form's terms at a numeric point (Balls aside, which carry their own
error).  ``scalar_to_mp`` is called only in ``Ball.exact``,
``HomPoly.eval_mpc`` delegates to ``MpForms`` with no loop of its own,
and no library code calls ``eval_mpc`` on a form, which would scale
every coefficient again on each call.  Only ``MpForms``'s own methods read
its slots:
``arrangements`` lifts and polishes through ``sums`` and ``values``.

A root's radius comes from the root iteration's own last disk:
``_horner`` (the root iteration's) and ``_vanishes`` (the recognizer's)
are the only code in ``univariate`` that evaluates a polynomial, and
``_radius`` calls neither, so no polynomial is evaluated again at a found
root.

One exact univariate format: dense coefficient lists over Z or Z[i],
from the resultant's elimination to the root solve.  ``UniPoly``,
``_monic`` and ``nevanlinna._poly_key`` are gone, so no polynomial is
converted between two exact formats on the way.

One exact elimination: ``linalg.echelon``, fraction-free on dense
polynomials over Z or Z[i], is the only code that swaps rows, so the only
elimination; ``_bareiss_last_row`` and the Gauss-Jordan loop are gone.
It serves ``polynomials.subresultant``, ``arrangements.conics_share_a_zero``
(the resultant of three conics, on Z[t]),
``arrangements._pencil_concurrencies`` (s6.4's resultant of two pencil
cubics, on Z[t]), ``linalg.rank`` (its pivot
count, with no ``rref``) and ``linalg.rref``, which ``nullspace`` reads and
``solve`` reads through ``nullspace``; ``linalg`` does not import
``fractions``.  ``HomPoly.exact_div`` is left to the shared component of
two curves (``common_component_witness``, ``_shared_factor``).

One error proof for numeric predicates: the constants of the two ball
passes, ``_DOUBLE_PASS`` (eps, grow, tiny) and ``_mp_pass`` (the exponent
of the working pass's eps, whose radii are rounded upward at 53 bits),
are read only by ``polynomials._pass_of``, which ``Ball``'s operations
call, so ``Ball`` stays the one error proof: doubles and the working
precision alike.

One memo: derived objects are stored only through ``config.scoped``, in
the analysis scope that ``cli.main`` opens for each command, and that
``squares.example_verify`` and ``squares.fermat_check`` open for their
call (joining a scope already open).  No object keeps a ``_memo`` of its
own, so library calls outside a scope keep no state.

One argument parser per process: ``cli.build_parser`` is called only by
``cli._parser``, the cached accessor that ``cli.main`` calls, so the
parser is built on the first command and not at import.

One pass from text to form: the parse tree (``PolyExprAST``,
``parse_poly_ast``, ``_add_mixed``, ``_Tok``) is gone, and the parser and
``HomPoly``'s operators run on the same term-map kernels (``_terms_add``,
``_terms_mul``, ``_terms_neg``, ``_terms_pow``), which drop a cancelled
term.  The only other code in ``polynomials`` that sums term maps is the
integer expansion of ``HomPoly.compose`` (``_term_mul`` and its own sum),
which keeps a cancelled term in its slot and so fixes the order of a
composed form's terms.

One 3x3 kernel: ``linalg.cross`` serves every 3x3 rule.  ``linalg.det``
is r0 . (r1 x r2) with no loop, ``linalg.adjugate`` takes its columns
from the rows' cross products, and no ``_det3``, ``_cross``,
``_cross_exact``, ``_dot`` or ``matrix_adjugate`` is left beside them
(forms and exact points coerce their own coefficients).  ``_quadric_form`` builds each
form's adjugate, rank, determinant and dual conic in that one pass, with
no ``rank``, ``rref`` or ``det``, and is the only code that constructs a
``QuadricForm``, so each dual conic is built once per form.

One coefficient format for conics: a conic's six coefficients are read
and written only on ``polynomials.QUADRATIC_MONOMIALS`` (z0^2, z1^2, z2^2,
z0z1, z0z2, z1z2), through ``HomPoly.quadratic_coeffs`` and
``HomPoly.quadratic_form``.  No other code writes out a quadratic exponent
triple, and ``poly_from_matrix``, ``_poly_coeff_vector`` and
``_b4_quadrics`` are gone: the symmetric matrix is read from the
coefficients, and the dual conic, the biquadratic system and its
quadrics are built from them.

One exact decision for the contact clauses: s4.3 (s6.3), s4.4 and s4.5
decide on exact forms, by ``conics_share_a_zero`` or a cross product,
with no numeric contact point: ``_contact_point`` and ``_adjugate_balls``
are gone, and no contact clause calls ``vanishes_at``.  The dual conics
are intersected only to list the witnesses of a fail, below the test
that skips a pass.

One integer kernel for the resultant of three conics:
``conics_share_a_zero`` builds its rows from the conics' integer
Hessians, and ``_at_contact`` its forms from integer matrices; neither
they nor the helpers they call take a ``HomPoly`` gradient, derivative,
composition or ``quadratic_form``.

One common-zero test: "do these forms meet?" is asked of
``arrangements.common_zero``, for smoothness, morphisms, functoriality
and each triple of components in s4.2 (``_triple_points``), with the
exact three-conic resultant behind its numeric test.  Only its per-point
test ``_on_all``, which ``common_zeros_of_quadratic_system`` shares,
tests further forms at intersection points: ``vanishes_at`` is read
elsewhere only by ``_tangential`` (the two curves' own partials at their
point) and ``tangent_to_conic`` (a dual conic at a line).  ``nevanlinna``
imports neither ``intersection_points`` nor ``vanishes_at``.

s6.4 without the precision ladder: the 18-line test is decided exactly
on the pencils' cubics, so ``genericity_check_s6`` builds its line system
once, at the start precision, and does not read ``ladder``.  No numeric
line predicate is left: ``arrangements`` uses numpy only in
``_contact_span``, for clause f's singular values.
"""

import ast
import functools
import os

import quadrics
from quadrics.polynomials import MpForms

PACKAGE = os.path.dirname(os.path.abspath(quadrics.__file__))


@functools.lru_cache(maxsize=None)
def _trees():
    """(file name, parse tree) of each module of the package, parsed once
    per session; no guard changes a tree."""
    trees = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees.append((name, ast.parse(fh.read(), filename=name)))
    return tuple(trees)


def _uses(attr: str, modules: set):
    """(file, enclosing function) for every reference to ``<module>.attr``
    (``mp.polyroots``, ``numpy.roots``, ...) and every bare name ``attr``
    bound by ``from <module> import attr``."""
    found = []
    for name, tree in _trees():
        imported = {alias.asname or alias.name
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] in modules
                    for alias in node.names if alias.name == attr}

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if (isinstance(node, ast.Attribute) and node.attr == attr
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                found.append((name, func))
            elif isinstance(node, ast.Name) and node.id in imported:
                found.append((name, func))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
    return found


def _references(attr: str):
    """(file, Class.function) for every load of the name ``attr`` and every
    attribute ``.attr`` read under src/quadrics."""
    found = []
    for name, tree in _trees():
        def visit(node, scope):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                scope = scope + (node.name,)
            if (isinstance(node, ast.Name) and node.id == attr
                    or isinstance(node, ast.Attribute) and node.attr == attr) \
                    and isinstance(node.ctx, ast.Load):
                found.append((name, ".".join(scope)))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    return found


def test_univariate_polynomials_are_evaluated_only_by_horner_and_vanishes():
    """Every loop in ``univariate`` that runs over coefficients from high to
    low (Horner's rule) is in ``_horner`` or ``_vanishes``; they serve the
    root iteration and the recognizer, and ``_radius`` calls no function
    of the module."""
    tree = dict(_trees())["univariate.py"]
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def descending(loop):
        it = ast.unparse(loop.iter)
        return it.startswith("reversed(") or it.startswith("range(") and it.endswith("-1, -1)")

    horner = {name for name, func in funcs.items() for node in ast.walk(func)
              if isinstance(node, ast.For) and descending(node)}
    assert horner == {"_horner", "_vanishes"}
    assert _references("_horner") == [("univariate.py", "_aberth")]
    assert _references("_vanishes") == [("univariate.py", "numeric_roots_squarefree")]
    called = {node.func.id for node in ast.walk(funcs["_radius"])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & set(funcs)
    assert _uses("polyval", {"mp", "mpmath", "np", "numpy"}) == []


def test_one_exact_univariate_format():
    for name, _ in _trees():
        with open(os.path.join(PACKAGE, name)) as fh:
            text = fh.read()
        for gone in ("UniPoly", "_monic", "_poly_key"):
            assert gone not in text, (name, gone)


def test_forms_are_evaluated_only_by_mp_forms():
    assert sorted(set(_references("scalar_to_mp"))) == [
        ("polynomials.py", "Ball.exact"), ("polynomials.py", "scalar_to_mp")]
    for slot in MpForms.__slots__:
        assert {(name, scope.split(".")[0]) for name, scope in _references(slot)} == {
            ("polynomials.py", "MpForms")}, slot
    assert _references("eval_mpc") == []
    tree = dict(_trees())["polynomials.py"]
    method = next(node for cls in tree.body if getattr(cls, "name", None) == "HomPoly"
                  for node in cls.body if getattr(node, "name", None) == "eval_mpc")
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(method))
    assert "MpForms" in {node.id for node in ast.walk(method) if isinstance(node, ast.Name)}


def test_ball_pass_constants_are_read_only_by_pass_of():
    for name in ("_DOUBLE_PASS", "_mp_pass"):
        assert _references(name) == [("polynomials.py", "_pass_of")], name


def test_polyroots_is_never_called():
    assert _uses("polyroots", {"mp", "mpmath"}) == []


def test_numpy_roots_is_called_only_in_companion_eigenvalues():
    """One eigen-solve, for the seeds of ``_solve``, the cuts of
    ``_arc_mean`` and the roots of a quadtree cell's power-sum polynomial
    in ``_ZeroSearch._leaf``."""
    assert _uses("roots", {"np", "numpy"}) == [("univariate.py", "companion_eigenvalues")]
    assert sorted(set(_references("companion_eigenvalues"))) == [
        ("nevanlinna.py", "_ZeroSearch._leaf"), ("nevanlinna.py", "_arc_mean"),
        ("univariate.py", "_solve")]


def test_the_winding_evaluates_once_per_refinement_round():
    """``_windings`` reads g, its phase and g' from one ``logeval`` call,
    made once in each pass of its refinement loop, so perfbench's
    ``contour_points`` (the points ``logeval`` sees) counts each contour
    sample once; no code of the package calls ``logabs_grid``, which is
    kept for perfbench's tracer."""
    assert _references("logeval") == [("nevanlinna.py", "_windings")]
    assert _references("logabs_grid") == []
    tree = dict(_trees())["nevanlinna.py"]
    func = next(node for node in tree.body if getattr(node, "name", None) == "_windings")
    loop = next(node for node in func.body if isinstance(node, ast.While))
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "logeval"]
    assert len(calls) == 1
    assert any(calls[0] in set(ast.walk(stmt)) for stmt in loop.body
               if not isinstance(stmt, (ast.For, ast.While)))


def test_newton_reads_g_prime_off_g():
    """One Newton path: ``_polish_zero`` and ``_ZeroSearch`` name no
    ``derivative``, so each step reads g and g' from one ``_scaled``
    call on g's own exponentials, ``_ratio_newton_step`` is gone, and
    ``_ZeroSearch._leaf`` polishes in one place, every cell of winding 1
    to ``_POWER_SUMS`` from the zeros of its power sums; the one other
    caller, ``_pair_points``, polishes the zeros of the two-term pairs."""
    tree = dict(_trees())["nevanlinna.py"]
    for name in ("_polish_zero", "_ZeroSearch"):
        node = next(n for n in tree.body if getattr(n, "name", None) == name)
        names = {getattr(n, attr) for n in ast.walk(node) for attr in ("id", "attr", "arg")
                 if isinstance(getattr(n, attr, None), str)}
        assert "derivative" not in names, name
    names = {getattr(n, attr) for n in ast.walk(tree) for attr in ("id", "attr", "name")
             if isinstance(getattr(n, attr, None), str)}
    assert "_ratio_newton_step" not in names
    assert _references("_polish_zero") == [("nevanlinna.py", "_pair_points"),
                                           ("nevanlinna.py", "_ZeroSearch._leaf")]


def test_the_cuts_of_the_characteristic_take_no_root_iteration():
    """Fibers are lifted by the subresultant chain, so no root matching is
    left outside the root finder; the characteristic's cuts are the double
    eigenvalues of each tie polynomial, with no matching and no iteration:
    ``_arc_mean`` calls neither ``_solve`` nor ``_aberth``, and ``_solve``
    serves only ``numeric_roots_squarefree``."""
    assert sorted(set(_references("_solve"))) == [
        ("univariate.py", "numeric_roots_squarefree")]
    assert _references("_aberth") == [("univariate.py", "_solve")]
    assert _references("complex_roots") == []


def test_one_arc_sum_serves_every_radius():
    """T(r) has one path: ``_arc_mean`` is the one function of
    ``nevanlinna`` that sums arcs (its only ``math.fsum``), only
    ``_characteristic`` calls it, and ``characteristic`` (one radius) and
    ``GrowthSample.compute`` (a run's radii) reach it only through
    ``_characteristic``."""
    assert [use for use in _uses("fsum", {"math"}) if use[0] == "nevanlinna.py"] == [
        ("nevanlinna.py", "_arc_mean")]
    assert _references("_arc_mean") == [("nevanlinna.py", "_characteristic")]
    assert sorted(set(_references("_characteristic"))) == [
        ("nevanlinna.py", "GrowthSample.compute"), ("nevanlinna.py", "characteristic")]


def test_numpy_polyval_is_not_used():
    assert _uses("polyval", {"np", "numpy"}) == []


def test_the_zero_search_merges_without_insert():
    assert [use for use in _uses("insert", {"np", "numpy"}) if use[0] == "nevanlinna.py"] == []


def test_term_cache_is_read_only_by_the_kernel():
    """The term cache and the cache of the derivative's coefficients."""
    for cache in ("_py_cache", "_dp_cache"):
        refs = set()
        for name, tree in _trees():
            for func in ast.walk(tree):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for node in ast.walk(func):
                        if isinstance(node, ast.Attribute) and node.attr == cache:
                            refs.add((name, func.name, type(node.ctx).__name__))
        assert refs == {("nevanlinna.py", "__init__", "Store"),
                        ("nevanlinna.py", "_scaled", "Load"),
                        ("nevanlinna.py", "_scaled", "Store")}, cache


def test_one_memo():
    stored = [(name, node.lineno) for name, tree in _trees() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "_memo"
              and isinstance(node.ctx, ast.Store)]
    assert stored == []
    assert _uses("analysis_scope", {"config"}) == [
        ("cli.py", "main"), ("squares.py", "fermat_check"), ("squares.py", "example_verify")]


def test_one_bareiss_elimination_and_no_form_division_in_it():
    def swaps(node):  # a[i], a[j] = a[j], a[i]
        return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                and len(node.targets) == 1 and isinstance(node.targets[0], ast.Tuple)
                and len(node.value.elts) == 2
                and all(isinstance(e, ast.Subscript) for e in node.value.elts)
                and [ast.unparse(e) for e in node.targets[0].elts]
                == [ast.unparse(e) for e in reversed(node.value.elts)])

    swapping = {(name, func.name) for name, tree in _trees() for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and any(map(swaps, ast.walk(func)))}
    assert swapping == {("linalg.py", "echelon")}
    names = {getattr(node, attr) for _, tree in _trees() for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
    assert "_bareiss_last_row" not in names
    assert sorted(set(_references("echelon"))) == [
        ("arrangements.py", "_pencil_concurrencies"), ("arrangements.py", "conics_share_a_zero"),
        ("linalg.py", "rank"), ("linalg.py", "rref"), ("polynomials.py", "subresultant")]
    tree = dict(_trees())["linalg.py"]
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "rref" not in _calls(funcs["rank"])
    assert "nullspace" in _calls(funcs["solve"])
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert "fractions" not in imported
    assert sorted(set(_references("exact_div"))) == [
        ("arrangements.py", "_shared_factor"), ("arrangements.py", "common_component_witness")]


def test_one_recognizer_for_exact_roots():
    assert _references("reconstruct_gauss") == [("univariate.py", "numeric_roots_squarefree")]
    tree = dict(_trees())["univariate.py"]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "reconstruct_gauss"]
    assert len(calls) == 1
    args = calls[0].args + [k.value for k in calls[0].keywords]
    assert not any(isinstance(arg, ast.Constant) for arg in args)


def test_intersection_points_are_exact_only_from_exact_fiber_roots():
    tree = dict(_trees())["arrangements.py"]
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_try_intersection")

    def builds(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr == "from_exact"]

    branch = next(node for node in ast.walk(func) if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "exact is not None")
    assert len(builds(func)) == 1
    assert builds(func) == [n for stmt in branch.body for n in builds(stmt)]


def test_the_old_recovery_paths_are_gone():
    gone = {"exact_roots_small", "gauss_sqrt", "rat_sqrt", "_residue", "_try_exact_recovery"}
    names = {getattr(node, attr) for _, tree in _trees() for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
    assert not gone & names


def test_the_argument_parser_is_built_only_by_the_cached_accessor():
    assert _references("build_parser") == [("cli.py", "_parser")]
    assert _references("_parser") == [("cli.py", "main")]
    tree = dict(_trees())["cli.py"]
    accessor = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_parser")
    assert [ast.unparse(d) for d in accessor.decorator_list] == ["functools.cache"]


def test_the_parse_tree_is_gone():
    gone = {"PolyExprAST", "parse_poly_ast", "_add_mixed", "_Tok"}
    names = {getattr(node, attr) for _, tree in _trees() for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
    assert not gone & names


def _calls(func):
    return {node.func.id for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_the_ring_operators_and_the_parser_share_the_term_map_kernels():
    tree = dict(_trees())["polynomials.py"]
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    methods = {f"{cls}.{node.name}": node for cls in ("HomPoly", "_Parser")
               for node in classes[cls].body if isinstance(node, ast.FunctionDef)}
    kernels = {"_terms_add", "_terms_mul", "_terms_neg", "_terms_pow"}
    assert {name: _calls(node) & kernels for name, node in methods.items()
            if _calls(node) & kernels} == {
        "HomPoly.__add__": {"_terms_add"}, "HomPoly.__neg__": {"_terms_neg"},
        "HomPoly.__mul__": {"_terms_mul"}, "HomPoly.__pow__": {"_terms_pow"},
        "HomPoly.exact_div": {"_terms_add"}, "_Parser.expr": {"_terms_add", "_terms_neg"},
        "_Parser.term": {"_terms_mul"}, "_Parser.factor": {"_terms_pow"}}
    # code that sums term maps: a loop over a map's items that adds into
    # another map through .get(key, 0)
    summing = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for loop in ast.walk(func):
                if (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
                        and getattr(loop.iter.func, "attr", None) == "items"
                        and any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "get"
                                and len(n.args) == 2 and isinstance(n.args[1], ast.Constant)
                                and n.args[1].value == 0 for n in ast.walk(loop))):
                    summing.add(func.name)
    assert summing == {"_terms_add", "_terms_mul", "_term_mul", "compose"}
    assert _references("_term_mul") == [("polynomials.py", "HomPoly.compose")] * 3



def test_one_3x3_kernel():
    gone = {"_det3", "_cross", "_cross_exact", "_dot", "matrix_adjugate"}
    names = {getattr(node, attr) for _, tree in _trees() for node in ast.walk(tree)
             for attr in ("id", "attr", "name", "asname")
             if isinstance(getattr(node, attr, None), str)}
    assert not gone & names
    tree = dict(_trees())["linalg.py"]
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(funcs["det"]))
    assert {"cross", "dot"} <= _calls(funcs["det"])
    assert "cross" in _calls(funcs["adjugate"])


def test_each_dual_conic_is_built_once_per_form():
    built = [(name, func.name) for name, tree in _trees() for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "QuadricForm"]
    assert built == [("polynomials.py", "_quadric_form")]
    tree = dict(_trees())["polynomials.py"]
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_quadric_form")
    assert not {"rank", "rref", "det"} & _calls(func)


QUADRATIC_EXPONENTS = {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_one_coefficient_format_for_conics():
    """Every tuple or list of three integer literals that is a quadratic
    exponent sits in ``QUADRATIC_MONOMIALS``, apart from the probe line
    z1 + z2 of ``common_component_witness``, a line's coefficients."""
    names = {getattr(node, attr) for _, tree in _trees() for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
    assert not {"poly_from_matrix", "_poly_coeff_vector", "_b4_quadrics"} & names
    found = []
    for name, tree in _trees():
        def visit(node, scope):
            if isinstance(node, ast.FunctionDef):
                scope = node.name
            elif isinstance(node, ast.Assign) and scope is None:
                scope = ast.unparse(node.targets[0])
            if (isinstance(node, (ast.Tuple, ast.List)) and len(node.elts) == 3
                    and all(isinstance(e, ast.Constant) and type(e.value) is int
                            for e in node.elts)
                    and tuple(e.value for e in node.elts) in QUADRATIC_EXPONENTS):
                found.append((name, scope, tuple(e.value for e in node.elts)))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, None)
    assert sorted(found) == sorted(
        [("arrangements.py", "common_component_witness", (0, 1, 1))]
        + [("polynomials.py", "QUADRATIC_MONOMIALS", e) for e in QUADRATIC_EXPONENTS])
    from quadrics.polynomials import QUADRATIC_MONOMIALS
    assert QUADRATIC_MONOMIALS == ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


CONTACT_CLAUSES = ("_tangent_contact_verdict", "_condition3_222", "_condition4_dd11",
                   "_condition5_d111")


def test_contact_clauses_decide_exactly():
    names = {getattr(node, attr) for _, tree in _trees() for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
    assert not {"_contact_point", "_adjugate_balls"} & names
    tree = dict(_trees())["arrangements.py"]
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in CONTACT_CLAUSES:
        assert "vanishes_at" not in _calls(funcs[name]), name
    assert _references("common_tangents") == [("arrangements.py", "_tangent_contact_verdict")]
    # each dual intersection sits below the `continue` that skips a pass
    for name, call, skip in (("_tangent_contact_verdict", "common_tangents", "not hits"),
                             ("_condition5_d111", "intersection_points", "eval_exact")):
        func = funcs[name]
        guard = next(node for node in ast.walk(func) if isinstance(node, ast.If)
                     and skip in ast.unparse(node.test)
                     and isinstance(node.body[-1], ast.Continue))
        calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == call]
        assert calls and all(node.lineno > guard.lineno for node in calls), name
        loop = next(node for node in ast.walk(func) if isinstance(node, ast.For)
                    and guard in node.body)
        assert all(node in set(ast.walk(loop)) for node in calls), name


def test_the_three_conic_kernel_builds_no_form():
    tree = dict(_trees())["arrangements.py"]
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    kernel = {"conics_share_a_zero", "_at_contact"}
    kernel |= {name for f in kernel for name in _calls(funcs[f]) if name in funcs}
    assert kernel == {"conics_share_a_zero", "_at_contact", "_hessian", "_coeffs",
                      "_jacobian_partials"}
    for name in kernel:
        methods = {node.func.attr for node in ast.walk(funcs[name]) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)}
        assert not {"gradient", "derivative", "compose", "quadratic_form"} & methods, name


def test_one_common_zero_test():
    assert sorted(set(_references("vanishes_at"))) == [
        ("arrangements.py", "_on_all"), ("arrangements.py", "_tangential"),
        ("arrangements.py", "tangent_to_conic")]
    assert sorted(set(_references("_on_all"))) == [
        ("arrangements.py", "common_zero"), ("arrangements.py", "common_zeros_of_quadratic_system")]
    tree = dict(_trees())["nevanlinna.py"]
    names = {getattr(node, attr) for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
    assert not {"intersection_points", "vanishes_at", "composite_morphism"} & names


def test_s6_reads_no_ladder():
    assert ("arrangements.py", "genericity_check_s6") not in _references("ladder")


def test_only_contact_span_uses_numpy():
    assert {scope for name, scope in _references("np")
            if name == "arrangements.py"} == {"_contact_span"}
