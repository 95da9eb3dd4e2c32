"""Module layout rules for ``src/ldpcount``.

A name with a leading underscore is private to its module.  When another
module needs it, it belongs in a shared module under a public name, so no
module imports another's private name.

Mechanisms take uniform draws, not generators: only the code that runs a
protocol stage builds substreams, so no function takes an ``rng`` except
``sample_laplace``, the generator-facing sampler kept for the tests, and
only the stage and estimator modules, plus the ordering study in
``experiments.py``, call ``substream``.

A module imports only names it uses; ``__init__.py`` imports to re-export.

The document format is written once: only ``documents.py`` names the
``"schema"`` key that stamps every report.  Reports are written, never read
back: no module defines ``from_json_dict`` or ``from_csv``, and only
``documents.Document`` defines ``to_json_dict``.

Estimate reports are assembled once: only ``protocol.py`` calls
``EstimateReport(...)``, at a single site.

Graphs are built once: ``Graph`` is instantiated at a single site, the
canonical builder in ``graphs.py`` that every constructor goes through.
A function that makes its own edges and hands them to ``from_edges`` prices
them first with ``require_edge_count``; only ``petersen_graph``, with its 15
fixed edges, does not.

The CSR layout is a decision of one module plus the projection: only
``graphs.py`` and ``protocol.py`` read a graph's ``indptr`` or ``indices``;
every other module reads ``edges``, ``degrees`` or ``row(i)``.

Every generator is seeded and built where the determinism contract says:
``Philox``, ``Generator``, ``default_rng`` and ``SeedSequence`` are called
only in ``mechanisms.substream`` and the seeded graph generators, and never
without an argument, which would draw OS entropy.

A resource guard prices its route once, before the work: no name ending in
``_LIMIT`` is read inside a loop or a comprehension.  A price computed by a
loop may stop early at its limit, read once into a local before the loop;
the check that refuses comes after the loop.

Every module-level constant, a name in capitals with at most one leading
underscore, is read somewhere in ``src/ldpcount``: a constant no code reads
is a knob left behind.

Every guard is a price: a function that raises ``ResourceLimitError`` reads
a module-level ``*_LIMIT`` name, so no refusal stands on a cap that prices
no work.

The estimators take the graph, the cycle length ``k`` for cycles, the
budget, the seed, the mode and a keyword-only trial, and nothing else: a new
option changes ``ESTIMATOR_SIGNATURES`` and has to show a measurement that
it pays.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import ldpcount

MODULES = sorted(Path(ldpcount.__file__).resolve().parent.glob("*.py"))


def private_imports(tree: ast.AST) -> list[str]:
    """Private names pulled from sibling modules by relative imports."""
    return [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


RNG_TAKERS_ALLOWED = ["mechanisms.sample_laplace"]


def rng_parameters(tree: ast.AST, module: str) -> list[str]:
    """Functions with a parameter named ``rng``, as ``module.function``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if any(p is not None and p.arg == "rng" for p in params):
                found.append(f"{module}.{node.name}")
    return found


def unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by an import that the module never reads."""
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_finds_private_import():
    tree = ast.parse("from .triangles import EstimateReport, _resolve_mode\n")
    assert private_imports(tree) == ["from .triangles import _resolve_mode"]
    assert private_imports(ast.parse("from .protocol import resolve_mode\n")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert private_imports(tree) == []


def test_finds_rng_parameter():
    tree = ast.parse("def f(x, *, rng=None):\n    pass\ndef g(u):\n    pass\n")
    assert rng_parameters(tree, "m") == ["m.f"]


def test_only_sample_laplace_takes_a_generator():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += rng_parameters(tree, path.stem)
    assert found == RNG_TAKERS_ALLOWED


SUBSTREAM_CALLERS_ALLOWED = [
    "cycles.py", "experiments.py", "protocol.py", "triangles.py",
]


def substream_calls(tree: ast.AST) -> list[int]:
    """Line numbers of calls to ``substream``, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "substream"
    )


def test_finds_substream_call():
    tree = ast.parse(
        "u = substream(0, 1, 2, 3).random()\nv = mechanisms.substream(0)\n"
        "w = substream\nx = derive_seed(0, 'substream')\n"
    )
    assert substream_calls(tree) == [1, 2]


def test_streams_built_only_where_a_protocol_stage_runs():
    callers = [
        path.name
        for path in MODULES
        if substream_calls(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
    ]
    assert callers == SUBSTREAM_CALLERS_ALLOWED


def test_finds_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from itertools import combinations, chain\n"
        "import numpy as np\nimport os.path\n"
        "x: np.ndarray = chain()\n"
    )
    assert unused_imports(tree) == ["combinations", "os"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def schema_literals(tree: ast.AST) -> list[int]:
    """Line numbers of the string constant ``"schema"``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "schema"
    ]


def test_finds_schema_literal():
    tree = ast.parse('x = 1\ndoc = {"schema": 1}\ny = "schema_v"\n')
    assert schema_literals(tree) == [2]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "documents.py"], ids=lambda p: p.name
)
def test_schema_key_written_only_in_documents(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert schema_literals(tree) == []


DOCUMENT_METHODS = {"from_json_dict", "from_csv", "to_json_dict"}
DOCUMENT_METHODS_ALLOWED = ["documents.Document.to_json_dict"]


def document_methods(tree: ast.AST, module: str) -> list[str]:
    """Definitions of a document reader or writer, as ``module.Class.name``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_function and child.name in DOCUMENT_METHODS:
                found.append(f"{scope}.{child.name}")
            named = is_function or isinstance(child, ast.ClassDef)
            visit(child, f"{scope}.{child.name}" if named else scope)

    visit(tree, module)
    return found


def test_finds_document_methods():
    tree = ast.parse(
        "class Report(Document):\n"
        "    def to_json_dict(self):\n        return {}\n"
        "    @classmethod\n"
        "    def from_json_dict(cls, doc):\n        return cls()\n"
        "def from_csv(text):\n    pass\n"
        "r = Report.from_json_dict({})\nto_json_dict = r.to_json_dict\n"
    )
    assert document_methods(tree, "m") == [
        "m.Report.to_json_dict", "m.Report.from_json_dict", "m.from_csv",
    ]


def test_reports_are_written_never_read_back():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += document_methods(tree, path.stem)
    assert found == DOCUMENT_METHODS_ALLOWED


def report_constructions(tree: ast.AST) -> list[int]:
    """Line numbers of calls to ``EstimateReport``, bare or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "EstimateReport"
    ]


def test_finds_report_construction():
    tree = ast.parse(
        "a = EstimateReport(1)\nb = protocol.EstimateReport(2)\n"
        "c = EstimateReport\nd = EstimateReport.mro()\n"
    )
    assert report_constructions(tree) == [1, 2]


def test_estimate_report_built_at_one_site_in_protocol():
    sites = [
        path.name
        for path in MODULES
        for _ in report_constructions(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
    ]
    assert sites == ["protocol.py"]


def graph_constructions(tree: ast.AST, module: str) -> list[str]:
    """Enclosing ``module.function`` of each ``Graph`` instantiation.

    That is a ``Graph(...)`` call, or a ``cls(...)`` call inside ``class Graph``.
    """
    found = []

    def visit(node: ast.AST, scope: str, in_graph: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope, child.name == "Graph")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}", in_graph)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name == "Graph" or (in_graph and name == "cls"):
                    found.append(scope)
            visit(child, scope, in_graph)

    visit(tree, f"{module}.<module>", False)
    return found


def test_finds_graph_construction():
    tree = ast.parse(
        "class Graph:\n"
        "    @classmethod\n"
        "    def from_edges(cls, n):\n        return cls(n=n)\n"
        "class Other:\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls()\n"
        "def relabel(g):\n    return graphs.Graph(n=g.n)\n"
        "h = Graph(n=0)\nk = Graph.from_edges(3, [])\nt = Graph\n"
    )
    assert graph_constructions(tree, "m") == ["m.from_edges", "m.relabel", "m.<module>"]


def test_graph_built_at_one_site():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += graph_constructions(tree, path.stem)
    assert found == ["graphs._canonical"]


EDGE_GUARD_SKIPS_ALLOWED = ["graphs.petersen_graph"]


def unguarded_edge_builds(tree: ast.AST, module: str) -> list[str]:
    """Functions that call ``from_edges`` but not ``require_edge_count``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {
                getattr(call.func, "id", getattr(call.func, "attr", None))
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }
            if "from_edges" in called and "require_edge_count" not in called:
                found.append(f"{module}.{node.name}")
    return found


def test_finds_unguarded_edge_build():
    tree = ast.parse(
        "def path(n):\n    return Graph.from_edges(n, pairs(n))\n"
        "def cycle(n):\n    graphs.require_edge_count(n)\n"
        "    return Graph.from_edges(n, ring(n))\n"
        "def load(text):\n    return _canonical(*parse(text))\n"
        "def star(n):\n    require_edge_count(n - 1)\n"
        "    return from_edges(n, spokes(n))\n"
    )
    assert unguarded_edge_builds(tree, "m") == ["m.path"]


def test_every_edge_maker_calls_the_edge_guard():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += unguarded_edge_builds(tree, path.stem)
    assert found == EDGE_GUARD_SKIPS_ALLOWED


CSR_READERS_ALLOWED = ["graphs.py", "protocol.py"]


def csr_reads(tree: ast.AST) -> list[int]:
    """Line numbers of reads of an ``indptr`` or ``indices`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("indptr", "indices")
    )


def test_finds_csr_read():
    tree = ast.parse(
        "a = g.indptr[1]\nb = g.row(0)\nindices = 3\nc = stage.graph.indices\n"
    )
    assert csr_reads(tree) == [1, 4]


def test_csr_layout_read_only_in_graphs_and_protocol():
    readers = [
        path.name
        for path in MODULES
        if csr_reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert readers == CSR_READERS_ALLOWED


GENERATOR_MAKERS = {"Philox", "Generator", "default_rng", "SeedSequence"}
GENERATOR_SITES_ALLOWED = [
    "graphs.gen_ba",
    "graphs.gen_er",
    "graphs.gen_ktree",
    "mechanisms.substream",
]


def generator_constructions(tree: ast.AST, module: str) -> list[tuple[str, str, bool]]:
    """Generator-building calls as (enclosing function, callee, has arguments).

    A call outside every function is placed in ``module.<module>``.
    """
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in GENERATOR_MAKERS:
                    found.append((scope, name, bool(child.args or child.keywords)))
            visit(child, scope)

    visit(tree, f"{module}.<module>")
    return found


def test_finds_generator_construction():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(seed):\n    return np.random.default_rng(seed)\n"
        "def g():\n    return np.random.Generator(np.random.Philox())\n"
        "rng = default_rng()\nseq = SeedSequence(entropy=3)\nbits = rng.random(3)\n"
    )
    assert generator_constructions(tree, "m") == [
        ("m.f", "default_rng", True),
        ("m.g", "Generator", True),
        ("m.g", "Philox", False),
        ("m.<module>", "default_rng", False),
        ("m.<module>", "SeedSequence", True),
    ]


def test_generators_are_seeded_and_built_only_where_the_contract_says():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += generator_constructions(tree, path.stem)
    assert sorted({scope for scope, _, _ in found}) == GENERATOR_SITES_ALLOWED
    assert [call for call in found if not call[2]] == []


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def limit_reads_in_loops(tree: ast.AST, module: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each ``*_LIMIT`` read in a loop or comprehension."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if isinstance(child, LOOPS):
                found.update(
                    (scope, read.lineno)
                    for read in ast.walk(child)
                    if isinstance(read, (ast.Name, ast.Attribute))
                    and isinstance(read.ctx, ast.Load)
                    and getattr(read, "id", getattr(read, "attr", "")).endswith("_LIMIT")
                )
            visit(child, scope)

    visit(tree, f"{module}.<module>")
    return sorted(found)


def test_finds_limit_read_in_loop():
    tree = ast.parse(
        "A_LIMIT = 10\n"
        "def f(xs):\n"
        "    if len(xs) > A_LIMIT:\n"
        "        raise ValueError\n"
        "    for x in xs:\n"
        "        if x > A_LIMIT:\n"
        "            break\n"
        "    return [x for x in xs if x < mod.B_LIMIT]\n"
        "def g(n):\n"
        "    while n > LIMIT_N:\n"
        "        A_LIMIT = n\n"
        "        n -= 1\n"
        "total = sum(x for x in range(C_LIMIT))\n"
    )
    assert limit_reads_in_loops(tree, "m") == [("m.<module>", 13), ("m.f", 6), ("m.f", 8)]


def test_no_guard_runs_inside_a_loop():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += limit_reads_in_loops(tree, path.stem)
    assert found == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def module_constants(tree: ast.AST) -> list[str]:
    """Names in capitals bound by an assignment at the top of a module."""
    targets = [
        target
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    return [
        name.id
        for target in targets
        for name in (target.elts if isinstance(target, ast.Tuple) else [target])
        if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id)
    ]


def names_read(tree: ast.AST) -> set[str]:
    """Every name read, bare or as an attribute."""
    return {
        getattr(node, "id", getattr(node, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_finds_module_constants_and_reads():
    tree = ast.parse(
        "A_LIMIT = 10\n_CELLS: int = 2\nX, _Y = 1, 2\n__all__ = []\nlower = 3\n"
        "__ = 4\n_COUNTER.flags.writeable = False\n"
        "def f():\n    B = 1\n    return mod.C + A_LIMIT\n"
    )
    assert module_constants(tree) == ["A_LIMIT", "_CELLS", "X", "_Y"]
    assert names_read(tree) == {"int", "_COUNTER", "flags", "mod", "C", "A_LIMIT"}


def test_every_module_constant_is_read():
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES]
    read = set().union(*map(names_read, trees))
    constants = [name for tree in trees for name in module_constants(tree)]
    assert [name for name in constants if name not in read] == []


def unpriced_guards(tree: ast.AST, module: str, limits: set[str]) -> list[str]:
    """Functions that raise ``ResourceLimitError`` but read none of ``limits``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            raised = {
                getattr(exc, "id", getattr(exc, "attr", None))
                for r in ast.walk(node)
                if isinstance(r, ast.Raise) and r.exc is not None
                for exc in [getattr(r.exc, "func", r.exc)]
            }
            if "ResourceLimitError" in raised and not names_read(node) & limits:
                found.append(f"{module}.{node.name}")
    return found


def test_finds_unpriced_guards():
    tree = ast.parse(
        "A_LIMIT = 10\nMAX_K = 9\n"
        "def priced(n):\n    limit = A_LIMIT\n    if n > limit:\n"
        "        raise ResourceLimitError(n)\n"
        "def capped(k):\n    if k > MAX_K:\n        raise errors.ResourceLimitError(k)\n"
        "def bare(k):\n    if k > 9:\n        raise ResourceLimitError\n"
        "def other(n):\n    if n > A_LIMIT:\n        raise ValidationError(n)\n"
        "def reraise():\n    raise\n"
    )
    assert unpriced_guards(tree, "m", {"A_LIMIT"}) == ["m.capped", "m.bare"]


def test_every_guard_reads_a_limit():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in MODULES
    }
    limits = {n for tree in trees.values() for n in module_constants(tree) if n.endswith("_LIMIT")}
    found = [g for stem, tree in trees.items() for g in unpriced_guards(tree, stem, limits)]
    assert found == []


ESTIMATOR_SIGNATURES = {
    "estimate_triangles": "(graph, budget, seed, mode, *, trial)",
    "estimate_odd_cycles": "(graph, k, budget, seed, mode, *, trial)",
}


def parameter_layout(fn) -> str:
    """``fn``'s parameter names, with ``*`` before the keyword-only ones."""
    names = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in names:
            names.append("*")
        names.append(f"*{p.name}" if p.kind is p.VAR_POSITIONAL else p.name)
    return f"({', '.join(names)})"


def test_finds_an_extra_estimator_option():
    def estimate(graph, budget, seed, mode="noisy", *, trial=0, extra=None):
        pass

    assert parameter_layout(estimate) == "(graph, budget, seed, mode, *, trial, extra)"


@pytest.mark.parametrize("name", sorted(ESTIMATOR_SIGNATURES))
def test_estimators_take_no_option_beyond_their_pinned_signature(name):
    assert parameter_layout(getattr(ldpcount, name)) == ESTIMATOR_SIGNATURES[name]
