"""Operation counting: OpCounter and the derived counted twins.

The direct chain (angles.py, kepler.py, geocentric.py), the table builders
(tables.py), the row derivations they share with the reader (tableio.py)
and the table path (evaluate.py) are written once, as plain float code.
Their counted twins are derived from that source, one module at a time, on
the first counted call that needs them, and cached: a counted table query
derives evaluate.py's twins only. A twin keeps every statement of the plain
function with its plain float operators, so its results are bit-identical
to the plain code's, and adds the counter increments. A twin takes the
counter first and passes it on to the twins it calls.

Every counted call goes through ``twin(name)``, the counted twin of the
chain function ``name``, whichever module defines it.

Increments are written per stretch of statements that run together: the
tallies of consecutive statements of one block, ``if`` and ``for`` headers
included, are summed into one ``_c.<field> += n`` per field at the start of
the stretch. A stretch ends after a statement that can pass control out of
its block: a ``return``, ``break`` or ``continue``, or a compound statement
that holds one that leaves the block. Loop and branch bodies are blocks of
their own, counted each time they run. So the tally of a call that returns
is exact; a call that raises leaves its counter unspecified (it may hold
increments of statements that never ran), and no caller reads such a
counter.

A body's orbit frame (``kepler.orbit_frame``, 38 ops) is counted once per
element set, as compile work, the way a table's cells are: ``census
--measure-ops`` counts it through ``build_double_entry``. The frame holds the
body's mean motion 360/P beside its axes, so that division is compile work
too. A direct query fetches the frame from ``kepler.cached_frame``, a call
outside the chain, so it is free in the query's tally; ``bench`` prints its
tally beside the query's. A
table's grid spacing (``du``, and ``dv`` for a double-entry table) is
compile work likewise: the builder and the reader compute it once into the
table, which a table query reads. So are its coefficient cells:
``tableio.coefficient_row`` derives each double-entry row's from the knots,
in the chain, and ``measure_compile_ops`` counts every row of every
double-entry table of the plan through it, as it counts a single-entry
table's ``planet_cells`` through its builder. A double-entry query fetches
its row from ``table.cells``, which derives the row on its first read: a
call outside the chain, so free in the query's tally, as
``kepler.cached_frame`` is.

Tally rules: ``+``, ``-`` are adds; ``*``, ``/``, ``math.fmod`` muls;
``math.sin``, ``cos``, ``atan2``, ``asin``, ``sqrt`` transcendental calls;
a subscript of a ``.cells`` attribute one row access (so
``table.cells[i][j]`` and ``table.cells[i::n]`` are one each, and a
subscript of a local such as ``c00[0]`` none). Free: an operation with an
int-literal operand (index bookkeeping such as ``k -= 1``), unary minus,
``math.floor``, ``math.ceil``, ``int``, ``abs``, ``math.isfinite``,
comparisons and calls of functions outside the chain. The derivation
raises ValueError on what it cannot count exactly: arithmetic inside a
conditional expression, a boolean operator, a chained comparison past its
first pair, a comprehension, a lambda or a ``while`` test; an operator or
``math`` function with no rule; a compound statement other than ``if``,
``for`` and ``while``.
"""

import ast
import functools
import importlib
import inspect
from dataclasses import dataclass

__all__ = ["OpCounter", "derive_counted", "measure_compile_ops", "twin"]


@dataclass(slots=True)
class OpCounter:
    """Tally of additions, multiplications, transcendental calls, row accesses."""

    adds: int = 0
    muls: int = 0
    transcendental_calls: int = 0
    row_accesses: int = 0

    def total_ops(self) -> int:
        return self.adds + self.muls + self.transcendental_calls + self.row_accesses

    def as_dict(self) -> dict:
        return {
            "adds": self.adds,
            "muls": self.muls,
            "transcendental_calls": self.transcendental_calls,
            "row_accesses": self.row_accesses,
            "total": self.total_ops(),
        }

    def merge(self, other: "OpCounter") -> None:
        self.adds += other.adds
        self.muls += other.muls
        self.transcendental_calls += other.transcendental_calls
        self.row_accesses += other.row_accesses


_COUNTER = "_c"
# Counter field per operator class and per math function name; None is free.
_FIELDS = {ast.Add: "adds", ast.Sub: "adds", ast.Mult: "muls", ast.Div: "muls", "fmod": "muls"}
_FIELDS.update(dict.fromkeys(("sin", "cos", "atan2", "asin", "sqrt"), "transcendental_calls"))
_FIELDS.update(floor=None, ceil=None, isfinite=None)
_REFUSED = {ast.IfExp: "a conditional expression", ast.BoolOp: "a boolean operator"}
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_REFUSED.update(dict.fromkeys(_COMPREHENSIONS, "a comprehension"))
_REFUSED[ast.Lambda] = "a lambda"
# Compound statements count their header, then each statement of their blocks.
_HEADERS = {ast.If: ("test",), ast.For: ("target", "iter"), ast.While: ("test",)}
_SIMPLE = (ast.Assign, ast.AugAssign, ast.Expr, ast.Return, ast.Raise, ast.Pass, ast.Break,
           ast.Continue)
_FIELD_NAMES = ("adds", "muls", "transcendental_calls", "row_accesses")


def _refusal(node, what) -> ValueError:
    return ValueError(f"line {node.lineno}: cannot count {what}")


def _field(node):
    """The counter field one evaluation of ``node`` itself increments, or None."""
    fn = getattr(node, "func", None)
    if isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "cells":
        return "row_accesses"
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        pair = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
        if any(isinstance(x, ast.Constant) and type(x.value) is int for x in pair):
            return None
        key, name = type(node.op), f"the operator {type(node.op).__name__}"
    elif isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) and fn.value.id == "math":
        key, name = fn.attr, f"math.{fn.attr}"
    else:
        return None
    if key not in _FIELDS:
        raise _refusal(node, name)
    return _FIELDS[key]


def _counted(node) -> bool:
    return any(_field(sub) for sub in ast.walk(node))


def _tally(nodes) -> dict[str, int]:
    """Increments per counter field that one evaluation of ``nodes`` makes."""
    counts = dict.fromkeys(_FIELD_NAMES, 0)
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        field = _field(sub)
        if field is not None:
            counts[field] += 1
        if type(sub) in _REFUSED and _counted(sub):
            raise _refusal(sub, f"arithmetic inside {_REFUSED[type(sub)]}")
        if isinstance(sub, ast.Compare) and any(map(_counted, sub.comparators[1:])):
            raise _refusal(sub, "arithmetic inside a chained comparison")
    return counts


def _leaves(stmt, in_loop=False) -> bool:
    """Whether running ``stmt`` can pass control out of the block that holds
    it: by a return, or by a break or continue not bound to a loop inside
    that block (``in_loop``: ``stmt`` lies in the body of such a loop)."""
    if isinstance(stmt, ast.Return):
        return True
    if isinstance(stmt, (ast.Break, ast.Continue)):
        return not in_loop
    if isinstance(stmt, (ast.For, ast.While)):
        return (any(_leaves(sub, True) for sub in stmt.body)
                or any(_leaves(sub, in_loop) for sub in stmt.orelse))
    if isinstance(stmt, ast.If):
        return any(_leaves(sub, in_loop) for sub in stmt.body + stmt.orelse)
    return False


def _count_block(stmts) -> list:
    """``stmts``, each stretch of statements that run together preceded by
    one increment per counter field of the stretch's summed tally."""
    out, stretch, counts = [], [], dict.fromkeys(_FIELD_NAMES, 0)
    for stmt in stmts:
        header = _HEADERS.get(type(stmt))
        if header is not None:
            own = _tally([getattr(stmt, name) for name in header])
            if isinstance(stmt, ast.While) and any(own.values()):
                raise _refusal(stmt, "arithmetic inside a while test")
            stmt.body, stmt.orelse = _count_block(stmt.body), _count_block(stmt.orelse)
        elif isinstance(stmt, _SIMPLE):
            own = _tally([stmt])
        else:
            raise _refusal(stmt, f"a {type(stmt).__name__} statement")
        for field, n in own.items():
            counts[field] += n
        stretch.append(stmt)
        if _leaves(stmt):
            out += _increments(counts) + stretch
            stretch, counts = [], dict.fromkeys(_FIELD_NAMES, 0)
    return out + _increments(counts) + stretch


def _increments(counts) -> list:
    """One ``_c.<field> += n`` statement per nonzero field of ``counts``."""
    return [ast.AugAssign(ast.Attribute(ast.Name(_COUNTER, ast.Load()), field, ast.Store()),
                          ast.Add(), ast.Constant(n))
            for field, n in counts.items() if n]


def derive_counted(source: str, names, namespace: dict, calls=None, filename="<counted>") -> None:
    """Define in ``namespace`` the counted twins of the top-level functions
    ``names`` of ``source``; ValueError names any that ``source`` does not
    define. A call to a name in ``calls`` (default ``names``) passes the
    counter on, so those names must be bound to twins in ``namespace`` when
    a twin runs."""
    calls = set(names if calls is None else calls)
    tree = ast.parse(source, filename)
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names]
    missing = sorted(set(names) - {fdef.name for fdef in defs})
    if missing:
        raise ValueError(f"{filename}: no top-level def of {', '.join(missing)}")
    for fdef in defs:
        try:
            for node in ast.walk(fdef):
                if isinstance(node, ast.Name) and node.id == _COUNTER:
                    raise _refusal(node, f"a function that uses the name {_COUNTER!r}")
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in calls:
                    node.args.insert(0, ast.Name(_COUNTER, ast.Load()))
            fdef.body = _count_block(fdef.body)
        except ValueError as exc:
            raise ValueError(f"{filename}, {fdef.name}: {exc}") from None
        (fdef.args.posonlyargs or fdef.args.args).insert(0, ast.arg(_COUNTER))
    module = ast.fix_missing_locations(ast.Module(defs, type_ignores=[]))
    exec(compile(module, filename, "exec"), namespace)


# The plain functions that get counted twins, by module name (imported when
# first derived, so a counted query imports only the modules it counts). Their
# names are unique across the chain, so a chain name bound in one of these
# modules is that function.
_CHAIN = {
    "angles": ("normalize_deg", "wrap_diff_deg", "aphelion_shift"),
    "kepler": ("mean_anomaly_elapsed", "solve_kepler", "radius", "_nu_aph_from_E",
               "position_since_aphelion", "orbit_frame", "heliocentric_xyz"),
    "geocentric": ("rect_to_spherical", "reduce_rect", "geocentric_at"),
    "tableio": ("planet_cells", "coefficient_row"),
    "tables": ("row_count", "_check_single", "_check_perihelion", "build_planet_table",
               "build_double_entry"),
    "evaluate": ("phase_days", "lookup_planet", "lookup_double", "lookup_grid",
                 "geocentric_at_table", "heliocentric_at_table"),
}
_MODULE_OF = {name: module_name for module_name, names in _CHAIN.items() for name in names}


def twin(name: str):
    """The counted twin of the _CHAIN function ``name``; it takes the counter
    first, then the plain function's arguments."""
    return _twins(_MODULE_OF[name])[name]


@functools.cache
def _twins(module_name: str) -> dict:
    """The counted twin of every _CHAIN function of ``module_name``, by name.
    Derives (and caches) first the twins of the chain modules whose
    functions it calls, and no others."""
    module = importlib.import_module(f".{module_name}", __package__)
    namespace = dict(vars(module))
    calls = _MODULE_OF.keys() & namespace.keys()
    namespace.update({name: twin(name) for name in calls if _MODULE_OF[name] != module_name})
    names = _CHAIN[module_name]
    derive_counted(inspect.getsource(module), names, namespace, calls, module.__file__)
    return {name: namespace[name] for name in names}


def measure_compile_ops(plan) -> OpCounter:
    """Arithmetic of compiling a ``tables.compile_plan``, counted by running
    its builders' twins over the same list that ``urania gen`` builds, and
    the derivation of every double-entry row, which queries make on first
    use."""
    c = OpCounter()
    for builder, args in plan:
        table = twin(builder.__name__)(c, *args)
        if builder.__name__ == "build_double_entry":
            for iu in range(table.n_u):
                twin("coefficient_row")(c, *table.cells.knot_rows(iu), table.n_v)
    return c
