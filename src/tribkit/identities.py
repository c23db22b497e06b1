"""Registry of machine-checkable identities and the grid verifier.

Every identity relating T, K, TM and KM that is not already embodied by
an operation elsewhere (Binet evaluation, generating functions) lives
here as an IdentityRecord: a stable id, the formula itself as the
anchor, a Shape (index names, declared domain and grid), and an
evaluator returning the two sides.  A formula's evaluator is its
anchor's own text, compiled once per process with `^` read as a call of
the registry's power reader and `/` as exact division over the
rationals (`_quotient`); its only names are its indices and the
registry's readers T, K, TM and KM, and S_T, S_K, S_TM and S_KM, the
direct strided sums, so the formula a report prints is the formula that
was checked.  Verification sweeps a profile-sized grid and demands
exact equality at every point -- integer identities get no tolerance.

A registry memoises powers: its reader keeps the latest power of each
matrix base and steps it by one product when the exponent grows by one,
as the sweeps walk m upwards.  Such a power is the left side of THM20a,
built only by products of the registry's own TM(n) or KM(n), never by
the kernel that builds the right side, so the two sides stay
independent.

A registry memoises a side that reads one form: when every reader
argument of a side is one affine form f of two or more indices plus a
constant, as the right sides of THM18c-e and COR19c-e read only m+n,
the side is evaluated once per value of f, keyed by (record id and
side, f).  Its memo holds one entry per value of f that the sweeps
meet: 121 on Deep, against 3721 grid points.  A side keyed by the
whole grid point is not memoised: one record's sweep meets each point
once, so its memo would never hit, and one shared between records
would hold an entry per point, of memory the sweep otherwise frees.
Bare reads are memoised by the readers, and `^` sides continued by
the power reader.

A chain X = Y = Z evaluates each side once, to ((X, Y), (Y, Z)),
compared slotwise, so a failure in either leg surfaces.
"""

from __future__ import annotations

import ast
import functools
import time
from dataclasses import dataclass
from enum import Enum
from types import CodeType
from typing import Callable, Iterator

from .core import SequenceKind, TermCache
from .errors import DivisibilityViolation, UnknownIdentity
from .matrices import KIND_SEEDS, Mat3, decimal_form, term_reader
from .series import running_bruteforce


class Profile(Enum):
    QUICK = "quick"
    STANDARD = "standard"
    DEEP = "deep"


@dataclass(frozen=True)
class GridBounds:
    """Index caps for one verification sweep."""

    signed: int  # single-index identities sweep n in [-signed, signed]
    pair: int    # multi-index identities sweep indices in [0, pair]


PROFILE_BOUNDS: dict[Profile, GridBounds] = {
    Profile.QUICK: GridBounds(signed=10, pair=10),
    Profile.STANDARD: GridBounds(signed=40, pair=30),
    Profile.DEEP: GridBounds(signed=100, pair=60),
}


@dataclass(frozen=True)
class Failure:
    indices: tuple[int, ...]
    left: object
    right: object


@dataclass(frozen=True)
class VerifyReport:
    identity_id: str
    anchor: str
    bounds: str
    cases: int
    failures: tuple[Failure, ...]
    elapsed_s: float
    note: str | None = None

    @property
    def passed(self) -> bool:
        return not self.failures


# grid shapes --------------------------------------------------------------

def _signed(bounds: GridBounds):
    return ((n,) for n in range(-bounds.signed, bounds.signed + 1))


def _signed_desc(bounds: GridBounds) -> str:
    return f"n in [{-bounds.signed}, {bounds.signed}]"


def _nonneg(bounds: GridBounds):
    return ((n,) for n in range(bounds.signed + 1))


def _nonneg_desc(bounds: GridBounds) -> str:
    return f"n in [0, {bounds.signed}]"


def _pair(bounds: GridBounds):
    hi = bounds.pair + 1
    return ((m, n) for m in range(hi) for n in range(hi))


def _pair_desc(bounds: GridBounds) -> str:
    return f"(m, n) in [0, {bounds.pair}]^2"


def _nr(bounds: GridBounds):
    return ((n, r) for n in range(bounds.pair + 1) for r in range(n + 1))


def _nr_desc(bounds: GridBounds) -> str:
    return f"(n, r) with 0 <= r <= n <= {bounds.pair}"


def _sum_m_hi(bounds: GridBounds) -> int:
    """The largest stride m a sum grid sweeps."""
    return min(10, bounds.pair)


def _sum_grid(bounds: GridBounds):
    return ((m, j, n)
            for m in range(1, _sum_m_hi(bounds) + 1)
            for j in range(m)
            for n in range(1, bounds.pair + 1))


def _sum_desc(bounds: GridBounds) -> str:
    return (f"(m, j, n) with 1 <= m <= {_sum_m_hi(bounds)}, 0 <= j < m, "
            f"1 <= n <= {bounds.pair}")


@dataclass(frozen=True)
class Shape:
    """A record's index names, as its anchor writes them, domain and grid."""

    indices: str
    domain: str
    grid: Callable[[GridBounds], Iterator[tuple[int, ...]]]
    describe: Callable[[GridBounds], str]


N_ALL = Shape("n", "all integers n", _signed, _signed_desc)
N_NONNEG = Shape("n", "n >= 0", _nonneg, _nonneg_desc)
MN = Shape("m, n", "m, n >= 0", _pair, _pair_desc)
NR = Shape("n, r", "n >= r >= 0", _nr, _nr_desc)
SUM = Shape("m, j, n", "m > j >= 0, n >= 1", _sum_grid, _sum_desc)


@dataclass(frozen=True)
class IdentityRecord:
    """One verifiable identity.

    `anchor` is the formula in plain notation; `evaluate` maps a point of
    `shape`'s grid to (left, right), both the same kind of value (int,
    Mat3, or a tuple of those for chained equalities).
    """

    id: str
    anchor: str
    shape: Shape
    evaluate: Callable[..., tuple]
    note: str | None = None


# registry -----------------------------------------------------------------

# (id, anchor, shape[, note]): each anchor is the formula that is checked
FORMULAS = (
    ("EQ3", "T(n) = 2*T(n-1) - T(n-4)", N_ALL),
    ("TNEG", "T(-n) = T(n-1)^2 - T(n-2)*T(n)", N_NONNEG),
    ("EQ4", "K(n) = 3*T(n+1) - 2*T(n) - T(n-1)", N_ALL),
    ("EQ5", "K(n) = T(n) + 2*T(n-1) + 3*T(n-2)", N_ALL),
    ("EQ6", "K(n) = 4*T(n+1) - T(n) - T(n+2)", N_ALL),
    ("THM15a", "KM(n) = 3*TM(n+1) - 2*TM(n) - TM(n-1)", N_ALL),
    ("THM15b", "KM(n) = TM(n) + 2*TM(n-1) + 3*TM(n-2)", N_ALL),
    ("THM15c", "KM(n) = 4*TM(n+1) - TM(n) - TM(n+2)", N_ALL,
     "items (c) and (d) of this identity group are the same "
     "formula with terms reordered; registered once"),
    ("THM15e", "22*TM(n) = 5*KM(n+2) - 3*KM(n+1) - 4*KM(n)", N_ALL),
    ("LEM16a", "KM(0)*TM(n) = TM(n)*KM(0) = KM(n)", N_NONNEG),
    ("LEM16b", "TM(0)*KM(n) = KM(n)*TM(0) = KM(n)", N_NONNEG),
    ("COR17a", "22*T(n) = K(n) + 5*K(n-1) + 2*K(n+1)", N_ALL),
    ("COR17b", "22*TM(n) = KM(n) + 5*KM(n-1) + 2*KM(n+1)", N_ALL),
    ("THM18a", "TM(m)*TM(n) = TM(m+n) = TM(n)*TM(m)", MN),
    ("THM18b", "TM(m)*KM(n) = KM(n)*TM(m) = KM(m+n)", MN),
    ("THM18c", "KM(m)*KM(n) = KM(n)*KM(m) = 9*TM(m+n+2) - 12*TM(m+n+1) "
               "- 2*TM(m+n) + 4*TM(m+n-1) + TM(m+n-2)", MN),
    ("THM18d", "KM(m)*KM(n) = TM(m+n) + 4*TM(m+n-1) + 10*TM(m+n-2) "
               "+ 12*TM(m+n-3) + 9*TM(m+n-4)", MN),
    ("THM18e", "KM(m)*KM(n) = TM(m+n) - 8*TM(m+n+1) + 18*TM(m+n+2) "
               "- 8*TM(m+n+3) + TM(m+n+4)", MN),
    ("COR19a", "T(m+n) = T(m)*T(n+1) + T(n)*(T(m-1) + T(m-2)) "
               "+ T(m-1)*T(n-1)", MN),
    ("COR19b", "K(m+n) = T(m)*K(n+1) + K(n)*(T(m-1) + T(m-2)) "
               "+ K(n-1)*T(m-1)", MN),
    ("COR19c", "K(m)*K(n+1) + K(n)*(K(m-1) + K(m-2)) + K(m-1)*K(n-1) = "
               "9*T(m+n+2) - 12*T(m+n+1) - 2*T(m+n) + 4*T(m+n-1) + T(m+n-2)",
     MN),
    ("COR19d", "K(m)*K(n+1) + K(n)*(K(m-1) + K(m-2)) + K(m-1)*K(n-1) = "
               "T(m+n) + 4*T(m+n-1) + 10*T(m+n-2) + 12*T(m+n-3) + 9*T(m+n-4)",
     MN),
    ("COR19e", "K(m)*K(n+1) + K(n)*(K(m-1) + K(m-2)) + K(m-1)*K(n-1) = "
               "T(m+n) - 8*T(m+n+1) + 18*T(m+n+2) - 8*T(m+n+3) + T(m+n+4)",
     MN),
    ("THM20a", "TM(n)^m = TM(m*n)", MN),
    ("THM20b", "TM(n+1)^m = TM(1)^m * TM(m*n)", MN),
    ("THM20c", "TM(n-r)*TM(n+r) = TM(n)^2 = TM(2)^n", NR),
    ("THMFINALa", "KM(n-r)*KM(n+r) = KM(n)^2", NR),
    ("THMFINALb", "KM(n)^m = KM(0)^m * TM(m*n)", MN),
) + tuple(  # S_X(m, j, n): the sum of X(m*i + j) for 0 <= i < n
    (id, f"S_{x}(m, j, n) = ({x}(m*n+j+m) + {x}(m*n+j-m) + (1-K(m))*{x}(m*n+j)"
         f" - {x}(j+m) - {x}(j-m) - (1-K(m))*{x}(j)) / (K(m) - K(-m))", SUM)
    for id, x in (("SUMTHMa", "TM"), ("SUMTHMb", "KM"), ("SUMCORa", "T"),
                  ("SUMCORb", "K")))

READERS = frozenset(name for kind in KIND_SEEDS  # T, K, TM, KM, S_T, ...
                    for name in (kind.value, f"S_{kind.value}"))


@functools.cache
def _compile(id: str, anchor: str, indices: str) -> CodeType:
    """`lambda <indices>: (left, right)` from the anchor's own text.

    `^` is a call `_pow(base, e)` of the registry's power reader, `/` a
    call `_div(a, d)` of `_quotient`; a side that `_one_form` finds one
    affine form f of is `_memo(key, f, lambda: side)`; a chain A = B = C
    yields ((A, B), (B, C)), B evaluated once.  Cached, so an anchor is
    compiled once per process.
    """
    sides = anchor.replace("^", "**").split(" = ")
    if len(sides) not in (2, 3):
        raise ValueError(f"{id}: an anchor has two or three sides")
    # the sides' own names are checked before the chain binds `_mid`,
    # a side becomes `_memo(...)`, `^` becomes `_pow` and `/` `_div`
    code = compile(f"lambda {indices}: ({', '.join(sides)})", f"<{id}>",
                   "eval")
    names = indices.split(", ")
    unknown = _names(code) - READERS - set(names)
    if unknown:
        raise ValueError(f"{id}: its anchor names {', '.join(sorted(unknown))}"
                         f"; only {', '.join(sorted(READERS))} and "
                         f"{indices} are allowed")
    for i, side in enumerate(sides):
        form = _one_form(side, names)
        if form is not None:
            sides[i] = f"_memo({f'{id}.{i}'!r}, {form}, lambda: {side})"
    body = (", ".join(sides) if len(sides) == 2
            else "({}, (_mid := {})), (_mid, {})".format(*sides))
    tree = _ReaderCalls().visit(ast.parse(f"lambda {indices}: ({body})",
                                          mode="eval"))
    return compile(ast.fix_missing_locations(tree), f"<{id}>", "eval")


def _one_form(side: str, indices: list[str]) -> str | None:
    """The text of f when every reader argument in `side` is one affine
    form f of two or more indices plus a constant, and no index appears
    outside them; else None.

    None too for a bare reader call, which its reader memoises, and for
    a side with `**`, whose powers the power reader continues.
    """
    tree = ast.parse(side, mode="eval").body
    if isinstance(tree, ast.Call) or any(
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            for node in ast.walk(tree)):
        return None
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    if any(len(call.args) != 1 or call.keywords for call in calls):
        return None
    args = [call.args[0] for call in calls]
    forms = {_affine(arg, indices) for arg in args}
    if len(forms) != 1 or None in forms:
        return None

    def uses(node):
        return sum(isinstance(x, ast.Name) and x.id in indices
                   for x in ast.walk(node))
    if uses(tree) != sum(map(uses, args)):
        return None
    terms = [name if c == 1 else "-" + name if c == -1 else f"{c}*{name}"
             for c, name in zip(forms.pop(), indices) if c]
    if len(terms) < 2:
        return None
    return " + ".join(terms).replace("+ -", "- ")


def _affine(node: ast.expr, indices: list[str]) -> tuple[int, ...] | None:
    """The indices' coefficients in an integer affine expression of them
    (its constant dropped), or None when it is not one."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return (0,) * len(indices)
    if isinstance(node, ast.Name) and node.id in indices:
        return tuple(int(name == node.id) for name in indices)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _affine(node.operand, indices)
        return None if inner is None else tuple(-x for x in inner)
    if not isinstance(node, ast.BinOp):
        return None
    left, right = _affine(node.left, indices), _affine(node.right, indices)
    if left is None or right is None:
        return None
    if isinstance(node.op, ast.Add):
        return tuple(x + y for x, y in zip(left, right))
    if isinstance(node.op, ast.Sub):
        return tuple(x - y for x, y in zip(left, right))
    if isinstance(node.op, ast.Mult) and isinstance(node.left, ast.Constant):
        return tuple(node.left.value * y for y in right)
    return None


class _ReaderCalls(ast.NodeTransformer):
    """Rewrites every `base ** e` into `_pow(base, e)` and every `a / d`
    into `_div(a, d)`."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.expr:
        self.generic_visit(node)
        name = {ast.Pow: "_pow", ast.Div: "_div"}.get(type(node.op))
        if name is None:
            return node
        return ast.Call(ast.Name(name, ast.Load()), [node.left, node.right],
                        [])


def _quotient(numerator, divisor: int):
    """numerator / divisor over the rationals, entrywise for a Mat3: an
    int where the divisor divides, else a `fractions.Fraction`, imported
    only then, which equals no int; never a float."""
    if isinstance(numerator, Mat3):
        try:
            return numerator.div_exact(divisor)
        except DivisibilityViolation:
            return Mat3(tuple(_quotient(x, divisor)
                              for x in numerator.entries))
    q, r = divmod(numerator, divisor)
    if not r:
        return q
    from fractions import Fraction
    return Fraction(numerator, divisor)


def _power_reader() -> Callable[[object, int], object]:
    """(base, e) -> base ** e, continuing the latest power of a matrix base.

    One entry per base, keyed by its value: the latest (e, power).  The
    same e costs nothing, and e one past it costs one product,
    `power * base`; any other e, and an int base, is `base ** e`.
    """
    latest = {}

    def power(base, e):
        if isinstance(base, int):
            return base ** e
        e0, value = latest.get(base, (None, None))
        if e0 == e:
            return value
        value = value * base if e0 == e - 1 else base ** e
        latest[base] = e, value
        return value
    return power


def _form_memo() -> Callable[[str, int, Callable[[], object]], object]:
    """(key, f, side) -> side(), evaluated once per (key, f) value.

    `key` names a record's side, `f` is the value of its one form: one
    entry per value of the form that a sweep meets.
    """
    values = {}

    def memo(key, f, side):
        value = values.get((key, f))
        if value is None:
            value = values[key, f] = side()
        return value
    return memo


def _names(code: CodeType) -> set[str]:
    """Every name compiled code uses, its nested code's too."""
    return set(code.co_names + code.co_varnames).union(
        *(_names(c) for c in code.co_consts if isinstance(c, CodeType)))


def registry() -> list[IdentityRecord]:
    """The full static registry; ids are stable and unique.

    Each call binds the compiled anchors to fresh readers over private
    term caches, so returned registries are independent of each other
    and safe to use concurrently.  A registry reads each kind through
    one memoised reader, both sides of the sum records too, so each
    TM(n) and KM(n) is built once, and each K(+-m) of a closed form's
    divisor too; S_<kind> keeps a running total of its kind's reads
    (`series.running_bruteforce`), one term per step up the n axis.
    Each registry binds its anchors' `^` to its own power reader
    (`_power_reader`) and their one-form sides to its own memo
    (`_form_memo`), so no registry sees another's powers or sides.
    """
    caches = {kind: TermCache(kind) for kind in SequenceKind}
    readers = {kind.value: functools.cache(term_reader(kind, caches[scalar]))
               for kind, (_, scalar) in KIND_SEEDS.items()}
    sums = {f"S_{kind.value}": running_bruteforce(kind, readers[kind.value])
            for kind in KIND_SEEDS}
    # the anchors' only names: no builtins
    namespace = {"__builtins__": {}, "_pow": _power_reader(),
                 "_memo": _form_memo(), "_div": _quotient} | readers | sums
    return [
        IdentityRecord(id, anchor, shape,
                       eval(_compile(id, anchor, shape.indices), namespace),
                       *note)
        for id, anchor, shape, *note in FORMULAS
    ]


# verification -------------------------------------------------------------

def verify_record(record: IdentityRecord, bounds: GridBounds) -> VerifyReport:
    """Sweep one identity over its grid, demanding exact equality.  A
    grid with no case raises ValueError: an empty sweep proves nothing."""
    start = time.perf_counter()
    cases = 0
    failures = []
    for indices in record.shape.grid(bounds):
        left, right = record.evaluate(*indices)
        cases += 1
        if left != right:
            failures.append(Failure(tuple(indices), left, right))
    elapsed = time.perf_counter() - start
    described = record.shape.describe(bounds)
    if not cases:
        raise ValueError(f"{record.id}: no case in {described}")
    return VerifyReport(record.id, record.anchor, described,
                        cases, tuple(failures), elapsed, record.note)


def verify(identity_id: str, bounds: GridBounds | None = None) -> VerifyReport:
    """Verify one registered identity (Standard bounds unless overridden)."""
    if bounds is None:
        bounds = PROFILE_BOUNDS[Profile.STANDARD]
    for record in registry():
        if record.id == identity_id:
            return verify_record(record, bounds)
    raise UnknownIdentity(identity_id)


def verify_all(profile: Profile = Profile.STANDARD) -> list[VerifyReport]:
    """Verify every registered identity; reports follow registry order."""
    bounds = PROFILE_BOUNDS[profile]
    return [verify_record(record, bounds) for record in registry()]


# report rendering ---------------------------------------------------------

def report_to_dict(report: VerifyReport) -> dict:
    """JSON-ready form: id, anchor, bounds, cases, failures[], elapsed_ms."""
    out = {
        "id": report.identity_id,
        "anchor": report.anchor,
        "bounds": report.bounds,
        "cases": report.cases,
        "status": "pass" if report.passed else "fail",
        "failures": [
            {
                "indices": list(f.indices),
                "left": decimal_form(f.left),
                "right": decimal_form(f.right),
            }
            for f in report.failures
        ],
        "elapsed_ms": round(report.elapsed_s * 1000, 3),
    }
    if report.note:
        out["note"] = report.note
    return out


def format_report_table(reports) -> str:
    """Fixed-width human-readable table, one row per identity."""
    lines = [f"{'ID':<10} {'STATUS':<6} {'CASES':>7} {'FAILURES':>8} "
             f"{'MS':>9}  ANCHOR"]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.identity_id:<10} {status:<6} {r.cases:>7} "
            f"{len(r.failures):>8} {r.elapsed_s * 1000:>9.1f}  {r.anchor}")
    return "\n".join(lines)
