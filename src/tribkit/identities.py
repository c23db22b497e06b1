"""Registry of machine-checkable identities and the grid verifier.

Every identity relating T, K, TM and KM that is not already embodied by
an operation elsewhere (Binet evaluation, generating functions) lives
here as an IdentityRecord: a stable id, the formula itself as the
anchor, a Shape (index names, declared domain and sweep), and an
evaluator returning the two sides.  A formula's evaluator is its
anchor's own text, compiled once per process, so the formula a report
prints is the formula that was checked.  An anchor is two or three
sides joined by ` = `.  A side is calls of the registry's readers T,
K, TM and KM with one positional argument and of S_T, S_K, S_TM and
S_KM, the direct strided sums, with three; the record's indices; and
int constants (never a bool, float or str); joined by +, -, *, /, ^
and unary minus.  A reader's argument is index arithmetic: the indices
and int constants joined by +, -, * and unary minus.  One walk over
each side (`_Groups.read`) refuses anything else with a ValueError
naming the id and the construct, when the registry is built.  `^` is a
call of the registry's power reader, exact for a negative power of a
number too, and `/` exact division over the rationals (`_quotient`).
Verification sweeps a profile-sized grid, whose points and bounds text
come from one call of the shape's sweep, and demands exact equality at
every point -- integer identities get no tolerance; a quotient by zero
equals no side and is the value of every operation on it, so it fails
its points wherever it stands.

A registry memoises powers: its reader keeps the latest power of each
matrix base and steps it by one product when the exponent grows by one,
as the sweeps walk m upwards.  Such a power is the left side of THM20a,
built only by products of the registry's own TM(n) or KM(n), never by
the kernel that builds the right side, so the two sides stay
independent.

A registry memoises what reads fewer indices than its record has: in
each +/- chain of a side, the two or more terms that together read
fewer independent combinations of the indices than the record has
indices are one group, evaluated once per value of those combinations
and looked up inline in a dict of the registry's own.  The group is
keyed by the indices it reads when it reads that many combinations --
a sum record's `- X(j+m) - X(j-m) - (1-K(m))*X(j)` by (m, j), its
divisor `K(m) - K(-m)` by m -- and otherwise by its first reader
arguments that fix them: the whole right sides of THM18c-e and
COR19c-e, which read only m+n, by their first argument (121 values on
Deep, against 3721 grid points).  A lone read is not grouped, as its
reader memoises it, nor a term that reads no index or every
combination: one record's sweep meets each grid point once, so a memo
keyed by the whole point would never hit.  A non-affine argument
(`TM(m*n)`) reads every index it names, and a reader's own argument is
never grouped.

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

from .core import SequenceKind, TermCache, to_decimal
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
    s = bounds.signed
    return f"n in [{-s}, {s}]", ((n,) for n in range(-s, s + 1))


def _nonneg(bounds: GridBounds):
    s = bounds.signed
    return f"n in [0, {s}]", ((n,) for n in range(s + 1))


def _pair(bounds: GridBounds):
    p = bounds.pair
    return (f"(m, n) in [0, {p}]^2",
            ((m, n) for m in range(p + 1) for n in range(p + 1)))


def _nr(bounds: GridBounds):
    p = bounds.pair
    return (f"(n, r) with 0 <= r <= n <= {p}",
            ((n, r) for n in range(p + 1) for r in range(n + 1)))


def _sum(bounds: GridBounds):
    p, m_hi = bounds.pair, min(10, bounds.pair)  # strides up to 10
    return (f"(m, j, n) with 1 <= m <= {m_hi}, 0 <= j < m, 1 <= n <= {p}",
            ((m, j, n) for m in range(1, m_hi + 1) for j in range(m)
             for n in range(1, p + 1)))


@dataclass(frozen=True)
class Shape:
    """A record's index names, as its anchor writes them, domain and
    sweep: bounds -> (their description, the grid's points)."""

    indices: str
    domain: str
    sweep: Callable[[GridBounds], tuple[str, Iterator[tuple[int, ...]]]]


N_ALL = Shape("n", "all integers n", _signed)
N_NONNEG = Shape("n", "n >= 0", _nonneg)
MN = Shape("m, n", "m, n >= 0", _pair)
NR = Shape("n, r", "n >= r >= 0", _nr)
SUM = Shape("m, j, n", "m > j >= 0, n >= 1", _sum)


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

    Each side is parsed alone and read once by `_Groups`: `^` becomes a
    call `_pow(base, e)` of the registry's power reader, `/` a call
    `_div(a, d)` of `_quotient`, and each group an inline lookup in a
    dict of its own, `_s0`, `_s1`, ..., which the lambda takes as
    keyword-only defaults, so each evaluation of the lambda, one per
    registry, makes fresh ones; a chain A = B = C yields ((A, B), (B,
    C)), B evaluated once.  Cached: compiled once per process.
    """
    sides = anchor.replace("^", "**").split(" = ")
    if len(sides) not in (2, 3):
        raise ValueError(f"{id}: an anchor has two or three sides")
    groups = _Groups(id, indices.split(", "))
    try:
        a, b, *c = [groups.side(side) for side in sides]
    except SyntaxError as error:
        raise ValueError(f"{id}: {error.text}: {error.msg}") from None
    if c:  # ((A, (_mid := B)), (_mid, C))
        mid = ast.NamedExpr(ast.Name("_mid", ast.Store()), b)
        a, b = (ast.Tuple([a, mid], ast.Load()),
                ast.Tuple([ast.Name("_mid", ast.Load()), *c], ast.Load()))
    tree = ast.parse(f"lambda {indices}: ()", mode="eval")
    tree.body.body.elts = [a, b]
    tree.body.args.kwonlyargs = [ast.arg(f"_s{i}")
                                 for i in range(len(groups.found))]
    tree.body.args.kw_defaults = [ast.Dict([], []) for _ in groups.found]
    return compile(ast.fix_missing_locations(tree), f"<{id}>", "eval")


class _Groups(ast.NodeTransformer):
    """Rewrites the terms of each +/- chain that read fewer independent
    combinations of the indices than there are indices into an inline
    lookup, evaluated once per value of those combinations; `read`, the
    one walk over a side, records each node's reads in `reads`.

    A chain's terms are taken with their signs, as the anchor writes
    them.  Its group is every term that reads at least one and fewer
    than all of the combinations, when there are two or more such terms
    and together they still read fewer: a term that reads none is a
    constant, and a lone term at most one read, which its reader
    memoises.  The group becomes `(_v if (_v := _sI.get(key)) is not
    None else _sI.setdefault(key, group))`, `key` from `_key`, added
    after the chain's other terms.  A reader's argument is never
    grouped.  `found` lists each group's (text, key).
    """

    def __init__(self, id: str, indices: list[str]):
        self.id, self.indices = id, indices
        self.reads, self.found = {}, []

    def side(self, source: str) -> ast.expr:
        """The side `source` read, then grouped."""
        self.source = source
        return self.visit(self.read(ast.parse(source, mode="eval").body))

    def read(self, node: ast.expr) -> ast.expr:
        """`node` checked against the formula language and its reads
        recorded, `a ** e` rewritten into `_pow(a, e)` and `a / d` into
        `_div(a, d)`."""
        reads = []
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None)
            if name not in READERS or node.keywords:
                self.refuse(node.keywords[0] if name in READERS else node.func)
            if len(node.args) != (3 if name.startswith("S_") else 1):
                self.refuse(node, f" of {len(node.args)} arguments")
            for arg in node.args:
                form = self.affine(arg, named := [])
                reads += named if form is None else [
                    (ast.get_source_segment(self.source, arg), form)]
        elif isinstance(node, (ast.Name, ast.Constant)):
            self.affine(node, reads)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node.operand = self.read(node.operand)
            reads = self.reads[node.operand]
        elif isinstance(getattr(node, "op", None),
                        (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
            node.left, node.right = self.read(node.left), self.read(node.right)
            reads = self.reads[node.left] + self.reads[node.right]
            name = {ast.Pow: "_pow", ast.Div: "_div"}.get(type(node.op))
            if name:
                node = ast.copy_location(ast.Call(ast.Name(name, ast.Load()),
                                                  [node.left, node.right], []),
                                         node)
        else:
            self.refuse(node)
        self.reads[node] = reads
        return node

    def affine(self, node: ast.expr, named: list) -> tuple[int, ...] | None:
        """The indices' coefficients in index arithmetic (its constant
        dropped), or None for `m*n`; `named` gains each index's read."""
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return (0,) * len(self.indices)
        if isinstance(node, ast.Name) and node.id in self.indices:
            named.append((node.id, tuple(int(i == node.id)
                                         for i in self.indices)))
            return named[-1][1]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self.affine(node.operand, named)
            return None if inner is None else tuple(-x for x in inner)
        if not isinstance(getattr(node, "op", None),
                          (ast.Add, ast.Sub, ast.Mult)):
            self.refuse(node, " in a reader's argument")
        left, right = (self.affine(x, named) for x in (node.left, node.right))
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Add):
            return tuple(x + y for x, y in zip(left, right))
        if isinstance(node.op, ast.Sub):
            return tuple(x - y for x, y in zip(left, right))
        if isinstance(node.left, ast.Constant):
            return tuple(node.left.value * y for y in right)
        return None

    def refuse(self, node: ast.AST, detail: str = ""):
        """Raise a ValueError naming the id and `node`'s construct, with
        `detail` unless it is a name or a constant, wrong anywhere."""
        kind = type(node.value if isinstance(node, ast.Constant)
                    else getattr(node, "op", node)).__name__
        detail *= not isinstance(node, (ast.Name, ast.Constant))
        raise ValueError(f"{self.id}: no formula holds {kind}{detail}: "
                         f"{ast.get_source_segment(self.source, node)}")

    def visit_Call(self, node: ast.Call) -> ast.expr:
        return node if node.func.id in READERS else self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> ast.expr:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return self.generic_visit(node)
        terms = _terms(node)
        reads = [self.reads[term] for _, term in terms]
        width = len(self.indices)
        group = [i for i, read in enumerate(reads)
                 if 0 < _rank([v for _, v in read]) < width]
        if len(group) < 2 or _rank(
                [v for i in group for _, v in reads[i]]) == width:
            group = []
        rest = [(op, self.visit(term)) for i, (op, term) in enumerate(terms)
                if i not in group]
        if group:
            text = " ".join(
                f"{'-' if isinstance(terms[i][0], ast.Sub) else '+'} "
                f"{_segment(self.source, terms[i][1])}" for i in group)
            key = _key([r for i in group for r in reads[i]], self.indices)
            memo = f"_s{len(self.found)}"
            self.found.append((text.removeprefix("+ "), key))
            lookup = ast.parse(f"(_v if (_v := {memo}.get({key})) is not None"
                               f" else {memo}.setdefault({key}, ...))",
                               mode="eval").body
            lookup.orelse.args[1] = _chain([terms[i] for i in group])
            rest.append((ast.Add(), lookup))
        return _chain(rest)


def _terms(node: ast.expr) -> list[tuple[ast.operator, ast.expr]]:
    """The terms of a +/- chain, each with its sign (`ast.Add` or
    `ast.Sub`), in the anchor's order; the first's is `ast.Add`."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _terms(node.left) + [(node.op, node.right)]
    return [(ast.Add(), node)]


def _chain(terms: list[tuple[ast.operator, ast.expr]]) -> ast.expr:
    """The +/- chain of signed terms, left to right; a first term's
    minus is a unary minus."""
    (op, tree), *others = terms
    if isinstance(op, ast.Sub):
        tree = ast.UnaryOp(ast.USub(), tree)
    for op, term in others:
        tree = ast.BinOp(tree, op, term)
    return tree


def _segment(source: str, node: ast.expr) -> str:
    """`node`'s text, in parentheses when it is a +/- chain, whose own
    text leaves the anchor's parentheses out."""
    text = ast.get_source_segment(source, node)
    return f"({text})" if len(_terms(node)) > 1 else text


def _rank(vectors: list[tuple[int, ...]]) -> int:
    """The rank of integer vectors, by fraction-free elimination."""
    rows = [v for v in vectors if any(v)]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next(i for i, x in enumerate(pivot) if x)
        rows = [row for row in ([pivot[col] * x - row[col] * p
                                 for x, p in zip(row, pivot)] for row in rows)
                if any(row)]
        rank += 1
    return rank


def _key(reads: list[tuple[str, tuple[int, ...]]], indices: list[str]) -> str:
    """The text of a group's memo key, whose value fixes every value the
    group reads: the indices it reads, in their order, when it reads as
    many independent combinations as indices (`(m, j)`, `m`), else its
    first reads, in the anchor's order, that are independent (`m+n+2`).
    """
    vectors = [v for _, v in reads]
    rank = _rank(vectors)
    named = [name for i, name in enumerate(indices)
             if any(v[i] for v in vectors)]
    if len(named) == rank:
        picked = named
    else:
        picked, basis = [], []
        for text, v in reads:
            if len(basis) < rank and _rank(basis + [v]) > len(basis):
                picked.append(text)
                basis.append(v)
    return picked[0] if len(picked) == 1 else f"({', '.join(picked)})"


class _Undefined(str):
    """A quotient by zero as its text, n/0, which equals nothing and is
    the result of every operation on it, a quotient too: a side holding
    one anywhere fails its point."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    def _absorb(self, *other):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _absorb
    __neg__ = __pow__ = __rpow__ = _absorb

    def __divmod__(self, other):  # so `_quotient` returns it, exactly
        return self, 0

    __rdivmod__ = __divmod__


def _quotient(numerator, divisor: int):
    """numerator / divisor over the rationals, entrywise for a Mat3: an
    int where the divisor divides, an `_Undefined` by zero, else a
    `Fraction` (imported only then) that equals no int; never a float."""
    if isinstance(numerator, Mat3):
        try:
            return numerator.div_exact(divisor)
        except (DivisibilityViolation, ZeroDivisionError):
            return Mat3(tuple(_quotient(x, divisor)
                              for x in numerator.entries))
    if not divisor:
        return _Undefined(f"{to_decimal(numerator)}/0")
    q, r = divmod(numerator, divisor)
    if not r:
        return q
    from fractions import Fraction
    return Fraction(numerator, divisor)


def _inverse_power(base: Mat3, k: int) -> Mat3:
    """base ** -k over the rationals, k >= 1: adj(base) ** k over
    det(base) ** k (`_quotient`), so a singular base is 1/0 or 0/0 at
    every entry."""
    a, b, c, d, e, f, g, h, i = base.entries
    a1, a4, a7 = e * i - f * h, f * g - d * i, d * h - e * g
    adjugate = Mat3((a1, c * h - b * i, b * f - c * e,
                     a4, a * i - c * g, c * d - a * f,
                     a7, b * g - a * h, a * e - b * d))
    return _quotient(adjugate ** k, (a * a1 + b * a4 + c * a7) ** k)


def _power_reader() -> Callable[[object, int], object]:
    """(base, e) -> base ** e, continuing the latest power of a matrix base.

    One entry per matrix base, keyed by its value: the latest (e,
    power), e >= 0.  The same e costs nothing, and e one past it costs
    one product, `power * base`; any other e is `base ** e`.  Every power is
    exact over the rationals, never a float: a negative one is
    `1 / base ** -e` for a number (`_quotient`), so `2^(-1)` is 1/2 and
    `0^(-1)` is 1/0, and the inverse power for a matrix
    (`_inverse_power`), so `TM(n)^(-1)` is TM(-n).  An exponent that is
    no int at a point, a quotient by zero or a non-integral Fraction
    such as `n/2` at odd n, makes the power a quotient by zero too.
    """
    latest = {}

    def power(base, e):
        if not isinstance(e, int):
            if isinstance(e, _Undefined):
                return e
            base_text = "" if isinstance(base, Mat3) else to_decimal(base)
            return _Undefined(f"{base_text}^({to_decimal(e)})")
        if not isinstance(base, Mat3):
            return base ** e if e >= 0 else _quotient(1, base ** -e)
        if e < 0:
            # never kept: each side makes its own quotients by zero, so
            # even slotwise, where a tuple takes one object for equal to
            # itself, a singular base's power equals nothing
            return _inverse_power(base, -e)
        e0, value = latest.get(base, (None, None))
        if e0 == e:
            return value
        value = value * base if e0 == e - 1 else base ** e
        latest[base] = e, value
        return value
    return power


def registry() -> list[IdentityRecord]:
    """The full static registry; ids are stable and unique.

    Each call binds the compiled anchors to fresh readers over private
    term caches, so returned registries are independent of each other;
    a registry, like its caches, serves one thread at a time.  A
    registry reads each kind through one memoised reader, both sides of
    the sum records too, so each TM(n) and KM(n) is built once, and
    each K(+-m) of a closed form's divisor too; S_<kind> keeps a running
    total of its kind's reads (`series.running_bruteforce`), one term
    per step up the n axis.
    Each registry binds its anchors' `^` to its own power reader
    (`_power_reader`), and each evaluator takes fresh dicts for its
    groups (`_Groups`) when it is made, so no registry sees another's
    powers or groups.
    """
    caches = {kind: TermCache(kind) for kind in SequenceKind}
    readers = {kind.value: functools.cache(term_reader(kind, caches[scalar]))
               for kind, (_, scalar) in KIND_SEEDS.items()}
    sums = {f"S_{kind.value}": running_bruteforce(kind, readers[kind.value])
            for kind in KIND_SEEDS}
    # the anchors' only names: no builtins
    namespace = {"__builtins__": {}, "_pow": _power_reader(),
                 "_div": _quotient} | readers | sums
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
    described, points = record.shape.sweep(bounds)
    cases = 0
    failures = []
    for indices in points:
        left, right = record.evaluate(*indices)
        cases += 1
        if left != right:
            failures.append(Failure(tuple(indices), left, right))
    elapsed = time.perf_counter() - start
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
