"""Independent answer checker for tribkit CLI output.

Nothing here imports tribkit.  Every expected value is a pair of
residues modulo two fixed 61-bit primes, computed from the defining
recurrence s(n) = s(n-1) + s(n-2) + s(n-3) by a 3x3 shift-matrix power
taken modulo each prime (its inverse for negative indices).  Matrix
terms come from their entry formula in scalar terms, strided sums from a
geometric series of matrix powers, so neither shares an algorithm with
the library.

Decimal output is reduced in chunks of at most CHUNK_DIGITS digits, so
the checker never asks the interpreter to convert a number longer than
its integer-string limit.
"""

from __future__ import annotations

import json
import re

# 2**61 - 1 and 2**61 - 31
PRIMES = (2305843009213693951, 2305843009213693921)
CHUNK_DIGITS = 4000

SEEDS = {"T": (0, 1, 1), "K": (3, 1, 3)}
MATRIX_SCALAR = {"TM": "T", "KM": "K"}

# Identity ids and the shape of the grid each is swept over, as the
# README documents them.
GRID_OF = {
    **dict.fromkeys(("EQ3", "EQ4", "EQ5", "EQ6", "THM15a", "THM15b",
                     "THM15c", "THM15e", "COR17a", "COR17b"), "signed"),
    **dict.fromkeys(("TNEG", "LEM16a", "LEM16b"), "nonneg"),
    **dict.fromkeys(("THM18a", "THM18b", "THM18c", "THM18d", "THM18e",
                     "COR19a", "COR19b", "COR19c", "COR19d", "COR19e",
                     "THM20a", "THM20b", "THMFINALb"), "pair"),
    **dict.fromkeys(("THM20c", "THMFINALa"), "triangle"),
    **dict.fromkeys(("SUMTHMa", "SUMTHMb", "SUMCORa", "SUMCORb"), "sum"),
}
IDENTITY_IDS = tuple(GRID_OF)

# profile -> (signed bound, pair bound)
PROFILE_BOUNDS = {"quick": (10, 10), "standard": (40, 30), "deep": (100, 60)}

CHECK_LINE = "check: closed form matches brute force"
_DECIMAL = re.compile(r"-?(0|[1-9][0-9]*)")


class WrongAnswer(Exception):
    """Output that exited 0 but does not match the oracle."""


# modular arithmetic -------------------------------------------------------

_IDENT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_SHIFT = ((0, 1, 0), (0, 0, 1), (1, 1, 1))      # (s0, s1, s2) -> (s1, s2, s3)
_SHIFT_INV = ((-1, -1, 1), (1, 0, 0), (0, 1, 0))  # and back


def _mul(a, b, p):
    size = len(b)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(size)) % p
                       for j in range(len(b[0])))
                 for i in range(len(a)))


def _pow(a, e, p):
    result = tuple(tuple(int(i == j) for j in range(len(a)))
                   for i in range(len(a)))
    base = a
    while e:
        if e & 1:
            result = _mul(result, base, p)
        base = _mul(base, base, p)
        e >>= 1
    return result


def _signed_shift(e, p):
    return _pow(_SHIFT, e, p) if e >= 0 else _pow(_SHIFT_INV, -e, p)


def _term_mod(kind, n, p):
    s0, s1, s2 = SEEDS[kind]
    row = _signed_shift(n, p)[0]
    return (row[0] * s0 + row[1] * s1 + row[2] * s2) % p


def _geometric(b, n, p):
    """(b**n, I + b + ... + b**(n-1)) modulo p."""
    if n == 0:
        return _IDENT, tuple((0, 0, 0) for _ in range(3))
    if n % 2:
        power, total = _geometric(b, n - 1, p)
        return _mul(power, b, p), _add(_IDENT, _mul(b, total, p), p)
    power, total = _geometric(b, n // 2, p)
    return _mul(power, power, p), _add(total, _mul(power, total, p), p)


def _add(a, b, p):
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def _stride_sum_mod(kind, m, offset, n, p):
    """sum_{i<n} s(m*i + offset) modulo p."""
    _, total = _geometric(_pow(_SHIFT, m, p), n, p)
    start = _mul(_signed_shift(offset, p), tuple((s,) for s in SEEDS[kind]), p)
    return _mul(total, start, p)[0][0]


def _matrix_from_terms(s):
    """Entries of TM(n) (or KM(n)) given s(d) = T(n+d) (or K(n+d))."""
    return (s(1), s(0) + s(-1), s(0),
            s(0), s(-1) + s(-2), s(-1),
            s(-1), s(-2) + s(-3), s(-2))


def _pairs(per_prime):
    """Zip per-prime lists of residues into per-value residue pairs."""
    return list(zip(*per_prime))


def term_residues(kind, n):
    return [tuple(_term_mod(kind, n, p) for p in PRIMES)]


def matrix_residues(kind, n):
    return _pairs([[x % p for x in _matrix_from_terms(
        lambda d: _term_mod(kind, n + d, p))] for p in PRIMES])


def sum_residues(kind, m, j, n):
    if kind in SEEDS:
        return [tuple(_stride_sum_mod(kind, m, j, n, p) for p in PRIMES)]
    scalar = MATRIX_SCALAR[kind]
    return _pairs([[x % p for x in _matrix_from_terms(
        lambda d: _stride_sum_mod(scalar, m, j + d, n, p))] for p in PRIMES])


def gf_residues(kind, count):
    """Residues of the first `count` coefficients, flattened entrywise."""
    scalar = MATRIX_SCALAR.get(kind, kind)
    per_prime = []
    for p in PRIMES:
        lo, hi = (-3, count + 1) if kind in MATRIX_SCALAR else (0, count)
        # window starts at s(lo), walked forward to s(hi)
        terms = {}
        a, b, c = (_term_mod(scalar, lo + d, p) for d in range(3))
        for i in range(lo, hi + 1):
            terms[i] = a
            a, b, c = b, c, (a + b + c) % p
        if kind in MATRIX_SCALAR:
            per_prime.append([x % p for i in range(count)
                              for x in _matrix_from_terms(
                                  lambda d, i=i: terms[i + d])])
        else:
            per_prime.append([terms[i] for i in range(count)])
    return _pairs(per_prime)


def decimal_residues(token: str):
    """Residues of a signed decimal numeral, read CHUNK_DIGITS at a time."""
    if not _DECIMAL.fullmatch(token):
        raise WrongAnswer(f"not a canonical decimal integer: {token[:40]!r}")
    negative = token.startswith("-")
    digits = token[1:] if negative else token
    out = []
    for p in PRIMES:
        r = 0
        for start in range(0, len(digits), CHUNK_DIGITS):
            chunk = digits[start:start + CHUNK_DIGITS]
            r = (r * pow(10, len(chunk), p) + int(chunk)) % p
        out.append(-r % p if negative else r)
    return tuple(out)


# request parsing ------------------------------------------------------------

def parse_request(argv):
    """Split argv into (command, positionals, options) like the CLI does."""
    command, rest = argv[0], list(argv[1:])
    positionals, options = [], {}
    i = 0
    while i < len(rest):
        word = rest[i]
        if word == "--check":
            options["check"] = True
            i += 1
        elif word.startswith("--"):
            options[word[2:]] = rest[i + 1]
            i += 2
        else:
            positionals.append(word)
            i += 1
    options.setdefault("format", "plain")
    return command, positionals, options


def expected_cases(identity_id, profile):
    signed, pair = PROFILE_BOUNDS[profile]
    shape = GRID_OF[identity_id]
    if shape == "signed":
        return 2 * signed + 1
    if shape == "nonneg":
        return signed + 1
    if shape == "pair":
        return (pair + 1) ** 2
    if shape == "triangle":
        return (pair + 1) * (pair + 2) // 2
    m_hi = min(10, pair)
    return pair * m_hi * (m_hi + 1) // 2


# output checking ----------------------------------------------------------

def _expect(condition, message):
    if not condition:
        raise WrongAnswer(message)


def _lines(text):
    _expect(text.endswith("\n"), "output does not end with a newline")
    return text[:-1].split("\n")


def _compare(tokens, residues):
    _expect(len(tokens) == len(residues),
            f"{len(tokens)} values where {len(residues)} were expected")
    for index, (token, want) in enumerate(zip(tokens, residues)):
        _expect(decimal_residues(token) == want,
                f"value {index} differs from the oracle")


def _cells(kind_prefix, rows):
    """Split csv rows carrying a matrix as (row, col, value) triples."""
    tokens = []
    want = [(str(r), str(c)) for r in (1, 2, 3) for c in (1, 2, 3)]
    _expect(len(rows) % 9 == 0, "matrix csv is not a multiple of 9 rows")
    for index, row in enumerate(rows):
        fields = row.split(",")
        _expect(fields[:len(kind_prefix[0])] == kind_prefix[index // 9],
                f"csv row {index} has the wrong key fields")
        _expect(tuple(fields[len(kind_prefix[0]):-1]) == want[index % 9],
                f"csv row {index} has the wrong cell position")
        tokens.append(fields[-1])
    return tokens


def _matrix_tokens(fmt, text, payload_key=None):
    if fmt == "json":
        value = json.loads(text)
        if payload_key is not None:
            value = value[payload_key]
        _expect(isinstance(value, list) and len(value) == 3
                and all(isinstance(r, list) and len(r) == 3 for r in value),
                "json matrix is not 3x3")
        return [x for row in value for x in row]
    lines = _lines(text)
    _expect(len(lines) == 3, "plain matrix is not three lines")
    tokens = [line.split(" ") for line in lines]
    _expect(all(len(t) == 3 for t in tokens), "plain matrix row is not 3 wide")
    return [x for row in tokens for x in row]


def _check_term(pos, opts, text):
    kind, n = pos[0], int(pos[1])
    strategy, fmt = opts.get("strategy", "iterate"), opts["format"]
    if fmt == "plain":
        tokens = _lines(text)
        _expect(len(tokens) == 1, "plain term is not one line")
    elif fmt == "json":
        obj = json.loads(text)
        _expect(set(obj) == {"kind", "n", "strategy", "value"}
                and (obj["kind"], obj["n"], obj["strategy"])
                == (kind, n, strategy), "json term fields differ")
        tokens = [obj["value"]]
    else:
        lines = _lines(text)
        _expect(len(lines) == 2 and lines[0] == "kind,n,strategy,value",
                "csv term header differs")
        fields = lines[1].split(",")
        _expect(fields[:3] == [kind, str(n), strategy],
                "csv term fields differ")
        tokens = fields[3:]
    _compare(tokens, term_residues(kind, n))


def _check_matrix(pos, opts, text):
    kind, n = pos[0], int(pos[1])
    fmt = opts["format"]
    if fmt == "csv":
        lines = _lines(text)
        _expect(lines[0] == "kind,n,row,col,value", "csv matrix header differs")
        tokens = _cells([[kind, str(n)]], lines[1:])
    else:
        tokens = _matrix_tokens(fmt, text)
    _compare(tokens, matrix_residues(kind, n))


def _check_sum(pos, opts, text):
    kind = pos[0]
    m, j, n = (int(x) for x in pos[1:4])
    fmt, checked = opts["format"], opts.get("check", False)
    is_matrix = kind in MATRIX_SCALAR
    if fmt == "plain":
        lines = _lines(text)
        if checked:
            _expect(lines[-1] == CHECK_LINE, "missing --check confirmation")
            lines = lines[:-1]
        if is_matrix:
            tokens = _matrix_tokens("plain", "\n".join(lines) + "\n")
        else:
            _expect(len(lines) == 1, "plain sum is not one line")
            tokens = lines
    elif fmt == "json":
        obj = json.loads(text)
        keys = {"kind", "m", "j", "n", "value"} | ({"check"} if checked else set())
        _expect(set(obj) == keys and (obj["kind"], obj["m"], obj["j"], obj["n"])
                == (kind, m, j, n), "json sum fields differ")
        _expect(not checked or obj["check"] == "ok", "json check is not ok")
        tokens = (_matrix_tokens("json", text, "value") if is_matrix
                  else [obj["value"]])
    else:
        lines = _lines(text)
        suffix = ",check" if checked else ""
        header = ("kind,m,j,n,row,col,value" if is_matrix
                  else "kind,m,j,n,value") + suffix
        _expect(lines[0] == header, "csv sum header differs")
        rows = lines[1:]
        if checked:
            _expect(all(r.endswith(",ok") for r in rows), "csv check is not ok")
            rows = [r[:-3] for r in rows]
        key = [kind, str(m), str(j), str(n)]
        if is_matrix:
            tokens = _cells([key], rows)
        else:
            _expect(len(rows) == 1 and rows[0].split(",")[:4] == key,
                    "csv sum fields differ")
            tokens = rows[0].split(",")[4:]
    _compare(tokens, sum_residues(kind, m, j, n))


def _check_gf(pos, opts, text):
    kind, count = pos[0], int(pos[1])
    fmt = opts["format"]
    is_matrix = kind in MATRIX_SCALAR
    if fmt == "json":
        value = json.loads(text)
        _expect(isinstance(value, list) and len(value) == count,
                "json gf has the wrong length")
        tokens = ([x for mat in value for row in mat for x in row]
                  if is_matrix else value)
    elif fmt == "csv":
        lines = _lines(text)
        if is_matrix:
            _expect(lines[0] == "kind,i,row,col,value", "csv gf header differs")
            tokens = _cells([[kind, str(i)] for i in range(count)], lines[1:])
        else:
            _expect(lines[0] == "kind,i,value", "csv gf header differs")
            rows = [line.split(",") for line in lines[1:]]
            _expect([r[:2] for r in rows] == [[kind, str(i)]
                                              for i in range(count)],
                    "csv gf key fields differ")
            tokens = [r[2] for r in rows]
    elif is_matrix:
        lines = _lines(text)
        _expect(len(lines) == count, "plain gf has the wrong line count")
        tokens = []
        for i, line in enumerate(lines):
            head, _, body = line.partition(": ")
            _expect(head == str(i), f"plain gf line {i} has the wrong index")
            rows = [r.split(" ") for r in body.split(" | ")]
            _expect(len(rows) == 3 and all(len(r) == 3 for r in rows),
                    f"plain gf line {i} is not a 3x3 matrix")
            tokens.extend(x for r in rows for x in r)
    else:
        lines = _lines(text)
        _expect(len(lines) == 1, "plain gf is not one line")
        tokens = lines[0].split(" ")
    _compare(tokens, gf_residues(kind, count))


def verify_rows(fmt, text):
    """(id, status, cases, failures) per reported identity."""
    if fmt == "json":
        return [(r["id"], r["status"], r["cases"], len(r["failures"]))
                for r in json.loads(text)]
    lines = _lines(text)
    if fmt == "csv":
        _expect(lines[0] == "id,status,cases,failures,elapsed_ms",
                "csv verify header differs")
        rows = [line.split(",") for line in lines[1:]]
        return [(r[0], r[1], int(r[2]), int(r[3])) for r in rows]
    _expect(lines[0].split()[:5] == ["ID", "STATUS", "CASES", "FAILURES", "MS"],
            "plain verify header differs")
    rows = [line.split() for line in lines[1:-1]]
    _expect(lines[-1] == f"all {len(rows)} identities passed",
            "plain verify summary line differs")
    return [(r[0], r[1].lower(), int(r[2]), int(r[3])) for r in rows]


def _check_verify(pos, opts, text):
    profile = opts.get("profile", "standard")
    rows = verify_rows(opts["format"], text)
    ids = [row[0] for row in rows]
    if pos:
        _expect(ids == pos, "verify reported other identities than requested")
    else:
        _expect(sorted(ids) == sorted(IDENTITY_IDS),
                "full verify did not report each of the 32 identities once")
    for identity_id, status, cases, failures in rows:
        _expect(status == "pass" and failures == 0,
                f"{identity_id} did not pass")
        _expect(cases == expected_cases(identity_id, profile),
                f"{identity_id} swept {cases} cases, the grid has "
                f"{expected_cases(identity_id, profile)}")


_CHECKERS = {"term": _check_term, "matrix": _check_matrix, "sum": _check_sum,
             "gf": _check_gf, "verify": _check_verify}


def check(argv, stdout: str) -> None:
    """Raise WrongAnswer unless `stdout` is the right answer to `argv`.

    Only called for requests that exited 0.
    """
    command, positionals, options = parse_request(argv)
    try:
        _CHECKERS[command](positionals, options, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise WrongAnswer(f"malformed output: {type(exc).__name__}: {exc}") \
            from exc


_PLAIN_MS = re.compile(r"^(\S+ +\S+ +\d+ +\d+) +\S+", re.MULTILINE)


def timing_free(argv, stdout: str) -> str:
    """The output with verify's per-identity timings masked.

    Those timings are the only part of an answer allowed to differ
    between two runs of the same request.
    """
    if argv[0] != "verify":
        return stdout
    fmt = parse_request(argv)[2]["format"]
    if fmt == "json":
        reports = json.loads(stdout)
        for report in reports:
            report.pop("elapsed_ms", None)
        return json.dumps(reports, sort_keys=True)
    if fmt == "csv":
        return "\n".join(line.rsplit(",", 1)[0]
                         for line in stdout.split("\n"))
    header, _, body = stdout.partition("\n")
    return header + "\n" + _PLAIN_MS.sub(r"\1 -", body)
