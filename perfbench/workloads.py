"""The benchmark's workloads: seeded op lists and the library ops they call.

An op is one call into ordalab's public surface: either one
``ordalab.cli.main(argv)`` call with its stdout captured (kind "cli"), or one
certificate-composition call made through the library (kind "lib").  A
workload turns its seed into one *round*, a list of ops whose shape (how many
ops of which kind, in which order) is the same for every seed; the seed only
picks parameters inside each slot, so rounds from different seeds cost about
the same.  ``round_ops`` is a pure function of (workload, seed).

Why each workload exists:

ratfunc-series
    Rational-function arithmetic: the Z(X) series, condensation and geometric
    suites, the Z(X) half of acceptance criterion 04, and seeded ``series``
    calls on c/(X^a+b)^n.  Polynomial canonicalization dominates here.
fraction-certs
    The same certificate machinery over Fraction carriers (Q, Z[1/2],
    Z[1/3]): the Q half of criterion 04 and seeded ``series`` calls.  No
    RatFunc work at all, so a polynomial change must read "no change" here,
    while distance tables or scan resumption show.
suite-matrix
    The other 107 cells of the ``check`` matrix plus seeded ``algebra``
    tables: many short ops that stress argument parsing, suite dispatch,
    order compares, report rendering and the algebra module.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

WORKLOADS = ("ratfunc-series", "fraction-certs", "suite-matrix")

# Z(X) suites that belong to ratfunc-series; suite-matrix runs every other cell.
ZX_HEAVY_SUITES = ("series", "condensation", "geometric")

# Left out of every round: `series "1/X^n" --structure Z(X) --test
# condensation` at the default horizon 64 ran for minutes, because the
# backward condensation modulus probes index 2^N - 1 with no work budget.
# The same code path stays in ratfunc-series at horizons 2 to 5.


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``label`` names the op uniquely and stably (it keys the pinned outputs).
    For kind "cli", ``args`` is the argv; an "algebra" argv carries the table
    JSON text in place of the file path, which the runner fills in.  For kind
    "lib", ``args`` is ``(name,)`` of a function in ``LIB_OPS``.
    """

    label: str
    kind: str
    args: tuple


def _cli(*argv: str) -> Op:
    return Op(" ".join(argv), "cli", tuple(argv))


def _lib(name: str) -> Op:
    return Op(f"lib:{name}", "lib", (name,))


# ---------------------------------------------------------------------------
# seeded op lists


def round_ops(workload: str, seed: int) -> list[Op]:
    """The round of ops for a workload at a seed (same seed, same list)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"ordalab-bench:{workload}:{seed}")
    return _BUILDERS[workload](rng)


def _ratfunc_series(rng: random.Random) -> list[Op]:
    def series(test, horizon, c, b, a):
        shift = f"{b:+d}" if b else ""
        return _cli("series", f"{c}/(X^{a}{shift})^n", "--structure", "Z(X)",
                    "--test", test, "--horizon", str(horizon))

    def variants(test, horizon, a, dense, count):
        # the geometric test needs a power sequence, so c = 1 there
        cs = (1,) if test == "geometric" else (1, 2, 3, 5)
        bs = (-3, -2, -1, 1, 2, 3) if dense else (0,)
        cands = [(c, b, a) for c in cs for b in bs]
        return [series(test, horizon, *pick) for pick in rng.sample(cands, count)]

    # Each slot (test, horizon, degree a, dense, count) fixes what sets the
    # cost of an op; the seed picks only distinct constants c and b, which
    # move it little.  So every seed gives the same cost profile, and the
    # median falls in the middle of a band of like ops: 38 ops below it
    # (22 fast probes of 20-50 ms on the baseline machine, 16 of 70-130 ms),
    # the band of 12 zero-limit ops on dense 1/(X+b)^n (about 150 ms), and
    # 38 above it (9 of 145-180 ms, 14 condensation and geometric ops of
    # 0.17-0.45 s, 8 condensations at horizon 4 (about 0.8 s) around the
    # tail, and 7 heavy ops of a second or more).  Every test sees monomial
    # (b = 0) and dense (b != 0) denominators.
    slots = (
        ("zero-limit", 6, 1, False, 3), ("zero-limit", 6, 2, False, 3),
        ("zero-limit", 6, 3, False, 3), ("zero-limit", 6, 1, True, 3),
        ("zero-limit", 6, 2, True, 3), ("zero-limit", 6, 3, True, 3),
        ("zero-limit", 4, 1, True, 2), ("zero-limit", 4, 2, True, 2),
        ("zero-limit", 16, 1, False, 2), ("zero-limit", 16, 2, False, 2),
        ("zero-limit", 16, 3, False, 2),
        ("alternating", 3, 1, False, 2), ("alternating", 3, 2, False, 2),
        ("alternating", 3, 3, False, 2),
        ("alternating", 3, 1, True, 2), ("alternating", 3, 2, True, 2),
        ("zero-limit", 16, 1, True, 12),
        ("alternating", 4, 2, False, 2), ("alternating", 3, 3, True, 2),
        ("zero-limit", 16, 2, True, 2), ("zero-limit", 16, 3, True, 3),
        ("condensation", 2, 1, False, 3), ("condensation", 2, 2, False, 3),
        ("condensation", 2, 1, True, 3),
        ("geometric", 2, 1, False, 1), ("geometric", 2, 2, False, 1),
        ("geometric", 2, 1, True, 3),
    )
    light = [op for slot in slots for op in variants(*slot)]
    light += [series("condensation", 4, c, 0, 1) for c in range(1, 9)]
    rng.shuffle(light)
    heavy = ([_cli("check", "Z(X)", "--suite", s) for s in ZX_HEAVY_SUITES]
             + [_lib(name) for name in ("zx_cauchy", "zx_add", "zx_rescue")]
             + [series("condensation", 5, 1, 0, 1)])
    # spread the heavy ops, seconds each, evenly among the others
    step = len(light) // len(heavy)
    return [op for i, h in enumerate(heavy) for op in [h] + light[i * step:(i + 1) * step]] \
        + light[len(heavy) * step:]


_Q_GRID = tuple(f"1/{2 ** k}" for k in range(1, 13))


def _p_grid(p: int) -> tuple[str, ...]:
    return tuple(f"1/{p ** k}" for k in range(1, 9))


def _grid_subset(rng: random.Random, grid: tuple[str, ...], size: int) -> str:
    # always keep the finest entry: it sets the scan length, so the cost of
    # an op stays about the same whichever subset the seed picks
    picked = sorted(rng.sample(range(len(grid) - 1), size - 1)) + [len(grid) - 1]
    return ",".join(grid[i] for i in picked)


def _fraction_certs(rng: random.Random) -> list[Op]:
    def series(structure, test, expr):
        grid = (_grid_subset(rng, _Q_GRID, 6) if structure == "Q"
                else _grid_subset(rng, _p_grid(int(structure[-2])), 4))
        return _cli("series", expr, "--structure", structure, "--test", test,
                    "--grid", grid, "--horizon", "64")

    calls: list[Op] = []
    # Each slot fixes what sets the cost of an op (the family, the power k,
    # the ratio r, the horizon); the seed picks numerators, offsets and grid
    # subsets.  Condensation keeps r <= 3/4 and k = 3: its cost grows
    # without bound as r nears 1 (r = 26/27 over Z[1/3] took 22 s).
    for _ in range(2):
        for test in ("zero-limit", "alternating"):
            calls.append(series("Q", test, f"1/(n+{rng.randint(2, 9)})"))
            calls.append(series("Q", test, f"{rng.randint(1, 5)}/n^2"))
            calls.append(series("Q", test, f"{rng.randint(1, 5)}/n^4"))
            calls.append(series("Q", test, f"pow({rng.choice(('4/5', '5/6', '6/7'))}, n)"))
        calls.append(series("Q", "condensation", f"{rng.randint(1, 5)}/n^3"))
        calls.append(series("Q", "condensation", f"pow({rng.choice(('2/3', '3/4'))}, n)"))
        calls.append(series("Q", "condensation", f"pow(1/{rng.randint(3, 9)}, n)"))
        calls.append(series("Q", "geometric", f"pow({rng.choice(('1/3', '2/5', '3/7'))}, n)"))
        calls.append(series("Q", "geometric", f"pow({rng.choice(('4/5', '5/6', '6/7'))}, n)"))
        for p in (2, 3):
            structure = f"Z[1/{p}]"
            for test in ("zero-limit", "alternating", "condensation"):
                calls.append(series(structure, test, f"{rng.randint(1, 7)}/{p}^n"))
            calls.append(series(structure, rng.choice(("zero-limit", "alternating")),
                                f"pow({p - 1}/{p}, n)"))
            # 1 - r must be a unit of Z[1/p] for the geometric closed form
            r = rng.choice((f"{p - 1}/{p}", f"{p * p - 1}/{p * p}"))
            calls.append(series(structure, "geometric", f"pow({r}, n)"))
    rng.shuffle(calls)
    return [_lib(name) for name in Q_LIB_OPS] + calls


# The matrix as of the seed commit, fixed here so that the op list does not
# change when the program gains a structure or a suite.
_ALL_STRUCTURES = ("G0", "Id(Z)", "Q", "Q(i)", "Q^2", "Z", "Z(X)", "Z[1/2]",
                   "Z[1/3]", "lex", "trop")
_ALL_SUITES = ("axioms", "density", "shrink", "metric", "sequence", "series",
               "condensation", "geometric", "bernoulli", "albert")


def _suite_matrix(rng: random.Random) -> list[Op]:
    cells = [(structure, suite) for structure in _ALL_STRUCTURES for suite in _ALL_SUITES
             if not (structure == "Z(X)" and suite in ZX_HEAVY_SUITES)]
    # a quarter of the cells report as text; the seed picks which
    text = set(rng.sample(range(len(cells)), len(cells) // 4))
    ops: list[Op] = []
    for i, (structure, suite) in enumerate(cells):
        argv = ["check", structure, "--suite", suite, "--seed", str(rng.randrange(1000))]
        if i in text:
            argv += ["--format", "text"]
        ops.append(_cli(*argv))
    for n in (2, 3, 4):
        text = _algebra_table(rng, n)
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        seed = str(rng.randrange(1000))
        ops.append(Op(f"algebra table:{digest} --seed {seed}", "cli",
                      ("algebra", text, "--seed", seed)))
    rng.shuffle(ops)
    return ops


def _algebra_table(rng: random.Random, n: int) -> str:
    """JSON text of a structure-constant table with small exact entries."""
    gamma = [str(F(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))) for _ in range(n ** 3)]
    name = f"T{n}-" + "".join(rng.choice("abcdefgh") for _ in range(4))
    return json.dumps({"name": name, "n": n, "gamma": gamma}, sort_keys=True)


_BUILDERS = {
    "ratfunc-series": _ratfunc_series,
    "fraction-certs": _fraction_certs,
    "suite-matrix": _suite_matrix,
}


# ---------------------------------------------------------------------------
# library ops: acceptance criterion 04 split into its certificate steps.
# Each builds fresh sequences (values are cached per sequence, so nothing
# carries over from one op to the next) and returns its result as text
# lines.  A broken expectation raises Mismatch.


class Mismatch(Exception):
    """A library op produced a value other than the documented one."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _verified(lines: list[str], what: str, violations) -> None:
    _expect(violations == [], f"{what}: {len(violations)} violations")
    lines.append(f"{what}: violations=0")


def _q():
    import ordalab

    q = ordalab.lookup("Q")
    return ordalab, q, q.metrics[0]


def _harmonic(ordalab, sp):
    return ordalab.ConvCert(sp, ordalab.Seq("1/n", lambda n: F(1, n)), F(0),
                            lambda eps: math.ceil(1 / eps) + 1)


def _shifted(ordalab, sp, name, base, sign):
    return ordalab.ConvCert(sp, ordalab.Seq(name, lambda n: base + sign * F(1, n)), F(base),
                            lambda eps: math.ceil(1 / eps) + 1)


def q_to_cauchy() -> list[str]:
    o, q, sp = _q()
    cc = o.conv_to_cauchy(_harmonic(o, sp))
    n = cc.modulus(F(1, 2))
    _expect(n == 6, f"N(1/2) = {n}, expected 6")
    lines = [f"N(1/2)={n}"]
    _verified(lines, "cauchy", o.verify_cauchy_cert(cc, q.eps_grid, 64))
    return lines


def q_add() -> list[str]:
    o, q, sp = _q()
    c_sum = o.add_certs(_harmonic(o, sp), _shifted(o, sp, "1-1/n", 1, -1), q)
    _expect(c_sum.limit == F(1), "sum limit is not 1")
    lines = [f"limit={c_sum.limit}"]
    _verified(lines, "sum", o.verify_conv_cert(c_sum, q.eps_grid, 64))
    return lines


def q_prod_zero() -> list[str]:
    o, q, sp = _q()
    ch = _harmonic(o, sp)
    c_sq = o.prod_certs(ch, ch, q.pnorms[0])
    _expect(c_sq.limit == F(0), "square limit is not 0")
    lines = [f"limit={c_sq.limit}"]
    _verified(lines, "square", o.verify_conv_cert(c_sq, q.eps_grid, 64))
    return lines


def q_prod() -> list[str]:
    o, q, sp = _q()
    c_prod = o.prod_certs(_shifted(o, sp, "1-1/n", 1, -1), _shifted(o, sp, "2+1/n", 2, 1),
                          q.pnorms[0])
    _expect(c_prod.limit == F(2), "product limit is not 2")
    lines = [f"limit={c_prod.limit}"]
    _verified(lines, "product", o.verify_conv_cert(c_prod, q.eps_grid, 64))
    return lines


def q_bounded() -> list[str]:
    o, q, sp = _q()
    bound = o.bounded_from_cert(_harmonic(o, sp), F(1))
    _expect(bound == F(1), f"bound {bound}, expected 1")
    return [f"bound={bound}"]


def q_rescue() -> list[str]:
    o, q, sp = _q()
    cc = o.conv_to_cauchy(_harmonic(o, sp))
    csub = o.ConvCert(
        sp, o.Seq("1/2^k", lambda k: F(1, 2 ** k)), F(0),
        lambda eps: math.ceil(math.log2(1 / eps)) + 1 if eps < 1 else 1,
    )
    rescued = o.subseq_rescue(cc, o.SubseqMap("2^k", lambda k: 2 ** k), csub)
    _expect(rescued.limit == F(0), "rescued limit is not 0")
    lines = [f"limit={rescued.limit}"]
    _verified(lines, "rescued", o.verify_conv_cert(rescued, q.eps_grid, 64))
    return lines


def q_zero_bounded() -> list[str]:
    o, q, sp = _q()
    alt = o.Seq("(-1)^n", lambda n: F((-1) ** n))
    c_b, c_zero = o.zero_times_bounded(_harmonic(o, sp), alt, F(2), q.pnorms[0])
    lines: list[str] = []
    _verified(lines, "right", o.verify_conv_cert(c_zero, q.eps_grid, 64))
    _verified(lines, "left", o.verify_conv_cert(c_b, q.eps_grid, 64))
    return lines


def q_apart() -> list[str]:
    o, q, sp = _q()
    ng = q.norms[0]
    one_plus = o.Seq("1+1/n", lambda n: 1 + F(1, n))
    c_ap = o.scanned_cauchy_cert(sp, one_plus)
    gamma, onset = o.apart_tail(c_ap, o.ApartFromZeroWitness(F(1), lambda n: n), ng)
    _expect(gamma == F(6, 25) and onset == 3, f"apart tail ({gamma}, {onset})")
    _expect(all(ng.norm(one_plus(n)) > gamma for n in range(onset, onset + 64)),
            "tail norm falls to gamma")
    try:
        o.validate_apart_witness(o.ApartFromZeroWitness(F(1, 4), lambda n: n), ng,
                                 o.Seq("1/n", lambda n: F(1, n)))
    except ValueError as exc:
        return [f"gamma={gamma}", f"onset={onset}", f"refused: {exc}"]
    raise Mismatch("a vanishing sequence was accepted as apart from zero")


def _zx():
    import ordalab
    from ordalab.poly import RF_ONE, X

    zx = ordalab.lookup("Z(X)")
    inv_x = RF_ONE / X
    c_pow = ordalab.scanned_conv_cert(
        zx.metrics[0], ordalab.Seq("1/X^n", lambda n: inv_x ** n), zx.identity)
    return ordalab, zx, inv_x, c_pow


def zx_cauchy() -> list[str]:
    o, zx, inv_x, c_pow = _zx()
    n = c_pow.modulus(inv_x ** 5)
    _expect(n == 6, f"N(1/X^5) = {n}, expected 6")
    ccx = o.conv_to_cauchy(c_pow)
    lines = [f"N(1/X^5)={n}"]
    _verified(lines, "grid", o.verify_cauchy_cert(ccx, zx.eps_grid, 64))
    _verified(lines, "1/X^5", o.verify_cauchy_cert(ccx, (inv_x ** 5,), 64))
    return lines


def zx_add() -> list[str]:
    o, zx, inv_x, c_pow = _zx()
    c_pow2 = o.scanned_conv_cert(
        zx.metrics[0], o.Seq("1/X^2n", lambda n: inv_x ** (2 * n)), zx.identity)
    c_sum = o.add_certs(c_pow, c_pow2, zx)
    _expect(c_sum.limit == zx.identity, "sum limit is not 0")
    lines = [f"limit={c_sum.limit}"]
    _verified(lines, "sum", o.verify_conv_cert(c_sum, zx.eps_grid, 64))
    return lines


def zx_rescue() -> list[str]:
    o, zx, inv_x, c_pow = _zx()
    c_sub = o.scanned_conv_cert(
        zx.metrics[0], o.Seq("1/X^(k^2)", lambda k: inv_x ** (k * k)), zx.identity)
    rescued = o.subseq_rescue(o.conv_to_cauchy(c_pow), o.SubseqMap("k^2", lambda k: k * k),
                              c_sub)
    _expect(rescued.limit == zx.identity, "rescued limit is not 0")
    lines = [f"limit={rescued.limit}"]
    _verified(lines, "rescued", o.verify_conv_cert(rescued, zx.eps_grid, 64))
    return lines


Q_LIB_OPS = ("q_to_cauchy", "q_add", "q_prod_zero", "q_prod", "q_bounded",
             "q_rescue", "q_zero_bounded", "q_apart")

LIB_OPS = {
    name: globals()[name]
    for name in Q_LIB_OPS + ("zx_cauchy", "zx_add", "zx_rescue")
}
