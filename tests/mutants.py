"""Apply named source mutations to a copy of ``src/`` and run the tests
named beside each one; print which mutants the tests catch.

Each mutant replaces one exact piece of text, which must occur once, in one
module of a temporary copy of ``src/``. The tests named beside it then run
under pytest with that copy first on ``PYTHONPATH``; the mutant is caught
when they fail. Before any mutant, the named tests must pass on the
unmutated copy. Every pytest run draws its Hypothesis examples from the one
fixed ``SEED`` (with no example database), so the verdicts repeat from run
to run. The mutants run on as many worker processes as there are CPUs (at
most one per mutant), each with its own copy of ``src/``, and the results
print in list order. Nothing in the repository is written. Exits 1 when a
mutant survives and 2 when the baseline fails or a mutation's text is
missing.

A change to a fast path adds the mutants its tests should catch.

Run from the repository root:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 0  # passed to every pytest run as --hypothesis-seed


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/ordalab
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids under tests/


NORM_TESTS = ("test_fast_paths.py::test_integer_norm_checks_match_the_reference",)
LAW_TESTS = ("test_fast_paths.py::test_memoised_law_checks_match_the_reference",)
COUNT_TESTS = (
    "test_fast_paths.py::test_memoised_law_checks_call_nothing_twice_with_the_same_objects",
    "test_fast_paths.py::test_law_checks_make_each_call_once_per_pair_of_sample_elements",
)
TERM_TESTS = ("test_term_compile.py::test_compiled_terms_match_the_tree_walk",)
STEPPED_TESTS = (
    "test_term_compile.py::test_stepped_terms_match_the_tree_walk_in_any_order",
    "test_term_compile.py::test_stock_stepped_terms_match_the_tree_walk_in_any_order",
)
ARITH_TESTS = ("test_poly_kernel.py::test_arithmetic_matches_the_schoolbook_pair",)
SUM_TESTS = (
    "test_poly_kernel.py::test_sums_that_cancel_part_of_a_shared_factor_match_the_schoolbook_pair",
    "test_poly_kernel.py::test_henrici_sum_pins",
)
MONOMIAL_TESTS = tuple(f"test_poly_kernel.py::test_{name}" for name in (
    "monomial_products_match_the_schoolbook",
    "monomial_powers_match_repeated_products",
    "division_by_a_monomial_matches_the_oracle",
    "division_by_a_monomial_refusals",
))
POWER_TESTS = tuple(f"test_power_terms.py::test_{name}" for name in (
    "galloped_zero_limit_moduli_match_the_scan",
    "galloped_cauchy_windows_match_the_scan",
    "galloped_partial_sum_limits_match_the_scan",
    "moduli_past_the_index_cap_and_wrong_limits_raise_the_scan_messages",
    "decided_monotonicity_matches_the_walk",
    "closed_form_sums_match_the_series_partials",
    "closed_form_alternating_sums_match_the_series_partials",
))
BLOCK_TESTS = (
    "test_rational_moduli.py::test_block_partial_sums_match_the_series_partials",
    "test_rational_moduli.py::test_the_alternating_test_sums_rational_terms_in_blocks",
)
WINDOW_TESTS = (
    "test_rational_moduli.py::test_window_values_match_the_series_partials_up_to_a_shift",
    "test_rational_moduli.py::test_tail_bound_reads_far_partial_sums_from_their_gap",
)
CONDENSED_TESTS = (
    "test_series.py::test_condensed_terms_match_the_doubling_path",
    "test_series.py::test_condensed_terms_pins",
)
POWER_SEQ_TEST = (
    "test_powers.py::test_power_seq_is_r_to_the_n_through_a_power_term_where_the_gate_admits")
GEOMETRIC_TEST = (
    "test_series.py::test_geometric_cert_names_the_index_where_the_terms_leave_the_powers")
KERNEL_TESTS = ("test_fast_paths.py::test_the_fraction_kernel_matches_fractions_own_operators",)
REFERENCE_TESTS = ("test_reference_reports.py::test_reports_match_under_the_reference_registry",)
COLLECTOR_TESTS = (
    "test_suite_laws.py::test_collector_cert_records_a_failed_scan_at_its_epsilon_only",
    "test_suite_laws.py::test_collector_cert_reports_a_capability_error_in_build_as_unverifiable",
)


def edge(case: str) -> str:
    """The node id of one case of the window-fact edge test."""
    return f"test_window_facts.py::test_windows_at_the_edge_of_a_bound_are_walked[{case}]"


MUTANTS = (
    Mutant("integer norm check: > becomes >= in the submultiplicative comparison",
           "algebra.py", "else (prod > bound)", "else (prod >= bound)", NORM_TESTS),
    Mutant("integer norm check: den(s) dropped",
           "algebra.py", "left, right, den = sn * sd,", "left, right, den = sn,", NORM_TESTS),
    Mutant("integer norm check: D^2 becomes D in the product's denominator",
           "algebra.py", "sd * sd * big_d * big_d * d", "sd * sd * big_d * d", NORM_TESTS),
    Mutant("integer norm check: the strict branch ignored",
           "algebra.py", "if (prod != bound) if p.strict else (prod > bound):",
           "if prod > bound:", NORM_TESTS),
    Mutant("integer norm check: the table built with i and j swapped",
           "algebra.py", "for plane in alg._terms\n", "for plane in zip(*alg._terms)\n",
           NORM_TESTS),
    Mutant("_direct compares with the module global total_compare",
           "order.py", '"_direct", self.compare is _Q_OPERATIONS[0])',
           '"_direct", self.compare is total_compare)',
           ("test_fast_paths.py::test_a_wrapped_total_compare_leaves_the_direct_path_alone",)),
    Mutant("Fraction kernel: frac_add's second gcd reduction skipped",
           "order.py", "            n, d = n // g2, s * (db // g2)\n", "            d = s * db\n",
           KERNEL_TESTS),
    Mutant("Fraction kernel: frac_mul's second gcd skipped",
           "order.py", "    if g2 > 1:\n        nb, da = nb // g2, da // g2\n", "",
           REFERENCE_TESTS),
    Mutant("Fraction kernel: lt crosses each numerator with its own denominator",
           "order.py", "a._numerator * b._denominator < b._numerator * a._denominator",
           "a._numerator * a._denominator < b._numerator * b._denominator",
           KERNEL_TESTS),
    Mutant("Fraction kernel: le decided with <",
           "order.py", "a._numerator * b._denominator <= b._numerator * a._denominator",
           "a._numerator * b._denominator < b._numerator * a._denominator", KERNEL_TESTS),
    Mutant("Fraction kernel: eq reads the numerators only",
           "order.py", "a._numerator == b._numerator and a._denominator == b._denominator",
           "a._numerator == b._numerator", KERNEL_TESTS),
    Mutant("law memo keyed on the first argument alone",
           "order.py", "key = (id(x), id(y))", "key = id(x)", LAW_TESTS),
    Mutant("compatibility: the left side f(c, a) becomes f(a, c)",
           "order.py", '("left", (c, a), (c, b))', '("left", (a, c), (c, b))', LAW_TESTS),
    Mutant("metric symmetry: dist(y, x) becomes dist(x, y)",
           "metric.py", "if not m.eq(dxy, dist(y, x)):", "if not m.eq(dxy, dist(x, y)):",
           LAW_TESTS),
    Mutant("norm: norm(a - b) reused for norm(a + b)",
           "metric.py", "if not m.le(ng.norm(g.op(a, b)), bound):",
           "if not m.le(diff, bound):", LAW_TESTS),
    Mutant("metric: distances taken without the memo",
           "metric.py", "dist = once(space.distance)", "dist = space.distance", COUNT_TESTS),
    Mutant("hemiring: products of sample pairs taken without the memo",
           "order.py", "add, mul = once(s.op), once(s.second_op)",
           "add, mul = once(s.op), s.second_op", COUNT_TESTS),
    Mutant("rational terms: a difference of polynomials taken as their sum",
           "termexpr.py", 'cross = poly_add if op == "+" else poly_sub', "cross = poly_add",
           TERM_TESTS),
    Mutant("rational terms: the denominator evaluated at the next index",
           "sequences.py", "q = q * n + c", "q = q * (n + 1) + c", TERM_TESTS),
    Mutant("rational terms: a symbol read as degree 0",
           "termexpr.py", "if isinstance(node, Lit):\n            form = 0, poly((node.value,)), (1,)",
           "if isinstance(node, Sym):\n            form = 0, (), (1,)\n"
           "        elif isinstance(node, Lit):\n            form = 0, poly((node.value,)), (1,)",
           TERM_TESTS),
    Mutant("rational terms: the degree bound skipped under a zero exponent",
           "termexpr.py", "            if base is not None and base[0] * e <= _MAX_DEGREE:",
           "            if e == 0:\n                form = 0, (1,), (1,)\n"
           "            elif base is not None and base[0] * e <= _MAX_DEGREE:",
           ("test_term_compile.py::test_a_zero_exponent_keeps_the_degree_bound_of_its_base",)),
    Mutant("rational terms: a Bin's form built from its left side only",
           "termexpr.py", "right = None if left is None else self.form(node.right)",
           "right = left", TERM_TESTS),
    Mutant("_int_terms: the selection tuple without invert",
           "order.py", "ops = (self.compare, self.op, self.negate, self.second_op, self.invert)",
           "ops = (self.compare, self.op, self.negate, self.second_op)",
           ("test_term_compile.py::test_wrapped_module_functions_leave_the_choice_alone",)),
    Mutant("Z[1/p] membership: the logarithm truncated, not rounded",
           "instances.py", "p ** round(math.log(den, p))", "p ** int(math.log(den, p))",
           ("test_instances.py::test_localized_membership_matches_dividing_out",)),
    Mutant("RatFunc product: the cancellation of c against b skipped",
           "poly.py", "    g = _zgcd(c, b)\n    if g != (1,):", "    g = _zgcd(c, b)\n    if False:",
           ARITH_TESTS),
    Mutant("RatFunc quotient: a negative lead of the divisor's numerator left below",
           "poly.py", "num, den = poly_neg(num), poly_neg(den)\n    return _make(num, den)",
           "return _make(num, den)", ARITH_TESTS),
    Mutant("RatFunc gcd in Z[X]: the gcd of the contents left out",
           "poly.py", "return poly_scale(poly_gcd(p, q), c)", "return poly_gcd(p, q)",
           ARITH_TESTS),
    Mutant("RatFunc sum: the shared-factor sum wrapped as canonical",
           "poly.py", "if g2 != (1,):", "if g2 != (1,) and b == d:",
           ARITH_TESTS + SUM_TESTS),
    Mutant("RatFunc sum: the equal-denominator sum wrapped as canonical",
           "poly.py", "if g2 != (1,):", "if g2 != (1,) and b != d:",
           ARITH_TESTS + SUM_TESTS),
    Mutant("poly_mul: a monomial left factor's coefficient taken as 1",
           "poly.py", "(0,) * (len(p) - 1) + poly_scale(q, p[-1])", "(0,) * (len(p) - 1) + q",
           ARITH_TESTS),
    Mutant("poly_mul: a monomial factor's shift one too far",
           "poly.py", "(0,) * (len(q) - 1) + poly_scale(p, q[-1])",
           "(0,) * len(q) + poly_scale(p, q[-1])", MONOMIAL_TESTS),
    Mutant("_valuation: the first nonzero coefficient taken for its index",
           "poly.py", "return p.index(next(filter(None, p)))", "return next(filter(None, p))",
           ("test_poly_kernel.py::test_gcd_matches_oracle",) + MONOMIAL_TESTS),
    Mutant("RatFunc hash: a constant hashed as its pair of tuples",
           "poly.py", "if len(self.den) == 1 and len(self.num) <= 1:", "if False:",
           ("test_poly_kernel.py::test_constant_quotients_hash_as_the_numbers_they_equal",)),
    Mutant("collector: block without the EvalError re-raise",
           "suites.py", "violations, pass_values = thunk()\n        except EvalError:\n            raise\n",
           "violations, pass_values = thunk()\n", COLLECTOR_TESTS),
    Mutant("collector: the modulus echoed one index late",
           "suites.py", 'echoes.append(f"N({fmt(eps)})={n}")', 'echoes.append(f"N({fmt(eps)})={n + 1}")',
           (COLLECTOR_TESTS[0], "test_golden.py::test_golden_bytes[series-Q-zero-limit]")),
    Mutant("Sturm chain: a remainder by a member that leads negative left unfixed",
           "poly.py", "r = _pseudo_rem(a, b if b[-1] > 0 else poly_neg(b))",
           "r = _pseudo_rem(a, b)",
           ("test_rational_moduli.py::test_tail_start_matches_brute_force",)),
    Mutant("proved modulus: the floor candidate k taken for k+1",
           "poly.py", "for m in (k + 1, k) if", "for m in (k + 1, k + 1) if",
           ("test_rational_moduli.py::test_the_rising_tail_gets_its_true_modulus",
            "test_golden.py::test_golden_bytes[series-Q-rising-tail-zero-limit]")),
    Mutant("proved modulus: the positive-integer-root gate on divisors dropped",
           "termexpr.py", "if not c or any(poly_eval(c, k + 1) == 0 for k in real_root_floors(c)):",
           "if not c:",
           ("test_rational_moduli.py::test_proved_moduli_are_the_least_tails",
            "test_term_compile.py::test_a_zero_divisor_at_a_far_index_names_that_index",
            "test_golden.py::test_golden_bytes[violation-Q-shifted-harmonic]")),
    Mutant("proved modulus: the _MAX_INDEX cap dropped",
           "sequences.py", "return n if n <= _MAX_INDEX else None", "return n",
           ("test_rational_moduli.py::test_a_proved_modulus_past_the_index_cap_raises_the_scan_message",
            "test_golden.py::test_golden_bytes[violation-Q-harmonic-fine-grid]")),
    Mutant("block partial sums: even leaves added with the wrong sign",
           "sequences.py", "return (-num if self.alternating and lo % 2 == 0 else num), den",
           "return num, den",
           BLOCK_TESTS),
    Mutant("block partial sums: a plain block summed with alternating signs",
           "sequences.py", "return (-num if self.alternating and lo % 2 == 0 else num), den",
           "return (-num if lo % 2 == 0 else num), den", BLOCK_TESTS),
    Mutant("block partial sums: a block started one past the largest known sum",
           "sequences.py", "self._block(m + 1, n)", "self._block(m + 2, n)", BLOCK_TESTS),
    Mutant("partial sums: the stepped run inserted one position late",
           "sequences.py", "known[i:i] =", "known[i + 1:i + 1] =",
           BLOCK_TESTS),
    Mutant("window blocks: the sign of a block that starts at an even index flipped",
           "sequences.py", "num, den, last = num * b + a * den, den * b, n + o",
           "num, den, last = num * b + (-a if self.alternating and last % 2 else a) * den, "
           "den * b, n + o", WINDOW_TESTS),
    Mutant("window blocks: a block summed from the last index read, not the one after",
           "sequences.py", "self._block(last + 1, n + o)", "self._block(last, n + o)",
           WINDOW_TESTS),
    Mutant("window blocks: the relative values stored into the sums",
           "sequences.py", "out.append(Fraction(num, den))",
           "out.append(sums.setdefault(n + o, Fraction(num, den)))", WINDOW_TESTS),
    Mutant("condensed terms: 2^j ones in place of 2^(j-1)",
           "sequences.py", "h.mul(nat_mul(h, k, h.one), self.x(k))",
           "h.mul(nat_mul(h, 2 * k, h.one), self.x(k))", CONDENSED_TESTS),
    Mutant("Seq: True taken as the index 1",
           "sequences.py", "if type(n) is not int or n < 1:", "if not isinstance(n, int) or n < 1:",
           ("test_termexpr.py::test_a_sequence_takes_only_a_positive_integer_index",)),
    Mutant("Seq: a non-integral index taken",
           "sequences.py", "if type(n) is not int or n < 1:", "if n < 1 or n is True:",
           ("test_termexpr.py::test_a_sequence_refuses_a_non_integral_index",)),
    Mutant("window bounds: a falling power's far end read at n0 + h - 1",
           "sequences.py", "return (n0 + h, n0) if", "return (n0 + h - 1, n0) if",
           (edge("power-far-end"), edge("power-far-end-cauchy"))),
    Mutant("window bounds: the sums' far end read at n0 + h - 1",
           "sequences.py", "return (n0, n0 + h) if", "return (n0, n0 + h - 1) if",
           (edge("sums-far-end"), edge("sums-far-end-cauchy"), edge("condensed-far-end"))),
    Mutant("window bounds: Leibniz read at n0 + 2",
           "sequences.py", "return (n0, n0 + 1) if", "return (n0, n0 + 2) if",
           (edge("leibniz"),)),
    Mutant("window bounds: the falls gate of a power dropped",
           "sequences.py", "if grp is not None and self.falls(grp) else None",
           "if grp is not None else None", (edge("no-fall"), edge("no-fall-cauchy"))),
    Mutant("window bounds: positivity trusted for alternating sums",
           "sequences.py", '(n0, n0 + 1) if shape_fact(self.x, "falls", grp)',
           '(n0, n0 + 1) if shape_fact(self.x, "positive", grp)',
           (edge("rising"), edge("rising-cauchy"))),
    Mutant("decided convergence window: <= at the lower end",
           "sequences.py", "all(grp.lt(lo, x) and grp.lt(x, hi)",
           "all(grp.le(lo, x) and grp.lt(x, hi)", (edge("limit-minus-eps"),)),
    Mutant("decided convergence window: <= at the upper end",
           "sequences.py", "all(grp.lt(lo, x) and grp.lt(x, hi)",
           "all(grp.lt(lo, x) and grp.le(x, hi)", (edge("limit-plus-eps"),)),
    Mutant("decided Cauchy window: a distance of eps passed",
           "sequences.py", "if s.lt(space.distance(*window_values(",
           "if s.le(space.distance(*window_values(", (edge("distance-eps"),)),
    Mutant("power tail: the bisection returns the end below the least index",
           "sequences.py", "                lo = mid\n        return hi\n",
           "                lo = mid\n        return max(lo, 1)\n", (POWER_TESTS[0], POWER_TESTS[1])),
    Mutant("power tail: a bisection power multiplied from ratio^hi",
           "sequences.py", "held[mid] = grp.mul(held[lo], power(mid - lo))",
           "held[mid] = grp.mul(held[hi], power(mid - lo))", (POWER_TESTS[0], POWER_TESTS[1])),
    Mutant("power tail: each doubling's power computed afresh",
           "sequences.py", "held[hi] = grp.mul(held[lo], power(hi - lo))",
           "held[hi] = nat_pow(grp, ratio, hi)",
           ("test_power_terms.py::test_a_power_tail_probe_multiplies_powers_it_holds",)),
    Mutant("zero limit of c r^n: |c| dropped from |c| |r|^N",
           "sequences.py", "_power_tail(grp, absolute_value(grp, self.c), ratio, grp.one, message)",
           "_power_tail(grp, grp.one, ratio, grp.one, message)", (POWER_TESTS[0],)),
    Mutant("power sums: c dropped from the gap",
           "sequences.py", "one_less, scale = grp.sub(grp.one, self.r), grp.mul(self.c, self.r)",
           "one_less, scale = grp.sub(grp.one, self.r), self.r", (POWER_TESTS[1], POWER_TESTS[2])),
    Mutant("power sums: the Cauchy window's scale without 1 - r^h",
           "sequences.py", "scale = grp.mul(scale, grp.sub(grp.one, nat_pow(grp, self.r, horizon)))",
           "scale = grp.mul(scale, grp.one)", (POWER_TESTS[1],)),
    Mutant("power tail: the eps (1 - r) side left unscaled",
           "sequences.py", "bound = grp.mul(eps, d)", "bound = eps",
           (POWER_TESTS[1], POWER_TESTS[2])),
    Mutant("power sums: a wrong limit accepted",
           "sequences.py", "decides = limit is None or grp.eq(grp.mul(limit, one_less), scale)",
           "decides = True", (POWER_TESTS[2], POWER_TESTS[3])),
    Mutant("falls: r < 1 taken as r <= 1",
           "sequences.py", "s.lt(self.r, s.one)", "s.le(self.r, s.one)",
           (POWER_TESTS[4], "test_power_terms.py::test_a_ratio_of_one_takes_the_walk")),
    Mutant("shape facts: a rational zero tail answered on a space without a _group",
           "sequences.py", "decides = grp is not None and grp._int_terms",
           "grp = space.codomain\n        decides = grp is not None and grp._int_terms",
           ("test_rational_moduli.py::"
            "test_terms_without_a_zero_limit_and_other_carriers_keep_the_scan",)),
    Mutant("shape facts: partial sums answer pair for their terms",
           "sequences.py", "self._pair = shape_fact(x, \"pair\")",
           "self._pair = self.pair = shape_fact(x, \"pair\")", (BLOCK_TESTS[0],)),
    Mutant("power_term: the _group gate dropped",
           "sequences.py", "or not handle.metrics\n            or handle.metrics[0]._group is None):",
           "or not handle.metrics):",
           ("test_power_terms.py::test_the_syntax_c_times_r_to_the_n_compiles_to_a_power_term",)),
    Mutant("closed-form sums: x_(n+1) read as x_n",
           "sequences.py", "(x(1), x(n + 1))", "(x(1), x(n))", (POWER_TESTS[5],)),
    Mutant("closed-form alternating sums: the sign of x_(n+1) flipped",
           "sequences.py", "h.op if self.alternating and n % 2 else h.sub",
           "h.op if self.alternating and not n % 2 else h.sub", (POWER_TESTS[6],)),
    Mutant("power term: c/p^n compiled without inverting p",
           "termexpr.py", "            r = handle.invert(r)\n", "            pass\n", STEPPED_TESTS),
    Mutant("power term: c = 1 multiplied in and any other c left out",
           "sequences.py", "self._mul = None if handle.eq(c, handle.one) else handle.second_op",
           "self._mul = handle.second_op if handle.eq(c, handle.one) else None", STEPPED_TESTS),
    Mutant("bound-decided verifier: the upper bound dropped",
           "sequences.py", "if grp.lt(lo, x) and grp.lt(x, hi):", "if grp.lt(lo, x):",
           ("test_spread.py::test_bound_decided_verifier_matches_the_reference[Q]",
            "test_spread.py::test_bound_decided_verifier_matches_the_reference[Z(X)]")),
    Mutant("forward condensation modulus: 2^(k-1) >= N taken for 2^(k-1) > N",
           "series.py", "return (plain_modulus(eps) - 1).bit_length() + 1",
           "return plain_modulus(eps).bit_length() + 1",
           ("test_golden.py::test_golden_bytes[series-Q-condensation]",)),
    Mutant("geometric closed form: the index-1 check dropped",
           "series.py", "for n in range(33):", "for n in range(1, 33):",
           (GEOMETRIC_TEST + "[another-ratio]",)),
    Mutant("geometric closed form: stopped at n = 6",
           "series.py", "for n in range(33):", "for n in range(7):",
           (GEOMETRIC_TEST + "[index-33]",)),
    Mutant("series --test geometric: the early power check starting at index 3",
           "suites.py", "for k in range(2, 7):", "for k in range(3, 7):",
           ("test_cli.py::test_an_early_departure_from_the_powers_is_named_before_the_inverse"
            "[2-Q-1]",)),
    Mutant("condense: forward claims the condensed sums and returns the plain ones",
           "series.py", 'claimed, other, what = base_partials, cond_partials, "partial sums"',
           'claimed, other, what = cond_partials, base_partials, "partial sums"',
           ("test_series.py::test_condense_refuses_a_certificate_for_the_other_sums",)),
    Mutant("power_seq: the stepping closure taken where the PowerTerm gate admits",
           "sequences.py",
           "return Seq(name, power_term(handle, lambda: (handle.one, r)) or powers(handle, r))",
           "return Seq(name, powers(handle, r))",
           (POWER_SEQ_TEST,
            "test_window_facts.py::"
            "test_archimedean_windows_over_a_falling_ratio_read_their_two_bounds")),
    Mutant("power_seq: r passed for c",
           "sequences.py", "power_term(handle, lambda: (handle.one, r))",
           "power_term(handle, lambda: (r, r))", (POWER_SEQ_TEST,)),
    Mutant("split_max: the modulus kept under the first part of the split",
           "sequences.py", "n = found[eps] = max(", "n = found[beta] = max(",
           ("test_sequences.py::test_a_split_modulus_splits_each_eps_once_over_repeated_reads",)),
    Mutant("term parser: the literal limit one digit late",
           "termexpr.py", "if len(t.text) > 4300:", "if len(t.text) > 4301:",
           ("test_termexpr.py::test_an_overlong_integer_literal_is_a_term_error",)),
)


def tests_pass(src: Path, tests, workdir: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            f"--hypothesis-seed={SEED}", *(str(ROOT / "tests" / t) for t in tests)]
    done = subprocess.run(argv, cwd=workdir, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def mutate(m: Mutant, copies: queue.Queue, workdir: Path):
    """Apply m to a free copy of src/, run its tests, and put the copy back
    unmutated; True when the tests catch it, None when the text is missing."""
    src = copies.get()
    try:
        path = src / "ordalab" / m.module
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            return None
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        try:
            return not tests_pass(src, m.tests, workdir)
        finally:
            path.write_text(text, encoding="utf-8")
    finally:
        copies.put(src)


def main() -> int:
    workers = min(os.cpu_count() or 1, len(MUTANTS))
    with tempfile.TemporaryDirectory(prefix="ordalab-mutants-") as tmp:
        workdir = Path(tmp)
        copies: queue.Queue = queue.Queue()
        for k in range(workers):
            src = workdir / f"src-{k}"
            shutil.copytree(ROOT / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            copies.put(src)
        named = sorted({t for m in MUTANTS for t in m.tests})
        if not tests_pass(workdir / "src-0", named, workdir):
            print("the named tests fail on the unmutated source")
            return 2
        # each worker thread drives one pytest process at a time
        with ThreadPoolExecutor(workers) as pool:
            hits = list(pool.map(lambda m: mutate(m, copies, workdir), MUTANTS))
        for m, hit in zip(MUTANTS, hits):
            if hit is None:
                print(f"{m.name}: the text to mutate does not occur once in {m.module}")
                return 2
            print(f"{'caught  ' if hit else 'SURVIVED'} {m.name}")
        caught = sum(hits)
        print(f"caught {caught}/{len(MUTANTS)}")
        return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
