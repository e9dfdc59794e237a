"""The bundled registry with every fast path turned off, for differential tests.

``reference_registry()`` rebuilds each handle with its ``compare``, ``op``,
``negate``, ``second_op``, ``invert`` and ``from_rational`` wrapped in plain
functions.  A wrapper is not the function the handle's selections test by
identity, so ``_direct`` (Python's comparisons, and the integer pairs of
two ``Fraction``s, for ``lt/le/eq``), ``_int_terms`` (rational terms of n
over ints) and the integer check of a coefficient pseudonorm are all off.
Each function of ``order``'s ``Fraction`` kernel (``frac_add``,
``frac_mul``, ``frac_neg``, ...) is first replaced by the Python operator
it stands for (``a + b``, ``a * b``, ``-a``, ...).  The metric spaces,
norms and pseudonorms are built again on the wrapped handles and then
copied with ``dataclasses.replace``, which drops ``MetricSpace._group``
and so the spread-decided Cauchy windows and bound-decided scans.

``use_reference_registry()`` installs it as the registry that ``lookup``
and the CLI read, for the length of a ``with`` block.  For that length it
also binds the kernel names that the closures of ``instances`` call
(``frac_cmp``, ``frac_abs`` and ``frac_pow2`` among them) to Python's
operators, so that ``Q(i)``, ``Q^2``, ``lex``, ``trop`` and ``G0``
compute on ``Fraction``'s own operators and a report under the reference
never runs the kernel.
"""

from __future__ import annotations

import contextlib
import operator
from dataclasses import replace
from fractions import Fraction

from ordalab import instances, order, registry

WRAPPED = ("compare", "op", "negate", "second_op", "invert", "from_rational")
# each kernel function and the Python operator that replaces it
PLAIN = {order.frac_add: operator.add, order.frac_mul: operator.mul,
         order.frac_neg: operator.neg, order.frac_abs: operator.abs,
         order.frac_cmp: lambda a, b: (a > b) - (a < b),
         order.frac_pow2: lambda k: Fraction(2) ** k}


def _plain(f):
    f = PLAIN.get(f, f)
    return None if f is None else lambda *args: f(*args)


def reference_registry() -> dict:
    reg = {
        key: replace(h, metrics=(), norms=(), pnorms=(),
                     **{name: _plain(getattr(h, name)) for name in WRAPPED})
        for key, h in registry().items()
    }
    instances._attach_spaces(reg)
    return {key: replace(h, metrics=tuple(replace(sp) for sp in h.metrics))
            for key, h in reg.items()}


@contextlib.contextmanager
def use_reference_registry(reg: dict):
    fast = registry()
    kernel = {f.__name__: f for f in PLAIN if getattr(instances, f.__name__, None) is f}
    instances._REGISTRY = reg
    vars(instances).update({name: PLAIN[f] for name, f in kernel.items()})
    try:
        yield
    finally:
        instances._REGISTRY = fast
        vars(instances).update(kernel)
