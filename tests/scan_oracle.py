"""Slow references for the modulus scans and the certificate verifiers.

These are the loops that ``ordalab.sequences`` resumes, backs with a
distance table, or decides from the spread of the values: every scan starts
at index 1 and compares every pair, and the verifiers compute every
distance they read.  They are kept only as differential oracles for the
tests.
"""

# the index offsets verify_cauchy_cert probes past N(eps)
PROBE_OFFSETS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55)


def scan_window_start_reference(space, seq, limit, eps, horizon, max_index):
    """Least N with d(seq(n), limit) < eps across all of [N, N+horizon],
    or None when no such window starts at or below max_index."""
    s = space.codomain
    last_bad = 0
    for n in range(1, max_index + horizon + 1):
        if not s.lt(space.distance(seq(n), limit), eps):
            last_bad = n
        window_start = n - horizon
        if window_start >= 1 and window_start > last_bad:
            return window_start
    return None


def scan_cauchy_window_start_reference(space, seq, eps, horizon, max_index):
    """The Cauchy scan from index 1: slides a left bound g so that all pairs
    inside [g, n] are good, and returns g once the window is horizon wide."""
    s = space.codomain
    g = 1
    for n in range(2, max_index + horizon + 1):
        xn = seq(n)
        for a in range(g, n):
            if not s.lt(space.distance(seq(a), xn), eps):
                g = a + 1
        if g > max_index:
            return None
        if n - g >= horizon:
            return g
    return None


def verify_conv_cert_reference(cert, grid, horizon):
    """(eps, n, d) for every grid eps and index in [N(eps), N(eps)+horizon]
    where d(seq(n), limit) is not below eps."""
    space, s = cert.space, cert.space.codomain
    out = []
    for eps in grid:
        n0 = cert.modulus(eps)
        for n in range(n0, n0 + horizon + 1):
            d = space.distance(cert.seq(n), cert.limit)
            if not s.lt(d, eps):
                out.append((eps, n, d))
    return out


def verify_cauchy_cert_reference(cert, grid, horizon):
    """(eps, m, n, d) for every grid eps and every pair m <= n of probed
    indices in [N(eps), N(eps)+horizon] where d(seq(m), seq(n)) is not
    below eps, in the verifier's order."""
    space, s = cert.space, cert.space.codomain
    offs = sorted({o for o in PROBE_OFFSETS if o <= horizon} | {horizon})
    out = []
    for eps in grid:
        n0 = cert.modulus(eps)
        for a in range(len(offs)):
            for b in range(a, len(offs)):
                m, n = n0 + offs[a], n0 + offs[b]
                d = space.distance(cert.seq(m), cert.seq(n))
                if not s.lt(d, eps):
                    out.append((eps, m, n, d))
    return out
