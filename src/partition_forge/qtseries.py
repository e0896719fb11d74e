"""Macdonald weights for cylindric plane partitions and the (q, t) identity.

Finite products of factors (1 - q^a t^b)^e are kept in canonical form as
dicts mapping (a, b) to a nonzero integer exponent; (0, 0) never occurs.
Alphabets are dicts mapping (n, m) to integer multiplicities, and
Omega[alphabet] is again such a factor product.
"""

from functools import lru_cache
from itertools import zip_longest

from . import series
from .partitions import arm, is_horizontal_strip, leg
from .cylindric import (
    check_closed,
    check_profile,
    cpp_weight,
    enumerate_cpps,
    hook_vectors,
    necklace,
    step_strip,
)
from .paths import dc_alphabet


# ---------------------------------------------------------------------------
# factor products


def fp_validate(a):
    for (n, m), e in a.items():
        if (n, m) == (0, 0) or e == 0:
            raise AssertionError("not a canonical factor product: %r" % (a,))
    return a


def fp_expand(a, cap):
    """Series in (q, t) truncated at total degree <= cap."""
    return series.product_by_degree(a.items(), 2, cap)


def omega(alphabet):
    """Omega[a] = prod 1/(1 - q^n t^m)^a_nm as a factor product."""
    if alphabet.get((0, 0), 0):
        raise AssertionError("alphabet has a (0, 0) term: %r" % (alphabet,))
    return {k: -c for k, c in alphabet.items() if c}


def alphabet_q_minus_t(alphabet):
    """Multiply an alphabet by (q - t)."""
    return series.accumulate(
        pair
        for (n, m), c in alphabet.items()
        for pair in (((n + 1, m), c), ((n, m + 1), -c))
    )


# ---------------------------------------------------------------------------
# Pieri coefficients


def _strip_columns(la, mu):
    """Columns of the strip la/mu: row i covers columns mu_i + 1 .. la_i."""
    return {j for l, m in zip_longest(la, mu, fillvalue=0) for j in range(m + 1, l + 1)}


@lru_cache(maxsize=None)
def _pieri_step(step, before, after):
    """Factor pairs of the Pieri coefficient of one CPP step before -> after:
    phi(after/before) on a '1' step, psi(before/after) on a '0' step.

    With la/mu the strip of the step, these are the arm-leg factors
    (a, l + 1) / (a + 1, l) of the boxes of la over those of mu, taken in the
    columns of the strip on a '1' step or, inverted, in the other columns on
    a '0' step.  Raises unless the step is a horizontal strip.  Cached for
    the process; a tuple, so no caller can change it."""
    la, mu = step_strip(step, before, after)
    if not is_horizontal_strip(la, mu):
        raise AssertionError("%r/%r is not a horizontal strip" % (la, mu))
    on_strip = step == "1"
    cols = _strip_columns(la, mu)
    sign = 1 if on_strip else -1
    pairs = []
    for shape, s in ((la, sign), (mu, -sign)):
        for i, part in enumerate(shape, 1):
            for j in range(1, part + 1):
                if (j in cols) == on_strip:
                    a, l = arm(shape, (i, j)), leg(shape, (i, j))
                    pairs += [((a, l + 1), s), ((a + 1, l), -s)]
    return tuple(fp_validate(series.accumulate(pairs)).items())


def weight_function(pi, seq):
    """Product of Pieri coefficients along the profile, summed as factor
    products from the per-step table."""
    seq = check_closed(pi, seq)
    return series.accumulate(
        pair
        for k, step in enumerate(pi, 1)
        for pair in _pieri_step(step, seq[k - 1], seq[k])
    )


def weight_alphabet_identity(pi, seq):
    """Check the weight equals Omega[(q - t) * peak/valley alphabet]."""
    lhs = weight_function(pi, seq)
    rhs = omega(alphabet_q_minus_t(dc_alphabet(pi, seq)))
    return lhs == rhs


def weight_simplification(pi, max_weight):
    """(holds, total): how many CPPs over pi of weight at most max_weight
    satisfy weight_alphabet_identity, and how many there are.

    Both sides are cyclic sums of per-step tables (_pieri_step, and
    paths._layer_alphabet), so rotating pi together with each CPP, as
    (mu^0, ..., mu^T) -> (mu^1, ..., mu^T, mu^1), changes neither; the pair
    is taken once per necklace(pi) and max_weight (see _necklace_tally).
    """
    return _necklace_tally(necklace(pi), max_weight)


@lru_cache(maxsize=None)
def _necklace_tally(neck, max_weight):
    """weight_simplification over the greatest rotation neck, cached for the
    process."""
    seqs = enumerate_cpps(neck, max_weight)
    return sum(1 for seq in seqs if weight_alphabet_identity(neck, seq)), len(seqs)


# ---------------------------------------------------------------------------
# the (q, t) product identity


def qbinomial_column(k, cap):
    """prod_{i=1..k} (1 - t q^(i-1)) / (1 - q^i), truncated at (q, t)-degree
    <= cap."""
    return series.product_by_degree(
        (pair for i in range(1, k + 1) for pair in (((i - 1, 1), 1), ((i, 0), -1))), 2, cap
    )


def pochhammer_ratio(vec, max_weight, qt_cap):
    """(t z^vec; q)_inf / (z^vec; q)_inf in (z_1, ..., z_n, q, t), truncated
    at z-degree max_weight and (q, t)-degree qt_cap."""
    return series.accumulate(
        (tuple(k * v for v in vec) + qt, c)
        for k in range(max_weight // sum(vec) + 1)
        for qt, c in qbinomial_column(k, qt_cap).items()
    )


def qt_borodin_rhs(pi, max_weight, qt_cap):
    """Hook side of the Macdonald identity, truncated: prod_diag 1/(1 - z^h)
    * prod_boxes (t z^h; q)_inf / (z^h; q)_inf over the hook lengths h."""
    check_profile(pi)
    keep = lambda e: e[0] <= max_weight and e[1] + e[2] <= qt_cap
    diagonal, boxes = hook_vectors(pi, max_weight)
    total = series.product([((sum(v), 0, 0), -1) for v in diagonal], 3, keep)
    for v in boxes:
        total = series.mul(total, pochhammer_ratio((sum(v),), max_weight, qt_cap), keep)
    return total


def qt_borodin_lhs(pi, max_weight, qt_cap):
    """Sum of z^|c| times the expanded weight over all small enough c.

    Both the z-grade |mu^1| + ... + |mu^T| and weight_function are cyclic sums
    of per-step tables, so rotating pi together with each CPP changes
    neither; the sum is taken once per necklace(pi), max_weight and qt_cap
    (see _necklace_weights).  Each call returns a fresh dict.
    """
    check_profile(pi)
    return dict(_necklace_weights(necklace(pi), max_weight, qt_cap))


@lru_cache(maxsize=None)
def _necklace_weights(neck, max_weight, qt_cap):
    """qt_borodin_lhs over the greatest rotation neck, as a tuple of items
    cached for the process.

    The CPPs are tallied by weight and |c| first, so each distinct weight is
    expanded once and added at each |c| times the number of CPPs there."""
    tally = {}
    for seq in enumerate_cpps(neck, max_weight):
        sizes = tally.setdefault(frozenset(weight_function(neck, seq).items()), {})
        w = cpp_weight(seq)
        sizes[w] = sizes.get(w, 0) + 1
    return tuple(series.accumulate(
        ((w,) + qt, n * c)
        for fp, sizes in tally.items()
        for qt, c in fp_expand(dict(fp), qt_cap).items()
        for w, n in sizes.items()
    ).items())


def collapse_t_to_q(series3):
    """Set t = q in a (z, q, t) series."""
    return series.accumulate(((w, q + t, 0), c) for (w, q, t), c in series3.items())
