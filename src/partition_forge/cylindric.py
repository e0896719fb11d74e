"""Cylindric plane partitions over a cyclic binary profile.

A cylindric plane partition over the profile pi (a string of '0'/'1' of
length T) is a sequence seq = (mu^0, ..., mu^T) of partitions with
mu^0 == mu^T where mu^k/mu^(k-1) is a horizontal strip when pi[k] == '1' and
mu^(k-1)/mu^k is one when pi[k] == '0'.

The companion objects are labelled cylindric diagrams: finite sets of boxes
(i, j, w) of the cylindric diagram of pi carrying positive integer labels,
where i indexes a '1' of pi, j a '0', w is the winding number and the hook of
the box is j - i + w*T.
"""

from functools import lru_cache

from . import series
from .partitions import (
    hstrips_down,
    hstrips_up,
    is_horizontal_strip,
    partitions_upto,
)
from .correspondences import burge_down, burge_up


def check_profile(pi):
    if not pi or not set(pi) <= {"0", "1"}:
        raise AssertionError("malformed profile %r" % (pi,))
    return pi


def rotate_profile(pi):
    """sigma(pi)[i] = pi[i+1], cyclically."""
    return pi[1:] + pi[0]


def reverse_complement(pi):
    """pi read backwards with '0' and '1' swapped."""
    return pi[::-1].translate(str.maketrans("01", "10"))


def necklace(pi):
    """The greatest rotation of pi, one name for its rotation class.

    On a mixed profile it starts with '1' and ends with '0': a '1' at the
    end would make the rotation one place back greater.
    """
    return max(pi[k:] + pi[:k] for k in range(len(pi)))


def check_closed(pi, seq):
    """seq as a tuple of tuples, once it is checked to close up after the
    len(pi) steps; the steps themselves are not checked."""
    T = len(pi)
    if len(seq) != T + 1 or seq[0] != seq[T]:
        raise AssertionError("not a closed sequence of %d steps: %r" % (T, seq))
    return tuple(map(tuple, seq))


def step_strip(letter, before, after):
    """(outer, inner) of the horizontal strip that the step before -> after
    must be: after/before on a '1', before/after on a '0'."""
    return (after, before) if letter == "1" else (before, after)


def validate_cpp(pi, seq):
    seq = check_closed(pi, seq)
    for k in range(1, len(pi) + 1):
        if not is_horizontal_strip(*step_strip(pi[k - 1], seq[k - 1], seq[k])):
            raise AssertionError((pi, seq, k))
    return seq


def cpp_weight(seq):
    """Total number of boxes: |mu^1| + ... + |mu^T|."""
    return sum(sum(mu) for mu in seq[1:])


def cpp_refined_weight(seq):
    return tuple(sum(mu) for mu in seq[1:])


def next_shapes(letter, mu, room):
    """The partitions la of size at most room that may follow mu on a step of
    the given letter: la/mu a horizontal strip on a '1', mu/la on a '0'."""
    if letter == "1":
        return hstrips_up(mu, room) if room >= sum(mu) else ()
    down = hstrips_down(mu)
    return down if sum(mu) <= room else [la for la in down if sum(la) <= room]


def enumerate_cpps(pi, max_weight):
    """All cylindric plane partitions over pi of weight at most max_weight.

    Built one step at a time by next_shapes, base by base, as _closed_walks
    counts them: each prefix (mu^0, ..., mu^k) carries its weight, which
    counts |mu^T| = |mu^0| from the start, and a prefix (mu^0, ..., mu^(T-1))
    is kept when the last step of pi can land on mu^0.
    """
    check_profile(pi)
    cpps = []
    for mu0 in partitions_upto(max_weight):
        prefixes = [((mu0,), sum(mu0))]
        for letter in pi[:-1]:
            prefixes = [
                (seq + (la,), w + sum(la))
                for seq, w in prefixes
                for la in next_shapes(letter, seq[-1], max_weight - w)
            ]
        cpps += [
            seq + (mu0,)
            for seq, _ in prefixes
            if is_horizontal_strip(*step_strip(pi[-1], seq[-1], mu0))
        ]
    return cpps


# ---------------------------------------------------------------------------
# labelled cylindric diagrams


def box_hook(pi, box):
    i, j, w = box
    return j - i + w * len(pi)


def is_valid_box(pi, box):
    T = len(pi)
    i, j, w = box
    if not (1 <= i <= T and 1 <= j <= T):
        return False
    if pi[i - 1] != "1" or pi[j - 1] != "0":
        return False
    return w >= (1 if j < i else 0)


def validate_alcd(pi, labels):
    check_profile(pi)
    for box, m in labels.items():
        if not is_valid_box(pi, box) or m <= 0:
            raise AssertionError((pi, box, m))
    return dict(labels)


def alcd_weight(pi, labels):
    return sum(m * box_hook(pi, box) for box, m in labels.items())


def normalize_box(a, b, T):
    """Cover coordinates (a, b) -> canonical (i, j, w) with 1 <= i <= T."""
    r = (a - 1) // T
    a -= r * T
    b -= r * T
    w, j = divmod(b - 1, T)
    return (a, j + 1, w)


def cylindric_boxes(pi, max_hook):
    """Boxes (i, j, w) with hook at most max_hook, by winding, then i, then j."""
    T = len(pi)
    # hooks are j - i + w*T with j - i >= 1 - T, so windings can reach one
    # past max_hook // T before the hook exceeds the budget
    for w in range(max_hook // T + 2):
        for i in range(1, T + 1):
            for j in range(1, T + 1):
                box = (i, j, w)
                if is_valid_box(pi, box) and box_hook(pi, box) <= max_hook:
                    yield box


def enumerate_alcds(pi, max_weight):
    """All label assignments of total weight at most max_weight, one box at a
    time: label 0 leaves the box out."""
    check_profile(pi)
    partial = [((), 0)]
    for box in cylindric_boxes(pi, max_weight):
        h = box_hook(pi, box)
        partial = [
            (acc + ((box, m),) if m else acc, used + m * h)
            for acc, used in partial
            for m in range((max_weight - used) // h + 1)
        ]
    return [dict(acc) for acc, _ in partial]


# ---------------------------------------------------------------------------
# the weight-preserving bijection


def down_step(seq, i):
    """Column deletion at the linear peak i; returns (label, new seq)."""
    seq = list(seq)
    m, seq[i] = burge_down(seq[i - 1], seq[i + 1], seq[i])
    return m, tuple(seq)


def up_step(seq, i, m):
    """Column insertion of the label m at the linear valley i."""
    seq = list(seq)
    seq[i] = burge_up(seq[i - 1], seq[i + 1], m, seq[i])
    return tuple(seq)


def first_descent(pi):
    """Leftmost linear peak, or None."""
    return pi.find("10") + 1 or None


def sort_steps(pi):
    """The schedule that sorts pi around the cylinder, without end.

    At the leftmost linear peak i it swaps the two letters and yields (i, box);
    otherwise it rotates the profile one place and yields (None, None).  Each
    letter keeps its coordinate on the cover, which grows by T each time the
    letter rotates to the back, and box is named by the coordinates of the
    swapped '1' and '0'.  The boxes depend on pi alone, so phi and psi walk
    the same schedule.
    """
    T = len(pi)
    coords = list(range(1, T + 1))
    while True:
        i = first_descent(pi)
        if i is None:
            pi = rotate_profile(pi)
            coords = coords[1:] + [coords[0] + T]
            yield None, None
        else:
            pi = pi[: i - 1] + "01" + pi[i + 1 :]
            coords[i - 1], coords[i] = coords[i], coords[i - 1]
            yield i, normalize_box(coords[i], coords[i - 1], T)


def phi(pi, seq):
    """Cylindric plane partition -> (base partition, labelled diagram)."""
    seq = validate_cpp(pi, seq)
    T = len(pi)
    limit = (cpp_weight(seq) + T + 2) * (2 * T + 2) + 10
    labels = {}
    for done, (i, box) in enumerate(sort_steps(pi)):
        if all(mu == seq[0] for mu in seq):
            return seq[0], labels
        if done == limit:
            raise AssertionError("no end after %d steps" % limit)
        if i is None:
            seq = seq[1:] + seq[1:2]
        else:
            m, seq = down_step(seq, i)
            if m:
                labels[box] = m


def psi(pi, gamma, labels):
    """(base partition, labelled diagram) -> cylindric plane partition."""
    labels = validate_alcd(pi, labels)
    T = len(pi)
    limit = (alcd_weight(pi, labels) + T + 2) * (2 * T + 2) + 10
    todo, steps = set(labels), []
    for i, box in sort_steps(pi):
        if not todo:
            break
        if len(steps) == limit:
            raise AssertionError("no end after %d steps" % limit)
        todo.discard(box)
        steps.append((i, labels.get(box, 0)))
    seq = (gamma,) * (T + 1)
    for i, m in reversed(steps):
        seq = (seq[-2],) + seq[:-1] if i is None else up_step(seq, i, m)
    return validate_cpp(pi, seq)


# ---------------------------------------------------------------------------
# the unrefined product identity


def borodin_lhs(pi, max_weight, base=None):
    """Coefficient list: number of cylindric plane partitions by weight.

    Only those with mu^0 == base when a base is given.  A CPP is a closed
    walk mu^0 -> mu^1 -> ... -> mu^T = mu^0 of horizontal strips, so the count
    is a transfer-matrix sum: for each base, walks that reach the same state
    (mu^k, weight so far) are added up, and those that step back onto mu^0 are
    counted.  No CPP is built; the weight budget prunes as in enumerate_cpps.

    Without a base the count depends on pi only up to rotation: the weight
    |mu^1| + ... + |mu^T| is a cyclic sum, so (mu^0, ..., mu^T) over pi and
    (mu^1, ..., mu^T, mu^1) over rotate_profile(pi) weigh the same.  So
    necklace(pi) is walked, cut at the valley after its first "01", or at its
    end when there is none inside it (a mixed necklace ends with '0' and
    starts with '1').  There mu^1 and mu^(T-1) both contain mu^0 = mu^T, so
    every CPP weighs at least min(T, 3)|mu^0| and heavier bases are skipped.
    A pure profile has no valley and is left as it is, but all its mu^k are
    equal and it weighs T|mu^0|, so the same bound holds.  Every valley cut
    gives the same count, but not at the same cost: 10100 at weight 26 walks
    about a fifth faster cut as 10010 than as itself.

    A given base pins mu^0, so that count is never rotated.  Read backwards,
    a CPP over pi is one over reverse_complement(pi): each '1' step up
    becomes a '0' step down and the other way round, while mu^0 and the
    weight stay.  So the lesser of the two is walked, and minimal_profile of
    a shape and of its conjugate share one walk.

    _closed_walks keeps each walk for the process; each call returns a
    fresh list.
    """
    check_profile(pi)
    if base is None:
        neck = necklace(pi)
        cut = neck.find("01") + 1
        bases = partitions_upto(max_weight // min(len(pi), 3))
        return list(_closed_walks(neck[cut:] + neck[:cut], max_weight, bases))
    return list(_closed_walks(min(pi, reverse_complement(pi)), max_weight, (tuple(base),)))


@lru_cache(maxsize=None)
def _closed_walks(pi, max_weight, bases):
    """Closed walks of horizontal strips over pi from each of the bases (a
    tuple), by weight up to max_weight, as a tuple cached for the process."""
    counts = [0] * (max_weight + 1)
    for mu0 in bases:
        if sum(mu0) > max_weight:
            continue
        # a walk's weight counts |mu^T| = |mu^0| from the start
        states = {mu0: {sum(mu0): 1}}
        for step in pi[:-1]:
            nxt = {}
            for mu, walks in states.items():
                for la in next_shapes(step, mu, max_weight - min(walks)):
                    size = sum(la)
                    reached = nxt.setdefault(la, {})
                    for w, n in walks.items():
                        if w + size <= max_weight:
                            reached[w + size] = reached.get(w + size, 0) + n
            states = nxt
        for mu, walks in states.items():
            if is_horizontal_strip(*step_strip(pi[-1], mu, mu0)):
                for w, n in walks.items():
                    counts[w] += n
    return tuple(counts)


def borodin_rhs(pi, max_weight):
    """Expand the hook-product side of the identity up to z^max_weight."""
    diagonal, boxes = hook_vectors(pi, max_weight)
    return series.z_coefficients([(sum(v), -1) for v in diagonal + boxes], max_weight)


def hook_exponent_vector(pi, i, j, winding):
    """Refined exponents of the hook factor for box (i, j, winding).

    The vector lists the exponents of z_1, ..., z_T where z_k tracks |mu^k|;
    the hook z^(j-i+wT) refines to base copies of z_1...z_T with one extra
    along the cyclic arc of variables z_(i+1), ..., z_j.
    """
    T = len(pi)
    hook = j - i + winding * T
    span = (j - i) % T
    base = (hook - span) // T
    exps = [base] * T
    p = (i - 1) % T  # list index of variable z_i, tracking |mu^i|
    for _ in range(span):
        exps[p] += 1
        p = (p + 1) % T
    return tuple(exps)


def alcd_refined_weight(pi, labels):
    """Refined weight of a labelled diagram: the sum of label times
    hook_exponent_vector over its boxes, one entry per z_1, ..., z_T."""
    total = [0] * len(pi)
    for box, m in labels.items():
        for k, e in enumerate(hook_exponent_vector(pi, *box)):
            total[k] += m * e
    return tuple(total)


def hook_vectors(pi, max_weight):
    """Exponent vectors v of the hook-product factors 1/(1 - z^v), as
    (diagonal, boxes): powers of z_1...z_T, then one hook_exponent_vector per
    box by increasing hook (less work to expand than the box order).
    The unrefined product sets every z_k = z, so its exponents are sum(v).
    """
    T = len(pi)
    diagonal = [(n + 1,) * T for n in range(max_weight // T + 1)]
    boxes = [hook_exponent_vector(pi, *box) for box in cylindric_boxes(pi, max_weight)]
    return diagonal, sorted(boxes, key=sum)


def borodin_refined_lhs(pi, max_weight):
    """dict: refined weight vector -> count."""
    return series.accumulate(
        (cpp_refined_weight(seq), 1) for seq in enumerate_cpps(pi, max_weight)
    )


def borodin_refined_rhs(pi, max_weight):
    diagonal, boxes = hook_vectors(pi, max_weight)
    return series.product_by_degree([(v, -1) for v in diagonal + boxes], len(pi), max_weight)
