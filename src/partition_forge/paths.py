"""Non-intersecting lattice paths on a cylinder and their cubes.

A family is a list of (y0, steps) pairs ordered bottom to top; steps is a
string over '0'/'1', '1' meaning y increases by one.  Vertices of the lattice
have x and y of equal parity; the vertical reading at x recovers the boundary
profile of one layer of the corresponding cylindric plane partition
(occupied vertex = '1').
"""

from functools import lru_cache

from . import series
from .partitions import conjugate, minimal_profile, partition_of_profile
from .cylindric import check_closed, validate_cpp


def path_points(path):
    y0, steps = path
    ys = [y0]
    for s in steps:
        ys.append(ys[-1] + (1 if s == "1" else -1))
    return ys


def cpp_to_paths(pi, seq):
    """Cylindric plane partition -> minimal family of paths."""
    seq = validate_cpp(pi, seq)
    T = len(pi)
    m = max(mu[0] if mu else 0 for mu in seq) + 1
    base = minimal_profile(seq[0])
    base += "1" * (m - base.count("1"))
    taus = [p for p, b in enumerate(base, 1) if b == "1"]
    conjs = [conjugate(mu) for mu in seq]

    def col(k, i):
        c = conjs[k]
        return c[i - 1] if i <= len(c) else 0

    paths = []
    for i in range(1, m + 1):
        ups = [col(k, i) - col(k - 1, i) + 1 - int(pi[k - 1]) for k in range(1, T + 1)]
        if any(u not in (0, 1) for u in ups):
            raise AssertionError("path %d takes a step of %r" % (i, ups))
        steps = "".join(str(u) for u in reversed(ups))
        paths.append((2 * taus[i - 1], steps))
    return paths


def occupancy(paths, x):
    ys = [path_points(p)[x] for p in paths]
    if len(set(ys)) != len(ys):
        raise AssertionError("intersecting paths")
    return ys


def vertical_reading(paths, x):
    """Occupation string at x, read bottom to top; '1' = occupied."""
    ys = occupancy(paths, x)
    lo, hi = min(ys), max(ys)
    occ = set(ys)
    return "".join("1" if y in occ else "0" for y in range(lo, hi + 1, 2))


def paths_to_cpp(pi, paths):
    """Recover the cylindric plane partition from its minimal path family."""
    T = len(pi)
    for y0, steps in paths:
        if y0 % 2 or len(steps) != T:
            raise AssertionError("path %r does not fit length %d" % ((y0, steps), T))
    layers = [
        partition_of_profile(vertical_reading(paths, x)) for x in range(T + 1)
    ]
    if layers[0] != layers[T]:
        raise AssertionError("paths do not close up: %r != %r" % (layers[0], layers[T]))
    # the vertical at x carries the layer mu^(T-x)
    seq = tuple(layers[(T - k) % T] for k in range(T)) + (layers[T],)
    return validate_cpp(pi, seq)


def classify_cubes(pi, paths):
    """All cubes (x, y1, y2) with arm, leg, level and class flags, by x, then
    y2, then y1.

    At x the window runs over the sites from the lowest path to the highest.
    A cube pairs an occupied y1 with an empty y2 above it; its arm counts the
    occupied sites strictly between them and its leg the empty ones.
    """
    out = []
    for x in range(len(pi)):
        ys = occupancy(paths, x)
        window = range(min(ys), max(ys) + 1, 2)
        for y2 in window:
            if y2 in ys:
                continue
            for y1 in window:
                if y1 >= y2 or y1 not in ys:
                    continue
                between = [y in ys for y in window if y1 < y < y2]
                arm = sum(between)
                steps = paths[ys.index(y1)][1]
                # steps[-1] is the step into x = 0 around the cylinder
                incoming, outgoing = steps[x - 1], steps[x]
                out.append(
                    {
                        "x": x,
                        "y1": y1,
                        "y2": y2,
                        "arm": arm,
                        "leg": len(between) - arm,
                        # a path dipping to a local minimum carries a peak cube
                        "peak": incoming == "0" and outgoing == "1",
                        "valley": incoming == "1" and outgoing == "0",
                        "surface": arm == 0,
                        "level": y2 - y1,
                    }
                )
    return out


@lru_cache(maxsize=None)
def _layer_alphabet(step_in, step_out, before, mu, after):
    """Peak-minus-valley terms of the cubes at the vertical that carries mu,
    in a CPP that runs before -> mu -> after with profile letters step_in,
    then step_out: a tuple of ((arm, leg), coefficient) pairs.

    There the sites read the profile of mu padded with ones, and the path
    through the i-th occupied site is column i of mu.  The paths run against
    the CPP: with c = conjugate, the path's step from the vertical of `after`
    to this one is c_i(after) - c_i(mu), and its step on to the vertical of
    `before` is c_i(mu) - c_i(before), each plus one on a '0' letter.  Both
    are 0 or 1 exactly when the two CPP steps are horizontal strips; the
    table raises otherwise.  The cubes of column i are its boxes in mu,
    counted +1 where the path dips to a local minimum (steps 0, then 1: a
    peak) and -1 where it tops out (1, then 0: a valley).  Cached for the
    process.
    """
    conjs = [conjugate(la) for la in (before, mu, after)]
    width = max(map(len, conjs))
    cb, cm, ca = (c + (0,) * (width - len(c)) for c in conjs)
    pairs = []
    for i in range(width):
        into = cm[i] - cb[i] + (step_in != "1")
        out = ca[i] - cm[i] + (step_out != "1")
        if into not in (0, 1) or out not in (0, 1):
            raise AssertionError("column %d steps %r, %r" % (i + 1, into, out))
        if into != out:
            pairs += [((mu[r] - i - 1, cm[i] - r - 1), into - out) for r in range(cm[i])]
    return tuple(series.accumulate(pairs).items())


def dc_alphabet(pi, seq):
    """Peak-minus-valley alphabet: dict (arm, leg) -> integer coefficient.

    The sum over the verticals of the per-layer table; by definition it is
    the sum over classify_cubes(pi, cpp_to_paths(pi, seq)), which the tests
    check.
    """
    seq = check_closed(pi, seq)
    T = len(pi)
    return series.accumulate(
        pair
        for k in range(1, T + 1)
        for pair in _layer_alphabet(
            pi[k - 1], pi[k % T], seq[k - 1], seq[k], seq[k % T + 1]
        )
    )
