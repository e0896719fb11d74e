"""Non-intersecting lattice paths on a cylinder and their cubes: the
definition of the peak/valley alphabet, kept as the tests' oracle for
paths.dc_alphabet and for the profile round trip of partitions.minimal_profile.

A family is a list of (y0, steps) pairs ordered bottom to top; steps is a
string over '0'/'1', '1' meaning y increases by one.  Vertices of the lattice
have x and y of equal parity; the vertical reading at x recovers the boundary
profile of one layer of the corresponding cylindric plane partition
(occupied vertex = '1').

Also here: the local commutation of valley insertions (cylindric.up_step),
which no command checks.
"""

from partition_forge.cylindric import up_step, validate_cpp
from partition_forge.partitions import conjugate, minimal_profile


def partition_of_profile(p):
    """Partition cut out by a profile string; inverse of partitions.profile()."""
    zpos = [i for i, b in enumerate(p, 1) if b == "0"]
    n = len(zpos)
    la = tuple(zpos[n - k] - (n - k + 1) for k in range(1, n + 1))
    return tuple(a for a in la if a > 0)


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


def local_commutation_check(pi, seq, i, j, mi, mj):
    """Insertions at two disjoint valleys commute."""
    if i == j or not all(1 <= k < len(pi) and pi[k - 1 : k + 1] == "01" for k in (i, j)):
        raise AssertionError("no valleys at %d and %d of %r" % (i, j, pi))
    s1 = up_step(up_step(seq, i, mi), j, mj)
    if s1 != up_step(up_step(seq, j, mj), i, mi):
        raise AssertionError("insertions at %d and %d do not commute" % (i, j))
    return s1
