"""Independent reference values for the benchmark's output checks.

Pure standard library: nothing here imports tfpoly, so a check never
shares code with the layer a request times.  Routes:

* Tutte polynomial by deletion-contraction on edge lists; tension,
  flow, chromatic and Whitney polynomials and the `tutte-values`
  quadrants as its specialisations.
* omega and the modular psi family by subset expansions over a rank
  table computed here.
* The integral psi family by the convolution
  psi_z = sum_X z^|E-X| w^|X| tau_Z(G/X; x) phi_Z(G|X; y), with the
  integral polynomials of the minors counted by brute force over
  potentials (tensions) and co-forest values (flows) and interpolated.
* The closed (`--dual`) sums by sign reciprocity against the open ones.

A polynomial is a dict from a key, the sorted tuple of (variable,
exponent) pairs with non-zero exponent, to a Fraction coefficient.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb

# -- polynomials ---------------------------------------------------------------


def _key(pairs) -> tuple:
    return tuple(sorted((v, e) for v, e in pairs if e))


def poly_add(acc: dict, key: tuple, coeff) -> None:
    value = acc.get(key, 0) + coeff
    if value:
        acc[key] = value
    else:
        acc.pop(key, None)


def poly_from_json(payload: dict) -> dict:
    """Canonical form of a tfpoly `--json` polynomial payload."""
    names = payload["variables"]
    out: dict = {}
    for item in payload["poly"]:
        poly_add(out, _key(zip(names, item["exps"])), Fraction(item["coeff"]))
    return out


def univariate(coeffs: dict, var: str) -> dict:
    """{exponent: coefficient} -> canonical polynomial in `var`."""
    out: dict = {}
    for e, c in coeffs.items():
        poly_add(out, _key([(var, e)]), Fraction(c))
    return out


def _shift_one_minus(coeffs: dict) -> dict:
    """p(1 - t) for p given as {exponent: coefficient}."""
    out: dict = {}
    for i, c in coeffs.items():
        for k in range(i + 1):
            out[k] = out.get(k, 0) + c * comb(i, k) * (-1) ** k
    return {k: c for k, c in out.items() if c}


def interpolate(samples: list[tuple[int, int]]) -> dict:
    """Coefficients {exponent: Fraction} of the polynomial through the samples."""
    coeffs = [Fraction(0)] * len(samples)
    for i, (ti, vi) in enumerate(samples):
        basis = [Fraction(1)]
        denom = 1
        for j, (tj, _) in enumerate(samples):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                nxt[k + 1] += b
                nxt[k] -= b * tj
            basis = nxt
            denom *= ti - tj
        for k, b in enumerate(basis):
            coeffs[k] += b * vi / denom
    return {k: c for k, c in enumerate(coeffs) if c}


# -- graphs ----------------------------------------------------------------------


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def rank_of(n: int, edges) -> int:
    parent = list(range(n))
    r = 0
    for a, b in edges:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            r += 1
    return r


def rank_table(n: int, edges) -> list[int]:
    """r(X) for every edge subset X, as a list indexed by bit mask."""
    m = len(edges)
    ranks = [0] * (1 << m)
    labels: list = [tuple(range(n))] + [None] * ((1 << m) - 1)
    for mask in range(1, 1 << m):
        low = mask & -mask
        prev = mask ^ low
        a, b = edges[low.bit_length() - 1]
        lab = labels[prev]
        la, lb = lab[a], lab[b]
        if la == lb:
            ranks[mask] = ranks[prev]
            labels[mask] = lab
        else:
            ranks[mask] = ranks[prev] + 1
            labels[mask] = tuple(la if x == lb else x for x in lab)
    return ranks


def _normalise(edges) -> tuple:
    """Relabel vertices by first appearance and drop edge directions."""
    names: dict[int, int] = {}
    out = []
    for a, b in edges:
        a = names.setdefault(a, len(names))
        b = names.setdefault(b, len(names))
        out.append((a, b) if a <= b else (b, a))
    return tuple(out)


def _connected(a: int, b: int, edges) -> bool:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {a}
    stack = [a]
    while stack:
        u = stack.pop()
        if u == b:
            return True
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


@functools.lru_cache(maxsize=None)
def _tutte(edges: tuple) -> dict:
    if not edges:
        return {(0, 0): 1}
    (a, b), rest = edges[0], edges[1:]
    merged = _normalise((a if u == b else u, a if v == b else v) for u, v in rest)
    if a == b:
        return {(i, j + 1): c for (i, j), c in _tutte(_normalise(rest)).items()}
    if not _connected(a, b, rest):
        return {(i + 1, j): c for (i, j), c in _tutte(merged).items()}
    out = dict(_tutte(_normalise(rest)))
    for k, c in _tutte(merged).items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


class Graph:
    """A multigraph as a vertex count and a list of (tail, head) pairs."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = [tuple(e) for e in edges]
        self.m = len(self.edges)
        self.r = rank_of(n, self.edges)
        self.nullity = self.m - self.r
        self.components = n - self.r

    @functools.cached_property
    def ranks(self) -> list[int]:
        return rank_table(self.n, self.edges)

    @functools.cached_property
    def tutte(self) -> dict:
        """{(i, j): c} with T = sum c x^i y^j."""
        return _tutte(_normalise(self.edges))

    def tutte_at(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for (i, j), c in self.tutte.items())

    def tutte_poly(self) -> dict:
        return {_key([("x", i), ("y", j)]): Fraction(c) for (i, j), c in self.tutte.items()}

    def whitney(self) -> dict:
        """R(x, y) = T(x + 1, y + 1)."""
        out: dict = {}
        for (i, j), c in self.tutte.items():
            for a in range(i + 1):
                for b in range(j + 1):
                    poly_add(out, _key([("x", a), ("y", b)]), Fraction(c * comb(i, a) * comb(j, b)))
        return out

    def _tension_coeffs(self) -> dict:
        """tau(t) = (-1)^r T(1 - t, 0), as {exponent: coefficient}."""
        sign = -1 if self.r & 1 else 1
        return _shift_one_minus({i: sign * c for (i, j), c in self.tutte.items() if j == 0})

    def tension(self) -> dict:
        return univariate(self._tension_coeffs(), "t")

    def flow(self) -> dict:
        """phi(t) = (-1)^n T(0, 1 - t)."""
        sign = -1 if self.nullity & 1 else 1
        return univariate(_shift_one_minus({j: sign * c for (i, j), c in self.tutte.items() if i == 0}), "t")

    def chromatic(self) -> dict:
        """P(t) = t^c tau(t)."""
        return univariate({k + self.components: c for k, c in self._tension_coeffs().items()}, "t")

    @functools.cached_property
    def omega(self) -> dict:
        """sum_X (-1)^|X| x^(r - r<X>) y^(n<E - X>)."""
        ranks = self.ranks
        full = (1 << self.m) - 1
        counts: dict[tuple[int, int], int] = {}
        for mask in range(1 << self.m):
            comp = full ^ mask
            key = (self.r - ranks[mask], comp.bit_count() - ranks[comp])
            counts[key] = counts.get(key, 0) + (-1 if mask.bit_count() & 1 else 1)
        out: dict = {}
        for (i, j), c in counts.items():
            poly_add(out, _key([("x", i), ("y", j)]), Fraction(c))
        return out

    def omega_at(self, p: int, q: int) -> int:
        value = Fraction(0)
        for k, c in self.omega.items():
            exps = dict(k)
            value += c * p ** exps.get("x", 0) * q ** exps.get("y", 0)
        return int(value)

    def basis_count(self) -> int:
        """T(1, 1): edge subsets that are maximal forests."""
        return sum(1 for mask, r in enumerate(self.ranks) if r == self.r and mask.bit_count() == r)

    # -- the psi family ----------------------------------------------------------

    @functools.cached_property
    def psi(self) -> dict:
        """sum_X z^|E-X| w^|X| tau(G/X; x) phi(G|X; y), modular polynomials
        of the minors by subset expansion over this graph's rank table."""
        ranks = self.ranks
        full = (1 << self.m) - 1
        out: dict = {}
        for x_mask in range(1 << self.m):
            rest = full ^ x_mask
            tau: dict[int, int] = {}
            for a in _submasks(rest):
                i = self.r - ranks[a | x_mask]
                tau[i] = tau.get(i, 0) + (-1 if a.bit_count() & 1 else 1)
            phi: dict[int, int] = {}
            size = x_mask.bit_count()
            for s in _submasks(x_mask):
                j = s.bit_count() - ranks[s]
                phi[j] = phi.get(j, 0) + (-1 if (size - s.bit_count()) & 1 else 1)
            zw = [("z", rest.bit_count()), ("w", size)]
            for i, ci in tau.items():
                if ci:
                    for j, cj in phi.items():
                        if cj:
                            poly_add(out, _key(zw + [("x", i), ("y", j)]), Fraction(ci * cj))
        return out

    @functools.cached_property
    def psi_integral(self) -> dict:
        """The same convolution with the integral polynomials of the minors."""
        full = (1 << self.m) - 1
        out: dict = {}
        for x_mask in range(1 << self.m):
            inside = [self.edges[e] for e in range(self.m) if x_mask >> e & 1]
            outside = [self.edges[e] for e in range(self.m) if not x_mask >> e & 1]
            parent = list(range(self.n))
            for a, b in inside:
                ra, rb = _find(parent, a), _find(parent, b)
                if ra != rb:
                    parent[ra] = rb
            contracted = [(_find(parent, a), _find(parent, b)) for a, b in outside]
            tau = integral_tension_poly(contracted)
            if not tau:
                continue
            phi = integral_flow_poly(inside)
            zw = [("z", (full ^ x_mask).bit_count()), ("w", len(inside))]
            for i, ci in tau.items():
                for j, cj in phi.items():
                    poly_add(out, _key(zw + [("x", i), ("y", j)]), ci * cj)
        return out


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def reciprocal(poly: dict, nullity: int) -> dict:
    """Closed sum from the open one: bar(x,y,z,w) = (-1)^n open(-x,-y,-z,w)."""
    out: dict = {}
    for k, c in poly.items():
        flips = sum(e for v, e in k if v in ("x", "y", "z")) + nullity
        poly_add(out, k, -c if flips & 1 else c)
    return out


def at_z_w_one(poly: dict) -> dict:
    out: dict = {}
    for k, c in poly.items():
        poly_add(out, tuple((v, e) for v, e in k if v not in ("z", "w")), c)
    return out


# -- integral counts of small minors -------------------------------------------------


def _canonical(edges) -> tuple:
    """Key of an undirected multigraph, the same for isomorphic graphs of
    up to 6 vertices (larger ones keep their labels)."""
    edges = _normalise(edges)
    n = 1 + max((max(e) for e in edges), default=-1)
    if n > 6:
        return (n, tuple(sorted(edges)))
    best = None
    for perm in itertools.permutations(range(n)):
        cand = tuple(sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges))
        if best is None or cand < best:
            best = cand
    return (n, best)


def integral_tension_poly(edges) -> dict:
    """{exponent: coefficient} of #{integer tensions with 0 < |f| < x}."""
    if any(a == b for a, b in edges):
        return {}
    simple = {(min(a, b), max(a, b)) for a, b in edges}
    return _integral_tension_poly(_canonical(simple))


@functools.lru_cache(maxsize=None)
def _integral_tension_poly(canon: tuple) -> dict:
    n, edges = canon
    r = rank_of(n, edges)
    samples = [(t, _count_tensions(n, edges, t)) for t in range(1, r + 2)]
    return interpolate(samples)


def _count_tensions(n: int, edges, t: int) -> int:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order: list[tuple[int, int]] = []  # (vertex, bfs parent or -1)
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        order.append((root, -1))
        for u in queue:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
                    order.append((v, u))
    pot = [0] * n
    placed = [False] * n
    steps = [d for d in range(1, t) for d in (d, -d)]

    def place(i: int) -> int:
        if i == len(order):
            return 1
        v, par = order[i]
        if par < 0:
            choices = [0]
        else:
            choices = [pot[par] + d for d in steps]
        total = 0
        placed[v] = True
        for value in choices:
            if all(not placed[w] or w == v or 0 < abs(value - pot[w]) < t for w in adj[v]):
                pot[v] = value
                total += place(i + 1)
        placed[v] = False
        return total

    return place(0)


def integral_flow_poly(edges) -> dict:
    """{exponent: coefficient} of #{integer flows with 0 < |g| < y}."""
    loops = sum(1 for a, b in edges if a == b)
    rest = [(a, b) for a, b in edges if a != b]
    base = _integral_flow_poly(_canonical(rest))
    # each loop carries any non-zero value in the window: 2(y - 1) choices
    out = {0: Fraction(1)}
    for _ in range(loops):
        nxt: dict[int, Fraction] = {}
        for k, c in out.items():
            nxt[k + 1] = nxt.get(k + 1, 0) + 2 * c
            nxt[k] = nxt.get(k, 0) - 2 * c
        out = nxt
    result: dict[int, Fraction] = {}
    for i, ci in base.items():
        for k, ck in out.items():
            result[i + k] = result.get(i + k, 0) + ci * ck
    return {k: c for k, c in result.items() if c}


@functools.lru_cache(maxsize=None)
def _integral_flow_poly(canon: tuple) -> dict:
    n, edges = canon
    nullity = len(edges) - rank_of(n, edges)
    samples = [(t, _count_flows(n, edges, t)) for t in range(1, nullity + 2)]
    return interpolate(samples)


def _count_flows(n: int, edges, t: int) -> int:
    parent = list(range(n))
    forest, coforest = [], []
    for e, (a, b) in enumerate(edges):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            forest.append(e)
        else:
            coforest.append(e)
    # signed fundamental circuit of each co-forest edge, over forest edges
    tree_adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for e in forest:
        a, b = edges[e]
        tree_adj[a].append((b, e, 1))
        tree_adj[b].append((a, e, -1))
    circuits = []
    for e in coforest:
        a, b = edges[e]
        # path b -> a in the forest closes the circuit a -> b -> a
        prev = {b: None}
        stack = [b]
        while stack:
            u = stack.pop()
            for v, f, s in tree_adj[u]:
                if v not in prev:
                    prev[v] = (u, f, s)
                    stack.append(v)
        vec = {}
        v = a
        while prev[v] is not None:
            u, f, s = prev[v]
            vec[f] = vec.get(f, 0) + s
            v = u
        circuits.append(vec)
    steps = [d for d in range(1, t) for d in (d, -d)]
    total = 0
    for combo in itertools.product(steps, repeat=len(coforest)):
        vals = dict.fromkeys(forest, 0)
        for vec, c in zip(circuits, combo):
            for f, s in vec.items():
                vals[f] += s * c
        if all(0 < abs(v) < t for v in vals.values()):
            total += 1
    return total
