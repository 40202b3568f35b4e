"""Joint CPU-frequency, resource-block and power optimization.

The round objective U - eta1*E - eta2*T separates into a computation part
(frequency control, solved in closed form) and a communication part (RB
matching plus power control, solved by the iterative matching/power/delay
loop).  Devices are rows: the scores ``u`` and the fields of
``ComputeProfile`` / ``RadioProfile`` are aligned arrays, one entry per
device, and a matching is a pair of index arrays ``(rows, rbs)``: row
``rows[k]`` sends on RB ``rbs[k]``.  All solvers are deterministic; ties are
broken by the lower row.

The RB matching needs no general assignment solver on its hot path: every
device ranks the RBs alike (by ascending noise), so a dynamic program over
rows sorted by channel gain proposes the matching, and an exchange argument
or an LP-duality certificate proves it optimal.  ``min_cost_assignment``, a
shortest-augmenting-path solver, runs only when the certificate fails.

A run keeps one environment, so what no round changes is built once, in
the run's allocation plan before round 0, and passed in: SP1's solution
(it reads no score) and the ``Uplink``, which holds the matching's fixed
pieces (the n + 1 quietest RBs and their noise, the rows' gains and caps,
the rows in h order), IVES's starting delay and the RBs priced at it,
where every round's first matching is made.  IVES stops as soon as a
matching repeats the previous iteration's with a finite g2: the powers,
rates and g2 would come out the same, and the loop would stop on their
zero change.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .wireless import ComputeProfile, NetworkConfig, RadioProfile

IVES_EPS = 1e-9
IVES_MAX_ITERS = 50
F4_NEWTON_STEPS = 12                # pinned by the f4_zero accuracy property test


@dataclass(frozen=True)
class Sp1Solution:
    """The frequency sub-problem's solution: every row's CPU frequency and its cost."""

    nu: np.ndarray          # CPU frequency of every row
    objective: float


@dataclass
class Sp2Solution:
    """IVES's best matching, powers and delay, its g2 value and its iteration trace."""

    rows: np.ndarray        # matched rows, ascending
    z: np.ndarray           # RB of each matched row
    p: np.ndarray           # power of each matched row
    delta: float
    objective: float
    iterations: int
    trace: list[float] = field(default_factory=list)


def g1_objective(
    work: np.ndarray, iota: np.ndarray, nu: np.ndarray, weights: tuple[float, float]
) -> float:
    """eta1 * sum (iota/2) w nu^2 + eta2 * max w / nu, with work w = c * D per device."""
    eta1, eta2 = weights
    if (nu <= 0).any():
        return math.inf
    return float(eta1 * (0.5 * iota * work * nu * nu).sum() + eta2 * (work / nu).max())


def solve_sp1(compute: ComputeProfile, weights: tuple[float, float]) -> Sp1Solution:
    """Frequencies minimizing g1, in closed form.

    Finishing before the slowest device only costs energy, so at the optimum
    every device runs at nu_i = s * w_i for one common speed s (the inverse
    of the common computation time).  g1 is then
    eta1/2 * s^2 * sum iota w^3 + eta2 / s, minimized at
    s^3 = eta2 / (eta1 * sum iota w^3), and s is capped by min nu_max / w so
    no device exceeds its frequency limit.
    """
    if not compute.c.size:
        raise InvalidInputError("sp1 needs at least one device")
    eta1, eta2 = weights
    if eta1 <= 0 or eta2 <= 0:
        raise InvalidInputError("sp1 requires strictly positive weights")
    work = compute.work
    # weights far apart overflow the quotient to +inf, and the cap then binds
    with np.errstate(over="ignore"):
        unbounded = (eta2 / (eta1 * (compute.iota * work ** 3).sum())) ** (1.0 / 3.0)
    speed = min(unbounded, (compute.nu_max / work).min())
    nu = speed * work
    return Sp1Solution(nu=nu, objective=g1_objective(work, compute.iota, nu, weights))


def min_cost_assignment(weights: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-weight partial matching using only negative-weight edges.

    ``weights`` is an n-by-M matrix; entries that are +inf (or NaN) are
    forbidden.  Rows and columns may stay unmatched: an edge is only worth
    taking if its weight is negative.  Pairs come back by ascending row.

    Solved as a full assignment of the rows to the M columns plus one
    private zero-weight "unmatched" column per row, by shortest augmenting
    paths with row and column duals (Crouse's form of Jonker-Volgenant):
    each row in turn grows a Dijkstra tree over reduced costs until it
    reaches a free column, then flips the path.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise InvalidInputError("weight matrix must be 2-D")
    n, m = weights.shape
    usable = np.isfinite(weights) & (weights < 0)
    if not usable.any():
        return []
    cost = np.full((n, m + n), np.inf)
    cost[:, :m] = np.where(usable, weights, np.inf)
    cost[np.arange(n), m + np.arange(n)] = 0.0
    cols = m + n
    u, v = np.zeros(n), np.zeros(cols)
    col4row = np.full(n, -1)
    row4col = np.full(cols, -1)
    for cur in range(n):
        shortest = np.full(cols, np.inf)
        path = np.full(cols, -1)
        seen_rows = np.zeros(n, dtype=bool)
        seen_cols = np.zeros(cols, dtype=bool)
        low, i, sink = 0.0, cur, -1
        while sink < 0:
            seen_rows[i] = True
            reduced = low + cost[i] - u[i] - v
            closer = ~seen_cols & (reduced < shortest)
            shortest[closer] = reduced[closer]
            path[closer] = i
            # the nearest unseen column; among equals, a free one ends the path
            left = np.where(seen_cols, np.inf, shortest)
            low = left.min()
            ties = np.flatnonzero(left == low)
            free = ties[row4col[ties] < 0]
            j = int(free[0] if free.size else ties[0])
            seen_cols[j] = True
            if row4col[j] < 0:
                sink = j
            else:
                i = int(row4col[j])
        u[cur] += low
        others = seen_rows.copy()
        others[cur] = False
        u[others] += low - shortest[col4row[others]]
        v[seen_cols] -= low - shortest[seen_cols]
        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return [(i, int(j)) for i, j in enumerate(col4row.tolist()) if j < m]


def _in_order_matching(
    cost: list[list[float]], mu: list[list[float]], caps: list[float], order: list[int],
    cols: int,
) -> tuple[list[int], list[int], bool]:
    """Best matching that gives RB ranks 0, 1, 2, ... to rows taken in ``order``.

    ``cost[i][m]`` is row i's negated gain on the RB of noise rank m,
    ``mu[i][m]`` its required power there and ``caps[i]`` its power cap;
    both rise with m, so row i's usable ranks (feasible, gain > 0) are a
    prefix.  A dynamic program over the rows: ``best[j]`` is the largest
    total that gives ranks 0..j-1 to the rows seen so far, the k-th matched
    row on rank k.  Returns the matched rows (the k-th on rank k), every
    row's count of usable ranks, and whether this in-order optimum is
    optimal over all matchings (see ``rb_matching``).  That needs, of the
    rows with a usable rank, each one's feasible count to exceed its
    position among them, or cover all ``cols`` ranks, or reach that of each
    such row before it; and at most one usable pair (b, m) in the cap-slack
    band, where b pays for its cap, less than 1e-9 * mu[b][m] below the
    power it needs.  Such a pair is harmless when m = 0, or when the first
    such row a after b that fits on rank m, if any, gives
    ``(mu[b][m] - mu[b][m-1]) - (mu[a][m] - mu[a][m-1]) > 2e-9 * mu[b][m]``.
    In a matching on the lowest ranks that puts b on m above its in-order
    position, the feasible counts above leave some row after b that fits
    on m below it, and swapping the two gains at least that much, more
    than the band can give; so an optimal matching has b in order.
    """
    best = [0.0] + [-math.inf] * cols
    took = []                           # (row, its feasible count, bitmask of the ranks it improved)
    counts = [0] * len(cost)
    exact, reach, band = True, 0, None
    for i in order:
        row, mu_row, cap = cost[i], mu[i], caps[i]
        # the relative slack absorbs round-off when delta was realized by a
        # device transmitting exactly at its power cap
        fits = bisect.bisect_right(mu_row, cap * (1.0 + 1e-9))
        usable = bisect.bisect_left(row, 0.0, 0, fits)
        if not usable:
            continue
        counts[i] = usable
        t = len(took)
        exact = exact and (fits > t or fits == cols or fits >= reach)
        if fits > reach:
            reach = fits
        if mu_row[usable - 1] > cap:       # a usable pair in the cap-slack band
            exact = exact and band is None and (usable == 1 or mu_row[usable - 2] <= cap)
            band = (i, usable - 1, t)
        # descending j reads each best[j] before this row can change it
        hi = usable if usable <= t else t + 1
        above, mask = best[hi], 0
        for j in range(hi - 1, -1, -1):
            here = best[j]
            c = here - row[j]
            if c > above:
                best[j + 1] = c
                mask |= 1 << j
            above = here
        took.append((i, fits, mask))
    if exact and band and band[1]:
        b, m, t = band
        # of the rows after b that fit on m, the first (least h) gains least by a swap
        a = next((i for i, fits, _ in took[t + 1:] if fits > m), None)
        exact = a is None or (mu[b][m] - mu[b][m - 1]) - (mu[a][m] - mu[a][m - 1]) > 2e-9 * mu[b][m]
    j = best.index(max(best))
    matched = []
    for i, _, mask in reversed(took):
        if j and mask >> (j - 1) & 1:
            matched.append(i)
            j -= 1
    return matched[::-1], counts, exact


def _certified(value: np.ndarray, matched: list[int]) -> bool:
    """Whether giving column q to row ``matched[q]`` (q < s) maximizes the total ``value``.

    ``value[i, m]`` is row i's gain on column m, -inf where the pair is
    forbidden; the columns past s are free.  LP duality for the assignment
    problem: the matching is optimal iff column prices z >= 0 exist, zero
    on the free columns, with ``z_m >= value[i, m]`` for every unmatched row
    i, ``z_m >= z_q + value[i, m] - value[i, q]`` for row i matched on q,
    and ``z_q <= value[i, q]``.  The least such z is a longest-path
    fixpoint from the unmatched rows' bids; a positive cycle means there is
    none, and the matching is not optimal.
    """
    s = len(matched)
    taken = value[matched]
    own = taken.diagonal()
    step = taken - own[:, None]
    unmatched = np.ones(len(value), dtype=bool)
    unmatched[matched] = False
    z = value[unmatched].max(axis=0, initial=0.0)
    down = step.diagonal(-1).tolist()           # column q to q-1
    up = step.diagonal(1).tolist()              # column q to q+1
    for _ in range(z.size + 1):
        # the longest paths mostly run along adjacent matched columns:
        # relax those in order, down then up, before each full pass
        zl = z.tolist()
        for q in range(s - 1, 0, -1):
            zl[q - 1] = max(zl[q - 1], zl[q] + down[q - 1])
        for q in range(len(up)):
            zl[q + 1] = max(zl[q + 1], zl[q] + up[q])
        z = np.array(zl)
        offers = z[:s, None] + step
        if (offers <= z).all():
            return not z[s:].any() and bool((z[:s] <= own).all())
        z = np.maximum(z, offers.max(axis=0))
    return False


def rb_matching(
    u: np.ndarray, uplink: Uplink, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal RB assignment ``(rows, rbs)`` for a given transmission delay.

    mu[i, m] is the power device i needs on RB m to finish the upload in
    exactly delta.  Pairs whose mu exceeds the device cap are forbidden;
    among the rest, the matching maximizes sum of (u_i - eta1*delta*mu_{i,m}).

    mu is a product noise_m * growth / h_i, so every row ranks the RBs by
    ascending noise and its usable RBs form a prefix of that order.  Moving
    a row to a free lower-noise RB keeps it usable and raises its gain, so
    an optimal matching of s rows uses the s lowest-noise RBs, and only the
    n + 1 lowest are built (one past the most that can be matched, for the
    certificate).  A dynamic program (``_in_order_matching``) finds the best
    matching that gives those RBs, in noise order, to rows in ascending h.
    Away from the cap-slack band the cost is a product, so by the
    rearrangement inequality the in-order assignment of a row set is its
    cheapest; the optimum is then in-order whenever the in-order assignment
    of every matchable row set is feasible, which the feasible counts
    checked there guarantee, and a usable pair in the band needs one more
    check.  Otherwise the LP-duality certificate (``_certified``) proves the
    proposal optimal, and if it fails ``min_cost_assignment`` solves the
    built pairs.
    """
    rows, rbs, _ = _rb_matching(u, uplink, delta)
    return rows, rbs


def _rb_matching(
    u: np.ndarray, uplink: Uplink, delta: float
) -> tuple[np.ndarray, np.ndarray, str]:
    """``rb_matching``, and how its optimum was settled.

    The last item is ``"in-order"`` (exact without a certificate),
    ``"certified"`` or ``"solved"`` (by ``min_cost_assignment``).
    """
    if delta <= 0:
        raise InvalidInputError("delta must be positive")
    spend, mu = uplink.prices(delta)
    cost = spend - u[:, None]                                       # -gain
    picked, counts, exact = _in_order_matching(
        cost.tolist(), mu, uplink.caps, uplink.order, uplink.cols)
    s = len(picked)
    how = "in-order"
    if not exact:
        weights = np.where(np.arange(uplink.cols) < np.array(counts)[:, None], cost, np.inf)
        how = "certified" if _certified(-weights[:, :s + 1], picked) else "solved"
    if how == "solved":
        pairs = [(i, uplink.rbs[j]) for i, j in min_cost_assignment(weights)]
    else:
        pairs = sorted(zip(picked, uplink.rbs))
    return (np.array([i for i, _ in pairs], dtype=int),
            np.array([m for _, m in pairs], dtype=int), how)


def f4_zero(b1: float, eta2: float) -> float:
    """Unique zero of f4(p) = b1*((1+p)*ln(1+p) - p) - eta2 on p > 0, in closed form.

    In y = ln(1+p) the condition is g(y) = y*e^y - expm1(y) - r = 0 with
    r = eta2/b1, whose root is y = 1 + W0((r - 1)/e), W0 the principal
    branch of the Lambert W function.  On y > 0, g is increasing and convex
    with g(0) = -r, and g >= 0 both at sqrt(2r) (as g + r >= y^2/2) and at
    1 + log1p(r), so Newton's method from the smaller of the two descends
    monotonically onto the root; its step is written in e^-y so that it
    cannot overflow.  An r that overflows gives +inf, one that underflows 0.
    """
    if b1 <= 0 or eta2 <= 0:
        raise InvalidInputError("f4_zero requires positive b1 and eta2")
    r = eta2 / b1
    if not 0.0 < r < math.inf:
        return r
    y = min(math.sqrt(2.0 * r), 1.0 + math.log1p(r))
    for _ in range(F4_NEWTON_STEPS):
        y -= 1.0 + (math.expm1(-y) - r * math.exp(-y)) / y
    return math.expm1(y)


def solve_sp2_power(
    radios: RadioProfile, rows: np.ndarray, rbs: np.ndarray, net: NetworkConfig
) -> np.ndarray:
    """Powers of a non-empty matching, equalizing the normalized SNR.

    Works in units p~ = h*p/(I_m + B*N0): the common p~ is the f4 zero
    capped by the tightest per-device power limit, then converted back to
    watts per device.
    """
    noise = net.noise[rbs] / radios.h[rows]
    p_tilde = min(
        f4_zero(net.eta1 * float(noise.sum()), net.eta2),
        (radios.p_max[rows] / noise).min(),
    )
    return noise * p_tilde


def g2_objective(
    u: np.ndarray, radios: RadioProfile, rows: np.ndarray, rbs: np.ndarray,
    p: np.ndarray, net: NetworkConfig, rates: np.ndarray | None = None,
) -> float:
    """sum u_i - eta1 * transmission energy - eta2 * max transmission time.

    ``rates`` are the matched rows' upload rates when the caller has them.
    """
    if not rows.size:
        return 0.0
    if rates is None:
        rates = net.rate(radios.h[rows], p, rbs)
    if (rates <= 0).any():
        return -math.inf
    t = net.S / rates
    return float((u[rows] - net.eta1 * t * p).sum() - net.eta2 * t.max())


def initial_delay(radios: RadioProfile, net: NetworkConfig) -> float:
    """Most conservative start: the slowest full-power upload over all device/RB pairs."""
    rates = net.rate(radios.h[:, None], radios.p_max[:, None])
    if (rates <= 0).any():
        row, m = np.argwhere(rates <= 0)[0]
        raise InvalidInputError(f"device row {row} cannot transmit on RB {m}")
    return float((net.S / rates).max())


class Uplink:
    """A run's fixed uplink, as IVES and the RB matching read it, built once.

    The matching builds only the ``cols`` (at most n + 1) quietest RBs:
    ``rbs`` lists them in noise order and ``noise`` holds their noise.
    ``h`` and ``cap`` are the rows' gains and power caps as columns,
    ``caps`` the caps as a list and ``order`` the rows by ascending h.
    ``delta0`` is IVES's starting delay (``initial_delay``), the same in
    every round, and ``first`` the prices there, which every round's first
    matching reads.
    """

    def __init__(self, radios: RadioProfile, net: NetworkConfig):
        self.radios, self.net = radios, net
        rbs = net.rb_order[:radios.h.size + 1]
        self.cols = rbs.size
        self.rbs = rbs.tolist()
        self.noise = net.noise[rbs]
        self.h = radios.h[:, None]
        self.cap = radios.p_max[:, None]
        self.caps = radios.p_max.tolist()
        self.order = radios.h_order.tolist()
        self.delta0 = initial_delay(radios, net)
        self.first = self._prices(self.delta0)

    def prices(self, delta: float) -> tuple[np.ndarray, list[list[float]]]:
        """``eta1*delta*min(mu, cap)`` and ``mu`` (as lists) on the built RBs at ``delta``.

        ``mu[i][m]`` is the power row i needs on the m-th quietest RB to
        finish its upload in exactly delta.
        """
        return self.first if delta == self.delta0 else self._prices(delta)

    def _prices(self, delta: float) -> tuple[np.ndarray, list[list[float]]]:
        exponent = self.net.S / (self.net.B * delta)
        # exp2 overflows from 1024 on; checking here costs less than np.errstate
        growth = np.exp2(exponent) - 1.0 if exponent < 1024.0 else math.inf
        mu = self.noise * growth / self.h
        return self.net.eta1 * delta * np.minimum(mu, self.cap), mu.tolist()


def ives(u: np.ndarray, uplink: Uplink) -> Sp2Solution:
    """Alternate RB matching, power optimization and delay update until g2 settles.

    ``u`` holds every row's (positively shifted) contribution score.
    """
    radios, net = uplink.radios, uplink.net
    if not u.size or net.M < 1:
        raise InvalidInputError("ives needs at least one device and one RB")
    if u.shape != radios.h.shape:
        raise InvalidInputError(f"ives needs one score per device row, got {u.shape}")
    if u.min() <= 0:
        raise InvalidInputError("contribution scores must be shifted positive")
    delta = uplink.delta0
    empty = np.zeros(0, dtype=int)
    best_g2, best = 0.0, (empty, empty, np.zeros(0), delta)  # rows, rbs, p, delta
    trace: list[float] = []
    last = None                         # the previous matching, if its g2 is finite
    for _ in range(IVES_MAX_ITERS):
        rows, rbs = rb_matching(u, uplink, delta)
        if not rows.size:
            trace.append(0.0)
            break
        if last == (pair := (rows.tolist(), rbs.tolist())):
            # the same powers, rates and g2 again: the loop would stop on a zero change
            trace.append(trace[-1])
            break
        p = solve_sp2_power(radios, rows, rbs, net)
        rates = net.rate(radios.h[rows], p, rbs)
        g2 = g2_objective(u, radios, rows, rbs, p, net, rates)
        trace.append(g2)
        delta_next = float((net.S / rates).max())
        if g2 > best_g2:
            best_g2, best = g2, (rows, rbs, p, delta_next)
        if len(trace) > 1 and abs(g2 - trace[-2]) <= IVES_EPS * max(1.0, abs(g2)):
            break
        delta = delta_next
        last = pair if math.isfinite(g2) else None
    rows, rbs, p, delta = best
    return Sp2Solution(
        rows=rows,
        z=rbs,
        p=p,
        delta=delta,
        objective=best_g2,
        iterations=len(trace),
        trace=trace,
    )


def ural(
    sp1: Sp1Solution, uplink: Uplink, net: NetworkConfig, u: np.ndarray
) -> tuple[Sp1Solution, Sp2Solution]:
    """A round's joint allocation: the run's SP1 solution and IVES on the round's scores.

    SP1 reads no score, so a run solves it once (``solve_sp1``) and passes
    it in with its ``Uplink``.  ``net`` is the uplink's network and is not
    read: it only keeps the scores the fourth argument, where the
    benchmark's span tracer counts the devices offered to the matching.
    """
    return sp1, ives(u, uplink)
