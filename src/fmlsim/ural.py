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
pieces (the n + 1 quietest RBs and their noise, the rows' gains and power
limits, the rows in h order), IVES's starting delay and the RBs priced at it,
where every round's first matching is made.  IVES stops when g2 settles;
a matching that repeats the previous iteration's takes its power step from
the cache and gives the same g2 again, which ends the loop.

Between iterations and rounds the run's ``Uplink`` also keeps what the
scores do not change, one entry deep: the prices at the last other delay
priced (keyed by float equality) and the last power step (keyed by the
matching as lists): its read-only powers, g2's score-free part
(``_g2_costs``) and the next delay.  A round whose scores change little
repeats the last round's final matching and delay, and a repeated step
then costs only g2's score-dependent part (``_g2``).  A hit returns
exactly what a miss would compute, and ``g2_objective`` is built from the
same two parts, in the same IEEE operations and order, so outputs stay
byte-identical.  Nothing is module-level: each run, and each sweep cell,
has its own ``Uplink``.
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
# a pair is feasible up to this relative power above the cap: the slack absorbs
# round-off when delta was realized by a device transmitting exactly at its cap
CAP_SLACK = 1e-9
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
    cost: list[list[float]], fits: list[int], order: list[int], cols: int
) -> tuple[list[int], bool]:
    """Best matching that gives RB ranks 0, 1, 2, ... to rows taken in ``order``.

    ``cost[i][m]`` is row i's negated gain on the RB of noise rank m and
    ``fits[i]`` its count of feasible ranks; the cost rises with m, so row
    i's usable ranks (feasible, gain > 0) are a prefix.  A dynamic program
    over the rows: ``best[j]`` is the largest total that gives ranks 0..j-1
    to the rows seen so far, the k-th matched row on rank k.  Returns the
    matched rows (the k-th on rank k) and whether this in-order optimum is
    optimal over all matchings (see ``rb_matching``).  That needs, of the
    rows with a usable rank, each one's feasible count to exceed its
    position among them, or cover all ``cols`` ranks, or reach that of each
    such row before it.
    """
    best = [0.0] + [-math.inf] * cols
    took = []                           # (row, bitmask of the ranks it improved)
    exact, reach = True, 0
    for i in order:
        row, fit = cost[i], fits[i]
        usable = bisect.bisect_left(row, 0.0, 0, fit)
        if not usable:
            continue
        t = len(took)
        exact = exact and (fit > t or fit == cols or fit >= reach)
        if fit > reach:
            reach = fit
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
        took.append((i, mask))
    j = best.index(max(best))
    matched = []
    for i, mask in reversed(took):
        if j and mask >> (j - 1) & 1:
            matched.append(i)
            j -= 1
    return matched[::-1], exact


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
) -> tuple[np.ndarray, np.ndarray, str]:
    """Optimal RB assignment ``(rows, rbs, how)`` for a given transmission delay.

    mu[i, m] is the power device i needs on RB m to finish the upload in
    exactly delta.  Pairs whose mu exceeds the device cap (by more than
    ``CAP_SLACK``, relatively) are forbidden; among the rest, the matching
    maximizes sum of (u_i - eta1*delta*mu_{i,m}).

    mu is a product noise_m * growth / h_i, so every row ranks the RBs by
    ascending noise and its usable RBs form a prefix of that order.  Moving
    a row to a free lower-noise RB keeps it usable and raises its gain, so
    an optimal matching of s rows uses the s lowest-noise RBs, and only the
    n + 1 lowest are built (one past the most that can be matched, for the
    certificate).  A dynamic program (``_in_order_matching``) finds the best
    matching that gives those RBs, in noise order, to rows in ascending h.
    The cost of every feasible pair is a product, so by the rearrangement
    inequality the in-order assignment of a row set is its cheapest; the
    optimum is then in-order whenever the in-order assignment of every
    matchable row set is feasible, which the feasible counts checked there
    guarantee.  Otherwise the LP-duality certificate (``_certified``)
    proves the proposal optimal, and if it fails ``min_cost_assignment``
    solves the built pairs.  ``how`` says which settled it: ``"in-order"``
    (exact without a certificate), ``"certified"`` or ``"solved"``.
    """
    if delta <= 0:
        raise InvalidInputError("delta must be positive")
    spend, fits = uplink.prices(delta)
    cost = spend - u[:, None]                                       # -gain
    picked, exact = _in_order_matching(cost.tolist(), fits.tolist(), uplink.order, uplink.cols)
    s = len(picked)
    how = "in-order"
    if not exact:
        usable = np.minimum(fits, (cost < 0).sum(axis=1))
        weights = np.where(np.arange(uplink.cols) < usable[:, None], cost, np.inf)
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
    p: np.ndarray, net: NetworkConfig,
) -> float:
    """sum u_i - eta1 * transmission energy - eta2 * max transmission time."""
    if not rows.size:
        return 0.0
    return _g2(u, rows, *_g2_costs(net.rate(radios.h[rows], p, rbs), p, net), net)


def _g2_costs(
    rates: np.ndarray, p: np.ndarray, net: NetworkConfig
) -> tuple[np.ndarray | None, float]:
    """g2's score-free part: ``eta1 * t * p`` per matched row and ``t.max()``, t = S / rates.

    The first is None when some rate is not positive: g2 is then -inf
    whatever the scores.  ``t.max()`` is the matching's upload time, IVES's
    next delay.
    """
    t = net.S / rates
    return (None if (rates <= 0).any() else net.eta1 * t * p), float(t.max())


def _g2(
    u: np.ndarray, rows: np.ndarray, energy: np.ndarray | None, t_max: float,
    net: NetworkConfig,
) -> float:
    """g2 from its score-free part (``_g2_costs``) and the round's scores."""
    if energy is None:
        return -math.inf
    return float((u[rows] - energy).sum() - net.eta2 * t_max)


def initial_delay(radios: RadioProfile, net: NetworkConfig) -> float:
    """Most conservative start: the slowest full-power upload over all device/RB pairs.

    The rate rises with h * p_max / noise, so the slowest pair is the row of
    least h * p_max on the noisiest RB, and only its rate is computed.
    InvalidInputError if that rate is not positive (or is NaN): that upload
    never ends.
    """
    row = int(np.argmin(radios.h * radios.p_max))
    m = int(net.rb_order[-1])
    rate = net.rate(radios.h[row], radios.p_max[row], m)
    if not rate > 0:
        raise InvalidInputError(f"device row {row} has no positive full-power rate on RB {m}")
    return float(net.S / rate)


class Uplink:
    """A run's fixed uplink, as IVES and the RB matching read it, built once.

    The matching builds only the ``cols`` (at most n + 1) quietest RBs:
    ``rbs`` lists them in noise order and ``noise`` holds their noise.
    ``h`` and ``cap`` are the rows' gains and power limits as columns
    and ``order`` the rows by ascending h.
    ``delta0`` is IVES's starting delay (``initial_delay``), the same in
    every round, and ``first`` the prices there, which every round's first
    matching reads.

    It also keeps two one-entry caches, which carry over between IVES's
    iterations and the run's rounds: the prices at the last other delay
    priced (``prices``) and the last matching's power step
    (``power_step``), which an iteration repeating the previous one's
    matching, or a round repeating the last round's, reads back.  Both
    hold pure functions of their key, so a hit changes no output; one
    entry each keeps the memory flat at any scale.
    """

    def __init__(self, radios: RadioProfile, net: NetworkConfig):
        self.radios, self.net = radios, net
        rbs = net.rb_order[:radios.h.size + 1]
        self.cols = rbs.size
        self.rbs = rbs.tolist()
        self.noise = net.noise[rbs]
        self.h = radios.h[:, None]
        self.cap = radios.p_max[:, None]
        self.order = radios.h_order.tolist()
        self.delta0 = initial_delay(radios, net)
        self.first = self._prices(self.delta0)
        self._last_delta, self._last_prices = math.nan, None
        self._last_key, self._last_step = None, None

    def prices(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        """Every pair's spend ``eta1*delta*mu`` and every row's feasible count, at ``delta``.

        ``mu[i, m]`` is the power row i needs on the m-th quietest RB to
        finish its upload in exactly delta; it rises with m, and row i fits
        the ranks where ``mu <= cap * (1 + CAP_SLACK)``, a prefix.  Both
        arrays are read-only.  Prices at ``delta0`` are ``first``; the last
        other delay priced is kept too, keyed by float equality (an inf
        delay hits, a NaN one never does).
        """
        if delta == self.delta0:
            return self.first
        if delta != self._last_delta:
            self._last_delta, self._last_prices = delta, self._prices(delta)
        return self._last_prices

    def _prices(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        exponent = self.net.S / (self.net.B * delta)
        # exp2 overflows from 1024 on; checking here costs less than np.errstate
        growth = np.exp2(exponent) - 1.0 if exponent < 1024.0 else math.inf
        mu = self.noise * growth / self.h
        spend = self.net.eta1 * delta * mu
        fits = (mu <= self.cap * (1.0 + CAP_SLACK)).sum(axis=1)
        spend.flags.writeable = fits.flags.writeable = False
        return spend, fits

    def power_step(
        self, rows: np.ndarray, rbs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None, float]:
        """The score-free part of an IVES power step on the matching ``(rows, rbs)``.

        Returns the read-only powers (``solve_sp2_power``) and g2's
        score-free part at them (``_g2_costs``: the energy costs and the
        upload time, IVES's next delay).  The last matching powered is
        kept, keyed by ``(rows.tolist(), rbs.tolist())``.
        """
        key = rows.tolist(), rbs.tolist()
        if key != self._last_key:
            p = solve_sp2_power(self.radios, rows, rbs, self.net)
            p.flags.writeable = False
            step = p, *_g2_costs(self.net.rate(self.radios.h[rows], p, rbs), p, self.net)
            self._last_key, self._last_step = key, step
        return self._last_step


def ives(u: np.ndarray, uplink: Uplink) -> Sp2Solution:
    """Alternate RB matching, power optimization and delay update until g2 settles.

    ``u`` holds every row's (positively shifted) contribution score.  Only
    the matching and g2 read it: the prices at a delay and a matching's
    powers, energy costs and upload time come from ``uplink``, which keeps
    the run's last repricing and last power step, so a round that repeats
    the last round's final matching or delay does not recompute them, and
    neither does an iteration that repeats the previous one's matching: its
    g2 comes out equal, and the loop stops.
    """
    radios, net = uplink.radios, uplink.net
    if not u.size:
        raise InvalidInputError("ives needs at least one device")
    if u.shape != radios.h.shape:
        raise InvalidInputError(f"ives needs one score per device row, got {u.shape}")
    if u.min() <= 0:
        raise InvalidInputError("contribution scores must be shifted positive")
    delta = uplink.delta0
    empty = np.zeros(0, dtype=int)
    best_g2, best = 0.0, (empty, empty, np.zeros(0), delta)  # rows, rbs, p, delta
    trace: list[float] = []
    for _ in range(IVES_MAX_ITERS):
        rows, rbs, _ = rb_matching(u, uplink, delta)
        if not rows.size:
            trace.append(0.0)
            break
        p, energy, delta_next = uplink.power_step(rows, rbs)
        g2 = _g2(u, rows, energy, delta_next, net)
        trace.append(g2)
        if g2 > best_g2:
            best_g2, best = g2, (rows, rbs, p, delta_next)
        # an equal g2 ends it too: two -inf values differ by NaN
        if len(trace) > 1 and (g2 == trace[-2]
                               or abs(g2 - trace[-2]) <= IVES_EPS * max(1.0, abs(g2))):
            break
        delta = delta_next
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
