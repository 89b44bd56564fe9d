"""Time integration with cumulative-incidence accounting.

One method: the embedded Dormand-Prince 5(4) pair with elementary step
control and FSAL (1 + 6 RHS evaluations per attempted step).  The attempt,
error norm included, is generated from the tableau text and compiled once
per system width, unrolled over the components, and once for whole arrays,
which steps a batch of systems (a row of members per component) with one
shared step (_dp_step_maker).  Runs land exactly on every integer calendar
year inside the span and on any extra sample times, so annual aggregates
are plain differences of stored values, never interpolated.  Runs read only
at their ends and sample times (scenario arms, stability probes, the Sobol
batch, whose sample times are its whole years) switch ``year_nodes`` off
and step freely between them.  integrate_flat alone picks a run's first
trial step; a year-landing run given none tries the whole way to its first
node, which the error norm accepts on the presets: a baseline has no rows
between t0 and its first year, where a first step of 0.01 years left three
(t0 + 0.01, + 0.06 and + 0.31).  After a rejection a free-stepping run
does not grow its next accepted step, and a repeated rejection at least
halves the step (Hairer, Norsett & Wanner, Solving ODEs I, II.4); after a
step cut short to land on an interior sample time it tries at least the
step it wanted before the cut.  An attempt, of a scalar run or a batch,
whose stage leaves the RHS's domain (the RHS raises ZeroPopulation or
InfeasibleClosure) is a rejected attempt, as SUNDIALS treats a recoverable
RHS failure (Hindmarsh et al. 2005, ACM TOMS 31:363), so a run fails only
where steps below dt_min fail too.  A free-stepping run also lands on the
switches of its RHS (the risk closure's xi_hetm clamp, a tracked-count
group's full coverage), whose margins the RHS carries as ``f.switches``,
generated with it (model.flat_rhs_factory, model.batched_rhs_factory).  One
object built from that tuple, the run's lander, answers every accepted and
rejected attempt.  A scalar run's (_SwitchWatch) retries an attempt over
which a switching margin changes sign with the step cut to the margin's
root on the step's cubic Hermite interpolant (ibid. II.6; Shampine &
Thompson 2000), so no step straddles the kink.  A batch's (_ClusterLanding,
the Sobol study's) never retries: it looks at the margins only when an
attempt fails the error norm, and lands once per cluster of its members'
switches, on the earliest and the latest root among the members crossing
over that attempt.  On the benchmark's risk layouts every member's xi_hetm
switch falls within one window under 0.008 years wide, so two landings
serve them all.
Year-landing runs keep the plain controller and have no lander.  A run
that makes MAX_ATTEMPTS attempts without reaching t_end is refused
(StepBudgetExceeded), as DOPRI5 refuses one past NMAX.
integrate_flat returns a run's whole record (Trajectory), its own counts of
RHS evaluations and rejected steps included.
"""

from __future__ import annotations

import contextvars
import csv
import functools
import io
import logging
import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (InfeasibleClosure, NegativeState, PartialYear, StepBudgetExceeded,
                     StepSizeUnderflow, ZeroPopulation)
from .mixing import exec_source
from .model import StateVec, batched_rhs_factory, flat_rhs_factory

log = logging.getLogger(__name__)

# Times this close to a stored node are that node (lookups, breakpoint merging).
NODE_TOL = 1e-9

# Attempted steps per integrate_flat call, a batch's shared attempts
# included, before the run is refused: DOPRI5's NMAX (Hairer & Wanner,
# Solving ODEs II, IV.2), about twice what a 14-year run at msm delta = 1e4 takes.
MAX_ATTEMPTS = 100_000

# The switching margins of the run integrate_rhs is making: the switches
# attribute of the run's RHS, a three-entry tuple (model._flat_rhs_maker:
# names, signs and margins; model.batched_rhs_factory: names, rows and
# member), or None.
# integrate_flat reads them here, not from its f or as a parameter, because
# the wrappers that count its work (bench/tracing.py) pass on its five
# parameters alone and wrap f.
_switches = contextvars.ContextVar("switches", default=None)


def node_index(times, t):
    """Index of the node of the sorted ``times`` within NODE_TOL of t, or
    None: for a caller that handles a missing node; Trajectory.node refuses
    one."""
    i = bisect_left(times, t)  # as times.searchsorted(t), at less cost for one t
    for j in (i - 1, i, i + 1):
        if 0 <= j < len(times) and abs(times[j] - t) <= NODE_TOL:
            return j
    return None


def interp_rows(t, times, rows):
    """Every column of ``rows`` (one row per entry of ``times``) linearly
    interpolated at t, as np.interp does column by column: held constant
    beyond the ends."""
    j = int(np.searchsorted(times, t, side="right")) - 1
    if j < 0 or j >= len(times) - 1:
        return rows[0 if j < 0 else -1].copy()
    slope = (rows[j + 1] - rows[j]) / (times[j + 1] - times[j])
    return slope * (t - times[j]) + rows[j]


def csv_text(header, rows):
    """The package's one CSV text: ``header``, then each of ``rows``, with
    "\n" line ends.

    csv quotes a cell only when it holds the delimiter, the quote or a
    "\n", so a cell holding a "\r" and none of these would not read back:
    ValueError naming its row (the header is row 0) and column (from 0).
    One scan of the text finds whether any "\r" is there at all."""
    rows = [header, *rows]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if "\r" in text:
        for r, row in enumerate(rows):
            for c, cell in enumerate(row):
                if "\r" in str(cell) and not any(ch in str(cell) for ch in ',"\n'):
                    raise ValueError(f"CSV row {r} column {c} holds {cell!r}: a \"\\r\" "
                                     "in an unquoted cell does not read back")
    return text


def write_text(path, text):
    """The package's one file writer: ``text`` as UTF-8, newlines
    untranslated, to the file at ``path``, created as open(path, "w") would.
    An existing file is overwritten in place and then truncated to the new
    length rather than truncated on opening: on ext4 (auto_da_alloc)
    truncating a file whose last write is still in writeback waits for that
    writeback.  The file keeps its inode, links and mode."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def write_csv(path, header, rows):
    """csv_text(header, rows) to the file at ``path`` by write_text;
    csv_text's ValueError writes nothing."""
    write_text(path, csv_text(header, rows))


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration window and Dormand-Prince step control.

    t0/t_end are calendar years ("model year 2020" starts at t = 2020.0).
    rtol/atol/dt_min/dt_max control the step; atol is in persons.
    year_nodes=False drops the whole years from the nodes and makes the
    controller cautious after a rejection (integrate_flat).  first_step, a
    finite positive number or None, is the first trial step of a run that
    continues another: a probe span takes the next_step of the span before,
    a scenario arm the baseline's step at its start node.  None leaves it to
    integrate_flat: the distance to the first node on a year-landing run,
    else 1e-2.  ``method`` names the one method; it is a constant, not a
    setting.
    """

    method = "rk45_adaptive"

    t0: float
    t_end: float
    rtol: float = 1e-8
    atol: float = 1e-6
    dt_min: float = 1e-10
    dt_max: float = 25.0
    year_nodes: bool = True
    first_step: float | None = None

    def __post_init__(self):
        for name in ("t0", "t_end", "rtol", "atol", "dt_min", "dt_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} is not finite")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if min(self.rtol, self.atol, self.dt_min) <= 0:
            raise ValueError("rtol, atol, dt_min must be positive")
        if self.dt_min > self.dt_max:
            raise ValueError(f"dt_min = {self.dt_min} exceeds dt_max = {self.dt_max}")
        if self.first_step is not None and not (math.isfinite(self.first_step)
                                                and self.first_step > 0):
            raise ValueError(f"first_step = {self.first_step} is not a finite positive number")

    def over(self, t0, t_end):
        # every field in order, through the checking __init__ (not dataclasses.replace)
        return IntegratorConfig(float(t0), float(t_end), self.rtol, self.atol, self.dt_min,
                                self.dt_max, self.year_nodes, self.first_step)


@dataclass
class Trajectory:
    """Accepted integration nodes plus bookkeeping.

    states rows follow the flat layout of the integrated system; the first
    3n columns are the model state (S/I interleaved, then C), any further
    columns belong to augmented blocks owned by the caller.  A batched
    integration (integrate_batch) adds a trailing member axis.  next_step
    is the controller's step after the last accepted one, the first_step of
    a run that continues this one.  switch_events holds (t, margin name) for
    each switch of the RHS the run (a batch: some member) landed on
    (integrate_flat).  rhs_evals counts RHS evaluations (1, then 6 per
    attempt) and steps_rejected the attempts the error norm refused or a
    stage outside the RHS's domain ended (6 evaluations each, however many
    ran); an attempt retried shorter to land on a switch counts 6
    evaluations and is neither accepted nor rejected.
    """

    times: np.ndarray
    states: np.ndarray
    labels: tuple
    clamp_events: list
    next_step: float
    switch_events: list
    rhs_evals: int
    steps_rejected: int

    @classmethod
    def of(cls, run, labels):
        """The trajectory of an integrate_flat run (its return value).  A
        scalar run's rows are lists of floats, read in one pass by fromiter
        (np.array's array, without its walk over the nested lists to find
        the shape); a batch's rows are arrays."""
        ys, n = run[1], len(run[1])
        states = (np.fromiter(chain.from_iterable(ys), float, n * len(ys[0])).reshape(n, -1)
                  if isinstance(ys[0], list) else np.array(ys))
        return cls(np.array(run[0]), states, labels, *run[2:])

    @property
    def n_groups(self):
        return len(self.labels)

    def node(self, t):
        """Index of the node within NODE_TOL of t; ValueError naming t for
        any other t, inside the span or outside it: every read of a run is a
        row at one of its nodes, never between them."""
        i = node_index(self.times, t)
        if i is None:
            raise ValueError(f"t = {t} is not a node of the trajectory")
        return i

    def state_at(self, t):
        return StateVec.from_flat(self.states[self.node(t)], self.n_groups)

    def final_state(self):
        return StateVec.from_flat(self.states[-1], self.n_groups)

    def to_csv(self, path):
        header = ["t"]
        for lbl in self.labels:
            header += [f"S_{lbl}", f"I_{lbl}"]
        header += [f"C_{lbl}" for lbl in self.labels]
        # csv writes a float as its repr, so whole-array rows of Python
        # floats give the digits of repr(float(v)) without per-cell calls
        rows = np.column_stack((self.times, self.states[:, :3 * self.n_groups]))
        write_csv(path, header, rows.tolist())


def _breakpoints(cfg, sample_times):
    """Sorted times every integration must land on: t0, t_end, each whole
    year between (if cfg.year_nodes), and the sample times.

    Times closer together than a tolerance merge into one node, so float
    noise in the samples (2020.999999999999 beside 2021.0) cannot force a
    sub-dt_min step.  A merge keeps t0/t_end over a year node over a
    sample.  The tolerance is NODE_TOL, scaled down for spans under a year
    so it stays below the span, and every merged-away time lies within it of
    the kept node, where node_index finds it.
    """
    t0, t_end = cfg.t0, cfg.t_end
    pts = {t0, t_end}
    if cfg.year_nodes:  # the whole years y with t0 < y < t_end
        pts.update(map(float, range(math.floor(t0) + 1, math.ceil(t_end))))
    if sample_times is not None:
        for t in sample_times:
            t = float(t)
            if not (t0 <= t <= t_end):
                raise ValueError(f"sample time {t} outside [{t0}, {t_end}]")
            pts.add(t)

    def rank(t):
        return 2 if t in (t0, t_end) else 1 if t.is_integer() else 0

    tol = NODE_TOL * min(1.0, t_end - t0)
    pts = sorted(pts)
    kept = pts[:1]
    for t in pts[1:]:
        if t - kept[-1] > tol:
            kept.append(t)
        elif rank(t) > rank(kept[-1]):
            kept[-1] = t
    return kept


def _postprocess_step(t, y, n_state, atol, clamp_events):
    """Clamp tiny negatives in the physical slots; hard negatives are fatal.

    One min() screens the slots: it reads below zero, or NaN when a NaN
    leads, whenever a slot is negative, so the per-slot loop runs only then
    (a NaN on its own passes unclamped)."""
    if min(y[:n_state], default=0.0) >= 0.0:
        return
    for i in range(n_state):
        v = y[i]
        if v < 0.0:
            if v < -atol:
                raise NegativeState(
                    f"state component {i} = {v:.6g} < -atol at t = {t:.6f}")
            y[i] = 0.0
            clamp_events.append((t, i, v))
            log.info("clamped component %d (%.3e) to 0 at t=%.6f", i, v, t)


def _postprocess_columns(t, y, n_state, atol, clamp_events):
    """_postprocess_step over columns (one entry per batch member), run on
    each member's column in order only when one min() finds a slot below
    zero (or a NaN): clamps are written back and recorded as (t, component,
    member, value), and its NegativeState is raised for that member."""
    if np.min(y[:n_state]) >= 0.0:
        return
    for b, col in enumerate(np.asarray(y[:n_state]).T.tolist()):
        events = []
        try:
            _postprocess_step(t, col, n_state, atol, events)
        except NegativeState as e:
            raise e.for_member(b)
        for _, i, v in events:
            y[i][b] = 0.0
            clamp_events.append((t, i, b, v))


def _unpack(names, src):
    """Source unpacking ``src`` into ``names`` (a trailing comma keeps one
    name an unpacking)."""
    return "".join(f"{v}, " for v in names) + f"= {src}"


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2) as source text over the stage names {0}..{6} (k1..k7): the
# nodes and weights of stages 2-6, the 5th-order weights, and the weights of
# y5 minus the embedded 4th-order solution.
_DP_STAGES = (
    ("t + 1 / 5 * h", "1 / 5 * {0}"),
    ("t + 3 / 10 * h", "3 / 40 * {0} + 9 / 40 * {1}"),
    ("t + 4 / 5 * h", "44 / 45 * {0} - 56 / 15 * {1} + 32 / 9 * {2}"),
    ("t + 8 / 9 * h", "19372 / 6561 * {0} - 25360 / 2187 * {1} + 64448 / 6561 * {2}"
                      " - 212 / 729 * {3}"),
    ("t + h", "9017 / 3168 * {0} - 355 / 33 * {1} + 46732 / 5247 * {2} + 49 / 176 * {3}"
              " - 5103 / 18656 * {4}"),
)
_DP_Y5 = ("35 / 384 * {0} + 500 / 1113 * {2} + 125 / 192 * {3} - 2187 / 6784 * {4}"
          " + 11 / 84 * {5}")
_DP_ERR = ("71 / 57600 * {0} - 71 / 16695 * {2} + 71 / 1920 * {3} - 17253 / 339200 * {4}"
           " + 22 / 525 * {5} - 1 / 40 * {6}")


@functools.lru_cache(maxsize=None)
def _dp_step_maker(w=None):
    """Compile one Dormand-Prince 5(4) attempt for systems of width w:
    ``step(f, t, y, h, k1, atol, rtol) -> (y5, k7, err)`` given k1 = f(t, y),
    with y5 the 5th-order solution, k7 = f(t + h, y5) the next k1 (FSAL),
    and err the RMS over components of (y5 - y4) / (atol + rtol * max(|y|,
    |y5|)), y4 the embedded 4th-order solution.

    Unrolled like model._flat_rhs_maker: each stage's components are
    unpacked into locals k<s>_<i>, each stage argument is a list display
    with one expression per entry, and the norm's squares are summed term by
    term, left to right (as sum() does on Python 3.11), so an attempt costs
    6 RHS evaluations and no list passes.  Each square is a product x * x:
    float ** 2 calls libm pow, which is not correctly rounded, while numpy
    squares by multiplying.

    For w = None the same text runs on whole arrays: a batch, one row of
    members per component, f returning one such array, and the squares
    summed over the rows by the builtin sum, in the same order.
    Every entry is then computed as in the scalar attempt, and err is the
    largest member RMS, so a batch of one steps as its scalar run does, bit
    for bit.
    """
    if w is None:
        def stage(text):
            return text.format(*(f"k{s}" for s in range(1, 8)))
        body = [f"k{s} = f({node}, y + h * ({stage(weights)}))"
                for s, (node, weights) in enumerate(_DP_STAGES, start=2)]
        body += [f"y5 = y + h * ({stage(_DP_Y5)})", "k7 = f(t + h, y5)",
                 f"r = h * ({stage(_DP_ERR)}) / (atol + rtol * maximum(abs(y), abs(y5)))",
                 "q = r * r",
                 "return y5, k7, float(sqrt(sum(q) / len(y)).max())"]
        namespace = {"maximum": np.maximum, "sqrt": np.sqrt}
    else:
        c = range(w)

        def stage(i, text):
            return text.format(*(f"k{s}_{i}" for s in range(1, 8)))

        def unpack(s, src):
            return _unpack([f"k{s}_{i}" for i in c], src)
        body = [_unpack([f"y_{i}" for i in c], "y"), unpack(1, "k1")]
        for s, (node, weights) in enumerate(_DP_STAGES, start=2):
            args = ", ".join(f"y_{i} + h * ({stage(i, weights)})" for i in c)
            body.append(unpack(s, f"f({node}, [{args}])"))
        body += [f"z_{i} = y_{i} + h * ({stage(i, _DP_Y5)})" for i in c]
        body += ["y5 = [" + ", ".join(f"z_{i}" for i in c) + "]", "k7 = f(t + h, y5)",
                 unpack(7, "k7")]
        # max(|y_i|, |z_i|) as the builtin compares: |z_i| only if greater
        terms = " + ".join(f"(r := h * ({stage(i, _DP_ERR)}) / (atol + rtol * (e if (e := "
                           f"abs(z_{i})) > (d := abs(y_{i})) else d))) * r" for i in c)
        body.append(f"return y5, k7, sqrt(({terms}) / {w})")
        namespace = {"sqrt": math.sqrt}
    src = ("def step(f, t, y, h, k1, atol, rtol):\n"
           + "".join(f"    {line}\n" for line in body))
    form = "arrays" if w is None else w
    return exec_source(src, f"<dp_step {form}>", namespace)["step"]


def _switch_root(margin, t, a, b, y, y5, k1, k7, h, n, tol):
    """The theta in (0, 1] at which ``margin`` (a function of a time and the
    state's first n components) changes sign along the cubic Hermite
    interpolant of the step (y, y5, k1, k7) from t of length h, given its
    values a at (t, y) and b at (t + h, y5) on opposite sides of zero: the
    end on b's side of a bracket narrowed by the Illinois variant of regula
    falsi (Dahlquist & Bjorck) until it spans at most tol of time."""
    y, y5 = y[:n], y5[:n]
    lo, hi, fa, fb, side = 0.0, 1.0, a, b, 0
    for _ in range(100):
        if (hi - lo) * h <= tol:
            break
        th = (lo * fb - hi * fa) / (fb - fa)
        if not lo < th < hi:
            th = 0.5 * (lo + hi)
        # the Hermite basis at th, the slopes' weights times h
        s, r = th * th, 1.0 - th
        b0, b1, b2, b3 = (1.0 + 2.0 * th) * r * r, th * r * r * h, s * (3.0 - 2.0 * th), -s * r * h
        v = margin(t + th * h,
                   [b0 * p + b1 * q + b2 * u + b3 * w for p, q, u, w in zip(y, k1, y5, k7)])
        if (v > 0.0) == (a > 0.0):
            lo, fa = th, v
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            hi, fb = th, v
            if side > 0:
                fa *= 0.5
            side = 1
    return hi


class _SwitchWatch:
    """The switches of one free-stepping scalar run (integrate_flat): its
    RHS's ``switches``, (names, signs, margins) (model._flat_rhs_maker:
    signs and margins read a time and the first n slots of a state, and
    each call passes the time of the state it evaluates).  ``m`` holds the
    signs at the last accepted node; integrate_flat asks retry only of an
    attempt at whose end they differ.  Each landing goes to ``events`` as
    (t, name); a node within tol of a switch is on it."""

    def __init__(self, switches, t, y, n, tol):
        self.names, self.signs, self.margins = switches
        self.events, self.n, self.tol = [], n, tol
        self.m = self.m5 = self.signs(t, y)  # m5: the signs the attempt judged ends at
        self.landed = 0  # the bits of the margins whose switch the last node is on
        self.pending = None  # the margin the attempts are landing on
        self.resume = None  # the step proposed before it was met

    def retry(self, t, y, y5, k1, k7, h):
        """The step to retry the attempt y -> y5 from t of length h with
        (asked where the signs at y5 differ from m) when a margin changes
        sign along it more than tol before its end: the distance to the
        first such root.  Else None, and the attempt is judged as it stands,
        its signs at y5 kept for accept."""
        m5 = self.signs(t + h, y5)
        if crossed := (self.m ^ m5) & ~self.landed:
            a, b = self.margins(t, y), self.margins(t + h, y5)
            th, i = min((_switch_root(lambda s, u: self.margins(s, u)[i], t, a[i], b[i], y,
                                      y5, k1, k7, h, self.n, self.tol), i)
                        for i in range(len(a)) if crossed >> i & 1)
            if th * h <= self.tol:  # the last node is on that switch
                self.landed |= 1 << i
            else:
                self.pending = i
                if (1.0 - th) * h > self.tol:  # the attempt stops short of it
                    self.resume = h if self.resume is None else self.resume
                    return th * h
        self.m5 = m5
        return None

    def reject(self, t, y, y5, k1, k7, h):
        """Forget the landing under way: the attempt after a rejection is
        shorter, and it looks for the switch afresh.  None: the controller
        picks that step."""
        self.m5, self.pending, self.resume = self.m, None, None

    def accept(self, t, y5, k7, h, proposal):
        """The step after the accepted attempt of length h ending at t in
        y5, where the RHS is k7: the controller's ``proposal``, unless a
        landing is under way.  Then it is the step proposed before the
        switch was met if the attempt landed on it, else the distance left
        at the margin's rate along k7 (or ``proposal`` when the margin moves
        away from zero)."""
        m, m5, i = self.m, self.m5, self.pending
        self.m, self.landed = m5, 0
        if i is None:
            return proposal
        if not (m ^ m5) >> i & 1:  # short of the switch
            eps = 1e-6 * h
            b = self.margins(t, y5)[i]
            rate = (self.margins(t + eps, [y5[j] + eps * k7[j] for j in range(self.n)])[i]
                    - b) / eps
            gap = -b / rate if rate else -1.0
            if gap > self.tol:
                return min(gap, proposal if self.resume is None else self.resume)
            if gap < 0.0:  # moving away: no switch ahead
                self.pending = self.resume = None
                return proposal
        self.events.append((t, self.names[i]))
        log.info("landed on switch %s at t=%.6f", self.names[i], t)
        self.landed, h = 1 << i, self.resume
        self.pending = self.resume = None
        return proposal if h is None else h


class _ClusterLanding:
    """The switches of one free-stepping batch (integrate_flat): its RHS's
    ``switches``, (names, rows, member) (model.batched_rhs_factory: rows
    reads a time and the first n rows of a state and gives one row per
    margin, one column per member; member is one member's, the scalar
    RHS's margins).  The batch evaluates them on failed attempts alone: it
    reads no signs per attempt (``signs`` is 0 throughout, as ``m``), so it
    is never asked to retry one, and t and y, the run's start, go unread.
    Each landing goes to ``events`` as (t, name); a switch within tol of a
    node is on it."""

    m = 0

    @staticmethod
    def signs(t, y):
        return 0

    def __init__(self, switches, t, y, n, tol):
        self.names, self.rows, self.member = switches
        self.n, self.tol, self.events = n, tol, []
        self.plan = []  # the landings ahead, (t, name) in time order
        self.resume = None  # the step of the failed attempt that found them

    def reject(self, t, y, y5, k1, k7, h):
        """The step after the failed attempt y -> y5 from t of length h,
        which forgets the landings under way: None, unless the attempt
        reached its end (y5 is None where a stage left the RHS's domain) and
        a member's margin changes sign along it more than tol after t.  Then
        the landings are planned at the roots, on the members' cubic Hermite
        interpolants, of the two (member, margin) crossings whose linear
        estimates come first and last; the step is the distance to the first
        of them."""
        self.plan, self.resume = [], None
        if y5 is None:
            return None
        a, b = self.rows(t, y), self.rows(t + h, y5)
        crossed = (a > 0.0) != (b > 0.0)
        th = np.divide(a, a - b, out=np.zeros(a.shape), where=crossed)
        ahead = crossed & (th * h > self.tol)
        if not ahead.any():
            return None
        ends = (np.where(ahead, th, np.inf).argmin(), np.where(ahead, th, -np.inf).argmax())
        for k, m in (np.unravel_index(e, a.shape) for e in dict.fromkeys(ends)):
            columns = [v[:, m].tolist() for v in (y, y5, k1, k7)]  # as a scalar run's
            th = _switch_root(lambda s, u: self.member(s, u)[k], t, float(a[k, m]),
                              float(b[k, m]), *columns, h, self.n, self.tol)
            root = t + th * h
            if root - (self.plan[-1][0] if self.plan else t) > self.tol:
                self.plan.append((root, self.names[k]))
        if not self.plan:
            return None
        self.resume = h
        return self.plan[0][0] - t

    def accept(self, t, y5, k7, h, proposal):
        """The step after an accepted attempt ending at t: the controller's
        ``proposal``, unless landings are under way.  Then the attempt
        landed on the first of them: the distance to the next, else the
        step of the failed attempt that found them."""
        if not self.plan:
            return proposal
        name = self.plan.pop(0)[1]
        self.events.append((t, name))
        log.info("landed on switch %s at t=%.6f", name, t)
        if self.plan:
            return self.plan[0][0] - t
        h, self.resume = self.resume, None
        return h


def integrate_flat(f, y0, cfg, n_state, sample_times=None):
    """Integrate dy/dt = f(t, y) over cfg's window by Dormand-Prince with
    FSAL.

    A one-dimensional y0 is one system: its state is a list of floats.  A
    two-dimensional y0 is a batch, one row of members per component, stepped
    whole by one shared step that the largest member error controls; f then
    takes and gives the rows.  ``n_state`` marks how many leading components
    are physical populations subject to the nonnegativity policy, member by
    member in a batch; trailing components (cumulative counters,
    sensitivity blocks) may take either sign.
    The first trial step is cfg.first_step if given, else the distance from
    t0 to the first node (a whole year, a sample time or t_end) on a
    year-landing run, else 1e-2; a rejected first step shrinks as any other.
    The step factor is 0.9 err^-1/5 within [0.2, 5].  An attempt whose
    step raises ZeroPopulation or InfeasibleClosure (a stage outside the
    RHS's domain) is rejected as one with err = inf: the step shrinks by
    0.2, the switch watch forgets its landing, and a free run takes its
    post-rejection caps.  When that step would fall below dt_min the error
    itself is raised (in a batch, the first failing member's).  A
    free-stepping run (not cfg.year_nodes) caps the factor at 1 on the
    accepted step right after a rejection and at 0.5 on a second rejection
    in a row; when its accepted step was cut short to land on a sample time
    before t_end, the next step is at least the step the controller wanted
    before the cut (at most dt_max), so a node to read does not shrink the
    steps after it.  Landing on t_end takes no such rule: next_step is the plain proposal.
    A free-stepping run lands on the switches of the margins that its RHS
    carries, which integrate_rhs hands it (see _switches), through one
    lander built from them: a _SwitchWatch for a scalar run, a
    _ClusterLanding for a batch.  Each accepted attempt passes the
    controller's proposal through its accept, each rejected one asks its
    reject for the next step (None: the controller's), and an attempt at
    whose end its signs differ from those at the last node asks its retry
    for a shorter step to try from the same start (no further RHS
    evaluation, no rejection).  The scalar watch retries an attempt over
    which a margin changes sign, cut to its root on the step's cubic
    Hermite interpolant, until a node is within the node tolerance (or
    dt_min, if larger) of the switch, and then goes on with the step
    proposed before it was met.  A batch reads no signs, so it never
    retries: the attempt that fails the error norm across its members'
    switches plans landings on the first and the last of them, then the
    failed attempt's step.  A landing keeps FSAL (the RHS is continuous
    across a switch, so k7 is f there), is recorded as (t, name) and logged
    at INFO.
    A run (a batch: its shared attempts) refuses an attempt past
    MAX_ATTEMPTS with StepBudgetExceeded naming t and the step.
    Returns (times, states, then Trajectory's fields from clamp_events on).
    """
    if np.ndim(y0) == 1:
        y = np.asarray(y0, dtype=float).tolist()  # Python floats
        step, post = _dp_step_maker(len(y)), _postprocess_step
    else:
        y = np.array(y0, dtype=float)
        step, post = _dp_step_maker(), _postprocess_columns
    breaks = _breakpoints(cfg, sample_times)
    ts = [breaks[0]]
    ys = [y]
    clamps = []
    # a step ending within tol (as in _breakpoints, well above one ulp of a
    # calendar year) of a node lands on it
    tol = NODE_TOL * min(1.0, cfg.t_end - cfg.t0)
    t = breaks[0]
    k1 = f(t, y)
    if (h := cfg.first_step) is None:
        h = breaks[1] - t if cfg.year_nodes else 1e-2
    h = min(cfg.dt_max, max(cfg.dt_min, h))
    # caps on the step factor, lowered after a free run's rejection
    free, grow, cut = not cfg.year_nodes, 5.0, 1.0
    attempts, rejected, lander = 0, 0, None
    if free and (switches := _switches.get()):
        # a switch nearer than the smallest step allowed is reached
        lander = (_SwitchWatch if isinstance(y, list) else _ClusterLanding)(
            switches, t, y, n_state, max(tol, cfg.dt_min))
    for target in breaks[1:]:
        sample = free and target != breaks[-1]  # an interior sample time
        while t < target - tol:
            wanted = min(h, cfg.dt_max)
            h = min(wanted, target - t)
            if h < cfg.dt_min:
                raise StepSizeUnderflow(f"dt = {h:.3e} below dt_min at t = {t:.6f}")
            if attempts == MAX_ATTEMPTS:
                raise StepBudgetExceeded(f"step budget spent: {MAX_ATTEMPTS} attempted steps "
                                         f"reach t = {t:.6f} of {cfg.t_end}, dt = {h:.3e}")
            try:
                ynew, k7, err = step(f, t, y, h, k1, cfg.atol, cfg.rtol)
            except (ZeroPopulation, InfeasibleClosure):
                # a stage outside the RHS's domain rejects the attempt
                if 0.2 * h < cfg.dt_min:
                    raise
                ynew, k7, err = None, None, math.inf
            attempts += 1
            if (lander and err < math.inf and lander.signs(t + h, ynew) != lander.m
                    and (short := lander.retry(t, y, ynew, k1, k7, h))):
                h = short
                continue
            if err <= 1.0:
                t = target if target - t - h <= tol else t + h
                y = ynew
                k1 = k7  # FSAL
                post(t, y, n_state, cfg.atol, clamps)
                ts.append(t)
                ys.append(y)
                grown = h * min(grow, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
                if sample and h < wanted:  # cut short to land on the sample time
                    grown = max(grown, wanted)
                if lander:
                    grown = lander.accept(t, y, k1, h, grown)
                h, grow, cut = grown, 5.0, 1.0
            else:
                rejected += 1
                short = lander and lander.reject(t, y, ynew, k1, k7, h)
                h = short or h * min(cut, max(0.2, 0.9 * err ** -0.2))
                if free:
                    grow, cut = 1.0, 0.5
    return ts, ys, clamps, h, lander.events if lander else [], 1 + 6 * attempts, rejected


def integrate_rhs(f, y0, cfg, n_state, sample_times=None):
    """integrate_flat on an RHS that model.flat_rhs_factory or, for a batch,
    model.batched_rhs_factory generated, landing on the switches it carries
    (f.switches, handed over through _switches).  Returns integrate_flat's
    record of the run."""
    token = _switches.set(f.switches)
    try:
        return integrate_flat(f, y0, cfg, n_state=n_state, sample_times=sample_times)
    finally:
        _switches.reset(token)


def integrate(spec, y0, cfg, sample_times=None, tracked_counts=None):
    """Integrate a model from StateVec y0 over the configured window.

    ``tracked_counts`` goes to the flat RHS (model.flat_rhs_factory); a run
    at other coverage fractions integrates a copy of the spec
    (spec.with_epsilon), and runs that must share their steps are the rows
    of one integrate_batch.
    """
    f = flat_rhs_factory(spec, tracked_counts=tracked_counts)
    return Trajectory.of(integrate_rhs(f, y0.to_flat(), cfg, 2 * spec.n, sample_times),
                         spec.labels)


def integrate_batch(spec, y0, eps, cfg, sample_times=None):
    """Integrate a batch of models that differ only in coverage, all from y0.

    Row b of ``eps`` (B, n) holds member b's coverage fractions.  The batch
    state is one (3n, B) array that integrate_flat steps whole, with one
    step for all members, landing on ``sample_times`` as any run does.  A
    year-landing batch of one is its member's integrate() run bit for bit,
    and so is a free-stepping one whose RHS carries no switching margin
    (basic, or pinned mixing).  A free-stepping risk batch lands on its
    members' xi_hetm clamp switches through the same lander protocol as a
    scalar run, once per cluster of them, at the first and the last root
    found on a failed attempt's interpolant (integrate_flat,
    _ClusterLanding): each landing is 5.5e-7 to 6.3e-7 years from where the
    member's own integrate() run, which refines its root to NODE_TOL, lands
    (preset coverage x 0.5, 1 and 3).  The trajectory keeps every
    accepted node, so its states are (nodes, 3n, B).  The nonnegativity
    policy applies member by member; clamp events are (t, component,
    member, value).  A failure names the lowest member failing at the last
    attempt (PrepspillError.member).  The trajectory's rhs_evals and
    steps_rejected are the batch's: each evaluation covers every member.
    """
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    if not len(eps):
        raise ValueError("batched integration needs at least one member")
    y = np.repeat(y0.to_flat()[:, None], len(eps), axis=1)
    return Trajectory.of(integrate_rhs(batched_rhs_factory(spec, eps), y, cfg, 2 * spec.n,
                                       sample_times), spec.labels)


def whole_years(t0, t1):
    """The calendar years of the span [t0, t1]; PartialYear unless both ends
    are whole years, within NODE_TOL, and at least one year apart."""
    if abs(t0 - round(t0)) > NODE_TOL or abs(t1 - round(t1)) > NODE_TOL:
        raise PartialYear(f"span [{t0}, {t1}] is not aligned to whole years")
    years = list(range(int(round(t0)), int(round(t1))))
    if not years:
        raise PartialYear("span shorter than one year")
    return years


def annual_series(traj):
    """Per calendar year, per group new infections: differences of the
    cumulative accumulators at year boundaries.

    Requires the trajectory to span whole years; the yearly rows sum exactly
    (telescoping) to C(t_end) - C(t0).  A batched trajectory gives
    (years, n, B).
    """
    years = whole_years(traj.times[0], traj.times[-1])
    idx = [node_index(traj.times, float(y)) for y in range(years[0], years[-1] + 2)]
    if None in idx:
        missing = years[0] + idx.index(None)
        raise PartialYear(f"year boundary {missing} missing from trajectory grid")
    C = traj.states[idx, 2 * traj.n_groups:3 * traj.n_groups]
    return years, C[1:] - C[:-1]
