"""Fixed-step time-domain simulation of a three-phase six-pulse rectifier
with an optional shunt filter bank at the point of common coupling.

Topology: three ideal sine sources (phases 0 / -120 / -240 degrees) feed the
PCC through the per-phase source inductance; filter branches hang off the
PCC wye-connected to the source neutral; each phase continues through the
rectifier front-end inductance to a six-pulse diode bridge whose DC bus
carries the parallel R-C load.  The front-end inductance sets the
commutation overlap, rounds the line current, and makes the bridge draw
lagging reactive power at the fundamental.

Integration is the implicit trapezoidal rule at fixed dt, assembled as
modified nodal analysis (Ho, Ruehli & Brennan, IEEE Trans. Circuits Syst.
22(6), 1975) with companion models: eight node voltages plus the three
source branch currents plus each filter branch's inner nodes.  A resistor
is a conductance stamp, and an inductor or capacitor across the voltage
``d`` carries ``dt/(2L) d + z`` or ``2C/dt (d - z)``; only the source
inductors keep branch rows, as ``Ls`` may be zero.  Diodes are two-state
resistors of ``DIODE_ON_OHM`` and ``DIODE_OFF_OHM``; conduction states are
resolved per step by fixed-point iteration (turn on when the anode-cathode
voltage exceeds zero, turn off when the current falls below zero).

Every inductor and capacitor carries one history term in its element's
own state units.  With ``q_k`` the element's state at step k (inductor
current, capacitor voltage) and ``m`` its L or C, the history ``z_k``
entering step k is ``q_k - (dt/2) dq/dt``, and the step leaves
``z_(k+1) = 2 q_k - z_k``.  So ``q_k = (z_k + z_(k+1))/2`` and the
element's voltage or current is ``m (z_(k+1) - z_k)/dt``: every channel
and element state is a fixed linear form of two consecutive history
vectors (Dommel, IEEE Trans. PAS 88(4), 1969).  The solver records the
history alone and forms the channels after the step loop, for example
``v_pcc = e - Ls dz/dt``, ``i_src = q`` and ``i_dc = v_dc/R + C dv_dc/dt``.
The order of the terms has one owner, :func:`_layout`, whose table every
reader of ``z`` takes its columns and element values from.

The step is one set of linear forms over ``[x; z; s]``: the unknowns, the
history and the source phase ``s_k = (sin w1 t_k, cos w1 t_k)``, advanced
by one rotation.  KCL at the nodes and the source-branch equations are
forms whose ``x`` part is the system matrix and whose ``[z; s]`` part is
minus the right-hand side; the diodes add ``vd^T diag(g_d) vd`` over
their voltage forms, so the matrix depends only on the diode state word
(EMTP's constant matrix per topology).  Each state visited gets one
cached map ``F_s``, with its solve (LAPACK ``gesv`` through numpy) folded
in, from ``w = [z; s]`` to the signed diode voltages and the next ``w``
(45 x 39 with the bundled bank).  One stepper takes every step: a step is
one matrix-vector product into one scratch vector, the sign test and the
copy of the next ``w`` into the record; a diode flip applies the new
state's map to the same ``w``.  The source voltages are the exact samples.

Runs of unchanged diode state are stepped in look-ahead blocks of up to B
steps once G consecutive steps passed the sign test on the first try: one
product with the state's cached diode rows through ``M^0 .. M^(B-1)``
(``M`` the ``w`` -> next-``w`` block) finds the j steps before the first
sign change, and the stepper goes on from ``M^j w``, the block's end,
which it records.  The rows inside the blocks are filled after it,
each as ``M^i`` times the block's starting ``w``: one matrix-matrix
product per diode state and window of absolute steps, over the stacked
starting rows of its blocks.  Against a per-step LU solve whose channels
come from its unknowns and the element laws, the channels agree to
1.8e-10 of each channel's maximum and the history to 2.8e-9; against
per-step stepping, to 5e-12 and 2e-12, with the same flagged steps and
counters.

After the fill the channels are formed chunk by chunk from contiguous
copies of each history term's rows, and the guard checks that the sum
of the history and the channels is finite (all is then finite); only a
sum that is not runs the exact, row-naming check.

All states start at zero; analysis windows exclude the start-up transient.
:func:`steady_state_window` applies :mod:`harmflow.analyzer`'s window
contract to a waveform set: the window must fit the record and start at
least 2 whole periods after t = 0, and one that breaks it raises
AnalysisError.  ``SolverConfig.record_cycles`` keeps only the last whole
fundamental periods of a run: every step is taken, but the record, and so
the waveform set, starts at the window's first step, bit for bit as in a
full record: the fill's windows are counted from step 0 and the one that
holds the first recorded step is filled whole, so each product sees the
same rows in either run.  A record that starts 2 or more periods into the run may
therefore hold exactly the periods it analyses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .analyzer import AnalysisError, last_cycles_window
from .design import TWO_PI, SystemBasis
from .scenario_io import Scenario, write_waveform_csv, write_waveform_npy

CHANNEL_IDS = (
    "v_src_a", "v_src_b", "v_src_c",
    "v_pcc_a", "v_pcc_b", "v_pcc_c",
    "i_src_a", "i_src_b", "i_src_c",
    "i_bridge_a", "i_bridge_b", "i_bridge_c",
    "i_filter_a", "i_filter_b", "i_filter_c",
    "v_dc", "i_dc",
)

# Node numbering: PCC a/b/c, bridge AC terminals a/b/c, DC rails + and -;
# then three source branch currents; then the filters' inner nodes.
_PCC = (0, 1, 2)
_BT = (3, 4, 5)
_P, _N = 6, 7
_NUM_NODES = 8
_NUM_UNKNOWNS = 11

# Look-ahead blocks: most steps one block takes (B) and the consecutive
# first-try passes of the sign test that open one (G).  Chosen by
# measurement: B = 32, G = 2 halve the 1.2 s filtered run's time, and
# higher G or other B did not help the short, chattering runs of seeded
# design candidates.
LOOKAHEAD_STEPS = 32
LOOKAHEAD_GATE = 2

# Solves one step may take before it is flagged and stepped on.  A diode
# flips only when another solve is allowed, so the cap must be at least 2
# or the bridge would stay blocking forever.
MAX_SWITCH_ITERATIONS = 10

# A diode's resistance when conducting and when blocking.
DIODE_ON_OHM = 1e-3
DIODE_OFF_OHM = 1e6

# Steps whose channels are formed from the history record at a time.
_CHUNK = 2048

# Absolute steps (from step 0) whose look-ahead blocks are filled with one
# product per diode state: about 40 rows a product on the 1.2 s filtered run.
_WINDOW = 16384


class SolverError(RuntimeError):
    """Raised when the transient solve cannot proceed (an exactly singular
    system matrix, or a non-finite solution)."""


@dataclass(frozen=True)
class WaveformSet:
    """Multichannel fixed-rate time series produced by the simulator.

    ``channels`` holds the external contract channels (see ``CHANNEL_IDS``);
    ``i_dc`` is the bridge output current into the DC bus and ``v_dc`` the
    DC bus voltage.  ``history`` is the solver's record: row r is the
    history vector ``z`` entering step ``first_step + r``, one term per
    inductor and capacitor; every channel and element state of step k is a
    fixed form of its rows k and k+1.  :func:`energy_audit` reads it.
    ``diode_states`` counts the distinct diode state words the run
    visited, ``switch_iterations`` the fixed-point solves over all steps,
    ``switch_events`` the steps whose state word differs from the previous
    step's and ``block_steps`` the steps taken in look-ahead blocks (each
    counted as one solve).
    ``first_step`` is the step of the first sample: nonzero when the solver
    recorded only the last periods of the run.
    """

    sample_rate_hz: float
    channels: Mapping[str, np.ndarray]
    flagged_steps: tuple[int, ...] = ()
    history: np.ndarray | None = None
    diode_states: int = 0
    switch_iterations: int = 0
    switch_events: int = 0
    block_steps: int = 0
    first_step: int = 0

    def __post_init__(self) -> None:
        if not self.sample_rate_hz > 0.0:
            raise ValueError("sample_rate_hz must be positive")
        lengths = {len(v) for v in self.channels.values()}
        if len(lengths) != 1 or lengths.pop() < 2:
            raise ValueError("all channels must share one length >= 2")
        if self.history is not None and len(self.history) != self.n_samples + 1:
            raise ValueError("history must hold one row more than the channels")

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.channels.values())))

    @property
    def dt_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    def time(self) -> np.ndarray:
        return np.arange(self.first_step, self.first_step + self.n_samples) * self.dt_s

    def to_csv(self, path) -> str:
        """The waveform CSV: ``t_s``, then each contract channel; returns its SHA-256."""
        return write_waveform_csv(path, ["t_s", *CHANNEL_IDS], self._columns())

    def to_npy(self, path) -> str:
        """The CSV's twin: its columns as the rows of an NPY array; returns its SHA-256."""
        return write_waveform_npy(path, self._columns())

    def _columns(self) -> list[np.ndarray]:
        return [self.time(), *(self.channels[c] for c in CHANNEL_IDS)]


def run(scenario: Scenario) -> WaveformSet:
    """Integrate the scenario and return its waveforms.

    Deterministic for identical inputs.  Steps whose diode-state iteration
    hits ``MAX_SWITCH_ITERATIONS`` are recorded in ``flagged_steps`` rather
    than raised.
    Raises :class:`SolverError` for an exactly singular system matrix or
    a non-finite solution, naming the step.
    """
    return _TransientSolver(scenario).run()


def _stamp(g, d: np.ndarray) -> np.ndarray:
    """Nodal stamp of conductance ``g[i]`` (or one shared ``g``) across each
    voltage form ``d[i]``: the sum of g[i] d[i]^T d[i]."""
    return d.T @ (np.reshape(g, (-1, 1)) * d)


@dataclass(frozen=True)
class _Layout:
    """A scenario's history layout, built by :func:`_layout`: each term's L
    or C in ``z`` order, the columns of each element kind (``caps`` holds
    the filter capacitors, single-tuned then high-pass), and the filter
    resistances per branch-phase, branch-major."""

    masses: np.ndarray
    ls: slice
    fe: slice
    dc: int
    st_l: slice
    st_c: slice
    hp_c: slice
    hp_l: slice
    caps: slice
    st_r: np.ndarray
    hp_r: np.ndarray


def _layout(scenario: Scenario) -> _Layout:
    """The order of the history terms, stated here alone: Ls and Lfe per
    phase, Cdc, then per filter branch-phase the single-tuned L and C and
    the high-pass C and L."""
    basis, load, bank = scenario.basis, scenario.load, scenario.bank
    (st_r, st_l, st_c), (hp_r, hp_l, hp_c) = (
        [
            np.repeat([getattr(b, name) for b in (getattr(bank, kind) if bank else ())], 3)
            for name in ("resistance_ohm", "inductance_h", "capacitance_f")
        ]
        for kind in ("single_tuned", "high_pass")
    )
    runs = {
        "ls": np.full(3, basis.source_inductance_h),
        "fe": np.full(3, load.front_end_inductance_h),
        "dc": [load.load_capacitance_f],
        "st_l": st_l, "st_c": st_c, "hp_c": hp_c, "hp_l": hp_l,
    }
    ends = np.cumsum([len(m) for m in runs.values()]).tolist()
    cols = dict(zip(runs, map(slice, [0, *ends], ends)))
    cols["dc"] = cols["dc"].start  # a single term
    caps = slice(cols["st_c"].start, cols["hp_c"].stop)
    return _Layout(np.concatenate(list(runs.values())), caps=caps, st_r=st_r, hp_r=hp_r, **cols)


def _finite(a: np.ndarray, axis: int | None = None):
    """Whether ``a`` (or each slice along ``axis``) is finite, without an
    ``a``-sized temporary: the extremes propagate NaN and reach infinity."""
    return np.isfinite(a.min(axis=axis)) & np.isfinite(a.max(axis=axis))


def _states(z: np.ndarray, cols) -> np.ndarray:
    """Element states (inductor currents, capacitor voltages) per step."""
    return 0.5 * (z[:-1, cols] + z[1:, cols])


def _flows(z: np.ndarray, cols, masses: np.ndarray, dt: float) -> np.ndarray:
    """``m dq/dt`` (inductor voltages, capacitor currents) per step."""
    return (masses[cols] / dt) * (z[1:, cols] - z[:-1, cols])


class _TransientSolver:
    """Per-state step maps ``F_s`` over ``w = [z; s]``, applied into one
    scratch vector, whose next ``w`` is copied into the record.  ``_kcl`` and
    ``_out`` are the linear forms over ``[x; z; s]`` (see ``_assemble``;
    ``x`` has 38 unknowns with the bundled bank, 11 without one); a
    state adds the diode stamp and folds its solve in as
    ``F_s = out_w + out_x X`` with ``A_s X = -kcl_w``.  ``_tables`` holds
    each state's look-ahead tables: ``M^1 .. M^B``, B·nw × nw, and the
    signed diode rows, B·6 × nw (380 kB and 60 kB at nw = 39, B = 32).

    :meth:`run` allocates the record, has :meth:`_step` take every step,
    :meth:`_fill_interiors` write the rows inside look-ahead blocks, and
    forms the channels from the full record and guards them."""

    def __init__(self, scenario: Scenario) -> None:
        cfg = scenario.solver
        self.dt = cfg.dt_s
        self.n_samples = cfg.n_samples
        self.first_step = scenario.first_recorded_step()
        self.g_on = 1.0 / DIODE_ON_OHM
        self.g_off = 1.0 / DIODE_OFF_OHM
        self.g_rl = 1.0 / scenario.load.load_resistance_ohm
        self.layout = _layout(scenario)
        self.n_z = len(self.layout.masses)

        basis = scenario.basis
        w1 = TWO_PI * basis.fundamental_hz
        t = np.arange(self.first_step, self.n_samples) * self.dt
        vpeak = math.sqrt(2.0) * basis.source_vrms
        offsets = np.array([0.0, -TWO_PI / 3.0, -2.0 * TWO_PI / 3.0])
        # An overflowing amplitude is reported by the guard after the step
        # loop, not as a warning here.
        with np.errstate(invalid="ignore"):
            self.esrc = vpeak * np.sin(w1 * t[None, :] + offsets[:, None])
            # e_k = v_src @ s_k with s_k = (sin w1 t_k, cos w1 t_k).
            v_src = vpeak * np.column_stack([np.cos(offsets), np.sin(offsets)])
        self._s_first = np.array([math.sin(w1 * self.dt), math.cos(w1 * self.dt)])
        self._kcl, self._out = self._assemble(scenario, v_src, w1 * self.dt)
        self._maps: dict[int, np.ndarray] = {}
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _assemble(
        self, scenario: Scenario, v_src: np.ndarray, step_angle: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forms over ``[x; z; s]``: KCL at the nodes (currents leaving) and
        the source-branch equations without the diodes, and the output rows
        (unsigned diode voltages, next ``z``, next ``s``).  The filter
        branch-phases' inner nodes follow the fixed unknowns: R-L and L-C of
        each single-tuned one, C-(R || L) of each high-pass one.  Every
        resistor is a :func:`_stamp`; an inductor carries ``dt/(2L) d + z``
        and its state is that current, a capacitor ``2C/dt (d - z)`` and its
        state is ``d``; each history term moves on to ``2 q - z``."""
        lay, nz, dt = self.layout, self.n_z, self.dt
        m, n_st, n_hp = lay.masses, len(lay.st_r), len(lay.hp_r)
        nx = _NUM_UNKNOWNS + 2 * n_st + n_hp
        unit = np.eye(nx + nz + 2)
        x, z, s = unit[:nx], unit[nx : nx + nz], unit[nx + nz :]
        vp, vbt, i_src = x[list(_PCC)], x[list(_BT)], x[_NUM_NODES:_NUM_UNKNOWNS]
        v_dc = x[_P] - x[_N]
        st_rl, st_lc, hp_n = np.split(x[_NUM_UNKNOWNS:], [n_st, 2 * n_st])
        st_vp, hp_vp = vp[np.arange(n_st) % 3], vp[np.arange(n_hp) % 3]
        c, sn = math.cos(step_angle), math.sin(step_angle)

        # The source inductors keep their branch rows (Ls may be zero).
        d = np.zeros_like(z)
        d[lay.fe], d[lay.dc] = vp - vbt, v_dc
        d[lay.st_l], d[lay.st_c] = st_rl - st_lc, st_lc
        d[lay.hp_c], d[lay.hp_l] = hp_vp - hp_n, hp_n
        ind, cap = np.r_[lay.fe, lay.st_l, lay.hp_l], np.r_[lay.dc, lay.caps]
        flows = np.zeros_like(z)
        flows[ind] = (dt / (2.0 * m[ind]))[:, None] * d[ind] + z[ind]
        flows[cap] = (2.0 * m[cap] / dt)[:, None] * (d[cap] - z[cap])
        # Each history term's element state, as a form over [x; z; s].
        states = flows.copy()
        states[cap], states[lay.ls] = d[cap], i_src

        # Each element's current leaves the node its d adds.
        kcl = d[:, :nx].T @ flows
        g = np.concatenate([[self.g_rl], 1.0 / lay.st_r, 1.0 / lay.hp_r])
        kcl[:, :nx] += _stamp(g, np.vstack([v_dc, st_vp - st_rl, hp_n])[:, :nx])
        kcl[list(_PCC)] -= i_src
        # Source branches: e - vp = 2Ls/dt (i_src - z_ls).
        kcl[_NUM_NODES:_NUM_UNKNOWNS] = (
            vp + 2.0 * scenario.basis.source_inductance_h / dt * (i_src - z[lay.ls]) - v_src @ s
        )
        out = np.vstack([
            vbt - x[_P], x[_N] - vbt,  # diode voltages
            2.0 * states - z,
            np.array([[c, sn], [-sn, c]]) @ s,
        ])
        return kcl, out

    def _step_map(self, key: int, step: int) -> np.ndarray:
        """Step map of diode state word ``key`` (bit i set when diode i
        conducts), built on its first visit: ``w = [z; s]`` to the signed
        diode voltages and the next ``w``."""
        nx = len(self._kcl)
        on = (key >> np.arange(6)) & 1 == 1
        g_d = np.where(on, self.g_on, self.g_off)
        a = self._kcl[:, :nx] + _stamp(g_d, self._out[:6, :nx])
        # The unknowns as forms over w: x = X w with A X = -kcl_w.  Only an
        # exactly zero pivot fails; a solution that a tiny one makes overflow
        # is reported by the guard after the step loop.
        try:
            x = np.linalg.solve(a, -self._kcl[:, nx:])
        except np.linalg.LinAlgError:
            raise SolverError(f"singular system matrix at step {step}") from None
        out = self._out.copy()
        # Sign the diode rows so every entry is >= 0 exactly when the state
        # is consistent: conducting diodes need v >= 0, blocking ones v <= 0.
        out[:6] *= np.where(on, 1.0, -1.0)[:, None]
        self._maps[key] = out[:, nx:] + out[:, :nx] @ x
        return self._maps[key]

    def _lookahead_tables(self, key: int) -> tuple[np.ndarray, np.ndarray]:
        """Look-ahead tables of state ``key``, built on first use: the powers
        ``M^1 .. M^B`` of its next-``w`` block and its ``F_s[:6] M^0 .. M^(B-1)``."""
        f = self._maps[key]
        nw = f.shape[1]
        powers = top = f[6:]
        # Doubling: [M^1; ..; M^r] M^r = [M^(r+1); ..; M^(2r)].
        while len(powers) < LOOKAHEAD_STEPS * nw:
            powers = np.vstack([powers, powers @ top])
            top = top @ top
        powers = powers[: LOOKAHEAD_STEPS * nw]
        diode = np.vstack([
            f[:6],
            np.matmul(f[:6], powers[: -nw].reshape(-1, nw, nw)).reshape(-1, nw),
        ])
        self._tables[key] = powers, diode
        return powers, diode

    def _block_length(self, key: int, k: int, w: np.ndarray) -> int:
        """The sign test of a look-ahead block in state ``key`` entering
        step ``k`` with ``w``: how many steps (j) from k pass it, at most B.
        Builds the state's tables on first use."""
        diode = (self._tables.get(key) or self._lookahead_tables(key))[1]
        # Signed diode voltages of steps k .. k+B-1.  NaN compares false, so
        # a block holding NaN is taken whole and left to the guard after
        # the step loop.
        neg = diode @ w < 0.0
        j = int(neg.argmax())
        return j // 6 if neg[j] else LOOKAHEAD_STEPS

    def _fill_interiors(self, queue: np.ndarray, saved: list, record: np.ndarray) -> None:
        """Records the rows inside the queued blocks: the ``w`` after steps
        k .. k+j-2 of the block queued at step k are ``M^1 .. M^(j-1)`` times the
        ``w`` entering step k.  One product per diode state and window of
        ``_WINDOW`` absolute steps (the window of a block's last inside
        row) fills them, so a block's rows do not depend on where the
        record starts: a product of one row differs in the last bit from
        the same row in a batch."""
        ks = np.flatnonzero(queue[0])
        if not len(ks):
            return
        first, nw, b = self.first_step, record.shape[1], LOOKAHEAD_STEPS - 1
        js, keys = queue[:, ks].astype(np.int64)
        # Window-major, then by state word (6 bits).
        group = (ks + js - 1) // _WINDOW * 64 + keys
        order = np.argsort(group, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(group[order])) + 1)
        # One buffer for every product: products of varying size, each
        # allocated anew, leave the heap larger.
        buffer = np.empty((max(map(len, groups)), b * nw))
        for idx in groups:
            # The w entering each block's first step; those saved are of
            # the first blocks queued.
            starts = record[np.maximum(ks[idx] - first, 0)]
            for i in np.flatnonzero(idx < len(saved)).tolist():
                starts[i] = saved[idx[i]]
            powers = self._tables[int(keys[idx[0]])][0][: b * nw]
            after = np.matmul(starts, powers.T, out=buffer[: len(idx)]).reshape(-1, b, nw)
            for a, k, j in zip(after, ks[idx].tolist(), js[idx].tolist()):
                # The inside rows from the first recorded one, if any.
                lo = max(k + 1, first)
                if lo < k + j:
                    record[lo - first : k + j - first] = a[lo - k - 1 : j - 1]

    def _step(self, record: np.ndarray, queue: np.ndarray, saved: list) -> tuple:
        """The stepper: takes steps 1 .. n-1 and records the ``w`` each
        leaves from ``first_step`` on, but the rows inside look-ahead blocks:
        a block of j steps forms only its end, ``M^j w``.  One with rows whose
        last lies in a window :meth:`_fill_interiors` fills is queued as
        ``queue[:, k] = j, key``, and the ``w`` entering its step k saved
        when the record does not hold it.  Returns the flagged steps and the
        counts of solves, switch events and block steps."""
        n, first, nw = self.n_samples, self.first_step, record.shape[1]
        maps, max_iter = self._maps, MAX_SWITCH_ITERATIONS
        # One scratch vector for a step's signed diode voltages and next w.
        y = np.empty(6 + nw)
        signed_vd, w_next = y[:6], y[6:]
        # The w entering step k: its record row, or before the record a
        # vector of its own.  The w entering step 1 is zero but for the
        # source phase.
        w = record[1 - first] if first <= 1 else np.zeros(nw)
        w[-2:] = self._s_first

        key = 0  # all diodes blocking
        solves = events = blocked = 0
        # Consecutive steps that passed the sign test on the first try.
        streak = 0
        flagged: list[int] = []
        k = 1
        while k < n:
            if streak >= LOOKAHEAD_GATE and k + LOOKAHEAD_STEPS <= n:
                j = self._block_length(key, k, w)
                if j:
                    if j > 1 and (k + j - 1) // _WINDOW >= first // _WINDOW:
                        queue[:, k] = j, key
                        if k < first:
                            saved.append(w.copy())
                    end = self._tables[key][0][(j - 1) * nw : j * nw]
                    w = np.dot(end, w, out=record[k + j - first] if k + j >= first else None)
                    blocked += j
                    k += j
                    if j == LOOKAHEAD_STEPS:
                        continue
            before = key
            for it in range(max_iter):
                f = maps.get(key)
                if f is None:
                    f = self._step_map(key, k)
                np.dot(f, w, out=y)
                v0, v1, v2, v3, v4, v5 = signed_vd.tolist()
                flips = (
                    (v0 < 0.0) | (v1 < 0.0) << 1 | (v2 < 0.0) << 2
                    | (v3 < 0.0) << 3 | (v4 < 0.0) << 4 | (v5 < 0.0) << 5
                )
                if not flips:
                    break
                if it < max_iter - 1:
                    key ^= flips
            else:
                flagged.append(k)
            solves += it + 1
            streak = streak + 1 if it == 0 and not flips else 0
            events += key != before
            if k + 1 >= first:
                w = record[k + 1 - first]
            w[:] = w_next
            k += 1
        return flagged, solves, events, blocked

    def run(self) -> WaveformSet:
        n, first = self.n_samples, self.first_step
        # Row r holds the w entering step first + r.
        record = np.zeros((n + 1 - first, self.n_z + 2))
        # Column k: the steps j and state word of a block queued at step k,
        # else zeros.  A fixed array, since a growing one fragments the
        # heap.  Then the starting w of the queued blocks the record does
        # not hold.
        queue = np.zeros((2, n), dtype=np.int8)
        saved: list[np.ndarray] = []
        # Overflow is reported by the guard after the loop.
        with np.errstate(over="ignore", invalid="ignore"):
            flagged, solves, events, blocked = self._step(record, queue, saved)
            self._fill_interiors(queue, saved, record)
            # The look-ahead tables (440 kB a state) have served; their
            # memory goes to the channels' temporaries.
            self._tables.clear()
            history = record[:, : self.n_z]
            channels = np.empty((len(CHANNEL_IDS) - 3, n - first))
            total = 0.0
            # In chunks of steps, so that the temporaries stay small; each
            # history term's rows are made contiguous once per chunk.
            for lo in range(0, n - first, _CHUNK):
                z = np.asfortranarray(history[lo : lo + _CHUNK + 1])
                out = channels[:, lo : lo + _CHUNK]
                self._channels(z, self.esrc[:, lo : lo + _CHUNK], out)
                total += z.sum() + out.sum()

        # Step k leaves channel row k - first and history row k + 1 - first.
        # A non-finite w stays non-finite, so a run that failed before the
        # record starts fails at its first row.
        # A sum is finite when all its terms are; one that overflows on
        # finite terms falls through to the exact check.
        if not (np.isfinite(total) or _finite(history) and _finite(channels)):
            row = int(np.argmin(_finite(channels, 0) & _finite(history[1:], 1)))
            at = "at or before" if first and row == 0 else "at"
            raise SolverError(f"non-finite solution {at} step {first + row}")
        return WaveformSet(
            sample_rate_hz=1.0 / self.dt,
            channels=dict(zip(CHANNEL_IDS, [*self.esrc, *channels])),
            flagged_steps=tuple(flagged),
            history=history,
            diode_states=len(self._maps),
            switch_iterations=solves + blocked,
            switch_events=events,
            block_steps=blocked,
            first_step=first,
        )

    def _channels(self, z: np.ndarray, e: np.ndarray, out: np.ndarray) -> None:
        """Writes into ``out`` the channels after the source voltages, one
        row each, of the steps with source samples ``e``, from their history
        rows ``z`` and the next, by :func:`_states` and :func:`_flows`.  With
        ``z`` in column-major order each term's rows are contiguous, and so
        is every operand."""
        lay, m, dt = self.layout, self.layout.masses, self.dt
        v_dc = _states(z, lay.dc)
        np.subtract(e, _flows(z, lay.ls, m, dt).T, out=out[0:3])
        out[3:6] = _states(z, lay.ls).T
        out[6:9] = _states(z, lay.fe).T
        # Each filter branch's current flows through its capacitor.
        out[9:12] = _flows(z, lay.caps, m, dt).T.reshape(-1, 3, len(v_dc)).sum(axis=0)
        out[12] = v_dc
        out[13] = self.g_rl * v_dc + _flows(z, lay.dc, m, dt)


def steady_state_window(w: WaveformSet, basis: SystemBasis, n_cycles: int) -> range:
    """Last ``n_cycles`` whole fundamental periods of the waveform set,
    which must fit it and start at least 2 periods after the run's t = 0
    (:func:`harmflow.analyzer.last_cycles_window` with the record's start
    time)."""
    return last_cycles_window(
        w.n_samples,
        w.sample_rate_hz,
        basis.fundamental_hz,
        n_cycles,
        w.first_step / w.sample_rate_hz,
    )


@dataclass(frozen=True)
class EnergyAudit:
    """Energy bookkeeping over a window: source input vs dissipation plus
    stored-energy change.

    ``dissipated_j`` is the sum of the load, filter-resistor, and bridge
    (diode) terms, which are also reported separately.
    """

    source_energy_j: float
    dissipated_j: float
    dissipated_load_j: float
    dissipated_filter_j: float
    dissipated_bridge_j: float
    stored_delta_j: float
    imbalance_j: float
    relative_imbalance: float


def energy_audit(w: WaveformSet, scenario: Scenario, window: range) -> EnergyAudit:
    """Trapezoidal energy balance of the run over ``window``.

    Source energy is matched against resistive dissipation (load, filter
    resistors, diode conduction/blocking) and the net change of the energy
    ``m q^2 / 2`` in every inductor and capacitor, with element states and
    flows read from ``w.history`` (ValueError without one).  ``window``
    must be a step-1 range of at least 2 samples (AnalysisError otherwise).
    The relative imbalance is the defect normalized by the largest term.
    """
    lay = _layout(scenario)
    m = lay.masses
    if w.history is None or w.history.shape[1] != len(m):
        raise ValueError(
            f"energy_audit needs the run's history of {len(m)} terms, got "
            f"{None if w.history is None else w.history.shape[1]}"
        )
    if window.step != 1 or window.start < 0 or window.stop > w.n_samples or len(window) < 2:
        raise AnalysisError(f"window {window!r} is not a step-1 range within the waveform")
    sl = slice(window.start, window.stop)
    z = w.history[window.start : window.stop + 1]
    dt = w.dt_s
    ch = w.channels

    def phases(name: str) -> np.ndarray:
        return np.column_stack([ch[f"{name}_{p}"][sl] for p in "abc"])

    i_bridge, v_dc = phases("i_bridge"), ch["v_dc"][sl]
    e_source = float(np.trapezoid(np.sum(phases("v_src") * phases("i_src"), axis=1), dx=dt))
    e_load = float(np.trapezoid(v_dc**2 / scenario.load.load_resistance_ohm, dx=dt))
    # The bridge terminals sit one front-end inductor drop below the PCC.
    v_bt = phases("v_pcc") - _flows(z, lay.fe, m, dt)
    p_bridge = np.sum(v_bt * i_bridge, axis=1) - v_dc * ch["i_dc"][sl]
    e_bridge = float(np.trapezoid(p_bridge, dx=dt))
    # A single-tuned resistor carries its inductor's current, a high-pass
    # one its inductor's voltage.
    st_r, hp_r = lay.st_r, lay.hp_r
    p_filter = _states(z, lay.st_l) ** 2 @ st_r + _flows(z, lay.hp_l, m, dt) ** 2 @ (1.0 / hp_r)
    e_filter = float(np.trapezoid(p_filter, dx=dt))
    e_diss = e_load + e_bridge + e_filter

    # Element states at the window's first and last steps.
    q = 0.5 * (z[[0, -2]] + z[[1, -1]])
    stored = 0.5 * (q**2 @ m)
    stored_delta = float(stored[1] - stored[0])
    imbalance = e_source - e_diss - stored_delta
    scale = max(abs(e_source), abs(e_diss), abs(stored_delta), 1e-30)
    return EnergyAudit(
        source_energy_j=e_source,
        dissipated_j=e_diss,
        dissipated_load_j=e_load,
        dissipated_filter_j=e_filter,
        dissipated_bridge_j=e_bridge,
        stored_delta_j=stored_delta,
        imbalance_j=imbalance,
        relative_imbalance=abs(imbalance) / scale,
    )
