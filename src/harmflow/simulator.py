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
modified nodal analysis with companion models.  Every filter branch reduces
to a Norton equivalent at its PCC node, so the system solves for eight node
voltages plus the three source branch currents.  Diodes are two-state
resistors; conduction states are resolved per step by fixed-point iteration
(turn on when the anode-cathode voltage exceeds zero, turn off when the
current falls below zero).

Every quantity the step uses is a linear form over ``[x; z; s]``: the
unknowns ``x``, the companion-model history terms ``z`` (one per inductor
and capacitor) and the source phase ``s_k = (sin w1 t_k, cos w1 t_k)``.
Each phase's source sample is a fixed form of ``s``, and one rotation by
``w1 dt`` advances it.  The system matrix is stamped from the same forms: a
conductance g across a voltage form d adds ``g d^T d``, so the diodes add
``vd^T diag(g_d) vd`` over the diode-voltage forms ``vd`` that the state
test reads.  The matrix therefore depends only on the diode state word
(the constant-matrix-per-topology scheme of EMTP; Dommel, IEEE Trans. PAS,
1969), and the right-hand side is a fixed form ``B`` of ``w = [z; s]``.
Solving ``A_s X = B`` against the state's LU factors (no explicit inverse)
gives the unknowns as ``x = X w``, so each state visited gets one cached
linear map ``F_s`` from ``w`` to the signed diode voltages, the next ``w``
and the recorded row.  A step is one matrix-vector product into the other
of two preallocated rows, the sign test of the diode voltages and the
record copy; a diode flip applies the new state's map to the same ``w``.
Against a loop that solves ``A x = b`` at every step, the contract
channels of the bundled runs agree to 5e-10 of each channel's maximum, the
aux traces to 1e-8 (the worst is a blocked bridge terminal, held only by
the diodes' off conductance) and THD and DPF to 3e-12 relative; the
rotation drifts by under 1e-10 of the amplitude over ``MAX_SAMPLES``
steps.  The source voltages are recorded from the source samples, not
through the map.

All states start at zero; analysis windows exclude the start-up transient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Mapping

import numpy as np
from scipy.integrate import trapezoid
from scipy.linalg.lapack import dgetrf, dgetrs

from .design import FilterBank, SystemBasis

TWO_PI = 2.0 * math.pi

CHANNEL_IDS = (
    "v_src_a", "v_src_b", "v_src_c",
    "v_pcc_a", "v_pcc_b", "v_pcc_c",
    "i_src_a", "i_src_b", "i_src_c",
    "i_bridge_a", "i_bridge_b", "i_bridge_c",
    "i_filter_a", "i_filter_b", "i_filter_c",
    "v_dc", "i_dc",
)

# Node numbering: PCC a/b/c, bridge AC terminals a/b/c, DC rails + and -;
# then three source branch currents.
_PCC = (0, 1, 2)
_BT = (3, 4, 5)
_P, _N = 6, 7
_NUM_NODES = 8
_NUM_UNKNOWNS = 11
_I_DC = CHANNEL_IDS.index("i_dc")

# Most samples one run may record, checked before anything is allocated.
# The record holds 8 bytes per sample per column, so this bounds it at 12 MB
# per column: 0.64 GB at the bundled bank's 53 columns (17 channels plus
# the aux traces).  The longest bundled study, the 1.2 s settled run,
# records 120k samples.
MAX_SAMPLES = 1_500_000


class SolverError(RuntimeError):
    """Raised when the transient solve cannot proceed (singular matrix)."""


class WindowError(ValueError):
    """Requested analysis window does not fit the waveform."""


class SampleGridError(ValueError):
    """Sample grid is incommensurate with the fundamental period."""


@dataclass(frozen=True)
class RectifierLoad:
    """Six-pulse bridge load: per-phase front-end inductance into the bridge,
    parallel R-C on the DC bus."""

    front_end_inductance_h: float = 0.023
    load_resistance_ohm: float = 78.0
    load_capacitance_f: float = 50e-6

    def __post_init__(self) -> None:
        for name in (
            "front_end_inductance_h",
            "load_resistance_ohm",
            "load_capacitance_f",
        ):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step solver settings.

    Defaults resolve a 50 Hz system with 2000 samples per cycle and leave
    ample settling time before the analysis window.
    """

    dt_s: float = 1e-5
    duration_s: float = 0.5
    diode_on_ohm: float = 1e-3
    diode_off_ohm: float = 1e6
    max_switch_iterations: int = 10

    def __post_init__(self) -> None:
        for name in ("dt_s", "duration_s", "diode_on_ohm", "diode_off_ohm"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        samples = self.duration_s / self.dt_s
        # The solver records round(samples) samples.
        if not samples < MAX_SAMPLES + 0.5:
            raise ValueError(
                f"duration_s / dt_s must be finite and round to at most "
                f"{MAX_SAMPLES} samples, got {samples!r}"
            )
        if not self.diode_off_ohm / self.diode_on_ohm >= 1e6:
            raise ValueError(
                "diode_off_ohm / diode_on_ohm must be at least 1e6, got "
                f"{self.diode_off_ohm / self.diode_on_ohm!r}"
            )
        if self.max_switch_iterations < 1:
            raise ValueError(
                f"max_switch_iterations must be >= 1, got {self.max_switch_iterations!r}"
            )


@dataclass(frozen=True)
class Scenario:
    """Complete simulation case: source, rectifier load, optional bank."""

    basis: SystemBasis
    load: RectifierLoad
    bank: FilterBank | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        min_duration = 10.0 * self.basis.period_s
        if self.solver.duration_s < min_duration:
            raise ValueError(
                f"duration_s must cover at least 10 fundamental periods "
                f"({min_duration!r} s), got {self.solver.duration_s!r}"
            )


@dataclass(frozen=True)
class WaveformSet:
    """Multichannel fixed-rate time series produced by the simulator.

    ``channels`` holds the external contract channels (see ``CHANNEL_IDS``);
    ``i_dc`` is the bridge output current into the DC bus and ``v_dc`` the
    DC bus voltage.  ``aux`` carries solver bookkeeping traces (per-branch
    filter states and the bridge terminal voltages) consumed by
    :func:`energy_audit`; they are not part of the CSV export.
    ``diode_states`` counts the distinct diode state words the run visited
    and ``switch_iterations`` the fixed-point solves over all steps.
    """

    sample_rate_hz: float
    channels: Mapping[str, np.ndarray]
    flagged_steps: tuple[int, ...] = ()
    aux: Mapping[str, np.ndarray] = field(default_factory=dict)
    diode_states: int = 0
    switch_iterations: int = 0

    def __post_init__(self) -> None:
        if not self.sample_rate_hz > 0.0:
            raise ValueError("sample_rate_hz must be positive")
        lengths = {len(v) for v in self.channels.values()}
        if len(lengths) != 1 or lengths.pop() < 2:
            raise ValueError("all channels must share one length >= 2")

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.channels.values())))

    @property
    def dt_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    def time(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt_s

    def write_csv(self, out: IO[str]) -> None:
        """First column ``t_s`` then one column per contract channel.

        Every value is written as ``%.17g``: 17 significant digits, which
        read back as the same double, so the round trip is exact.
        """
        out.write("t_s," + ",".join(CHANNEL_IDS) + "\n")
        columns = [self.time()] + [np.asarray(self.channels[c]) for c in CHANNEL_IDS]
        rows = np.column_stack(columns)
        row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        out.write((row * len(rows)) % tuple(rows.ravel().tolist()))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh)


def run(scenario: Scenario) -> WaveformSet:
    """Integrate the scenario and return its waveforms.

    Deterministic for identical inputs.  Steps whose diode-state iteration
    hits the cap are recorded in ``flagged_steps`` rather than raised.
    Raises :class:`SolverError` for a singular system matrix or a
    non-finite solution, naming the step.
    """
    return _TransientSolver(scenario).run()


def _stamp(g, d: np.ndarray) -> np.ndarray:
    """Nodal stamp of conductance ``g[i]`` (or one shared ``g``) across each
    voltage form ``d[i]``: the sum of g[i] d[i]^T d[i]."""
    return d.T @ (np.reshape(g, (-1, 1)) * d)


class _TransientSolver:
    """Per-state step maps ``F_s`` over ``w = [z; s]`` (history terms,
    source phase), applied between two alternating output rows.  ``z``
    holds the Ls and Lfe histories per phase, the Cdc history, then the
    single-tuned L and C and the high-pass C and L histories per filter
    branch-phase.

    One set of linear forms over ``[x; z; s]`` holds the system: the
    matrix without the diodes (``_base_matrix``, stamped from the voltage
    forms), the right-hand side (``_rhs``, zero over ``x``) and the output
    rows (``_out_base``: unsigned diode voltages, next ``z``, next ``s``,
    record row).  A state adds the diode stamp over the first six output
    rows and folds its solve in as ``F_s = out_w + out_x X``, where
    ``A_s X = rhs_w`` is solved against the state's LU factors."""

    def __init__(self, scenario: Scenario) -> None:
        cfg = scenario.solver
        self.dt = cfg.dt_s
        self.n_samples = int(round(cfg.duration_s / cfg.dt_s))
        if self.n_samples < 2:
            raise ValueError("duration_s must span at least two samples")
        self.g_on = 1.0 / cfg.diode_on_ohm
        self.g_off = 1.0 / cfg.diode_off_ohm
        self.max_iter = cfg.max_switch_iterations

        basis = scenario.basis
        load = scenario.load
        dt = self.dt
        self.r_ls = 2.0 * basis.source_inductance_h / dt
        self.g_fe = dt / (2.0 * load.front_end_inductance_h)
        self.g_cdc = 2.0 * load.load_capacitance_f / dt
        self.g_rl = 1.0 / load.load_resistance_ohm

        st = scenario.bank.single_tuned if scenario.bank else ()
        hp = scenario.bank.high_pass if scenario.bank else ()
        self.n_st = len(st)
        self.n_hp = len(hp)
        self.st_r = np.array([b.resistance_ohm for b in st])
        self.st_l = np.array([b.inductance_h for b in st])
        self.st_c = np.array([b.capacitance_f for b in st])
        self.st_rleq = 2.0 * self.st_l / dt
        self.st_rceq = dt / (2.0 * self.st_c)
        self.st_g = 1.0 / (self.st_r + self.st_rleq + self.st_rceq)
        self.hp_r = np.array([b.resistance_ohm for b in hp])
        self.hp_l = np.array([b.inductance_h for b in hp])
        self.hp_c = np.array([b.capacitance_f for b in hp])
        self.hp_rceq = dt / (2.0 * self.hp_c)
        self.hp_glp = dt / (2.0 * self.hp_l)
        self.hp_rsec = 1.0 / (1.0 / self.hp_r + self.hp_glp)
        self.hp_g = 1.0 / (self.hp_rceq + self.hp_rsec)
        self.n_z = 7 + 6 * (self.n_st + self.n_hp)
        self._rec_at = 6 + self.n_z + 2

        w1 = TWO_PI * basis.fundamental_hz
        t = np.arange(self.n_samples) * dt
        vpeak = math.sqrt(2.0) * basis.source_vrms
        offsets = np.array([0.0, -TWO_PI / 3.0, -2.0 * TWO_PI / 3.0])
        # An overflowing amplitude is reported by the guard after the step
        # loop, not as a warning here.
        with np.errstate(invalid="ignore"):
            self.esrc = vpeak * np.sin(w1 * t[:, None] + offsets[None, :])
            # e_k = v_src @ s_k with s_k = (sin w1 t_k, cos w1 t_k).
            v_src = vpeak * np.column_stack([np.cos(offsets), np.sin(offsets)])
        self._s_first = np.array([math.sin(w1 * t[1]), math.cos(w1 * t[1])])
        self._base_matrix, self._rhs, self._out_base, self._aux_slices = (
            self._assemble(v_src, w1 * dt)
        )
        self._maps: dict[int, np.ndarray] = {}

    def _assemble(
        self, v_src: np.ndarray, step_angle: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, slice]]:
        """State-independent linear forms over ``[x; z; s]`` (unknowns,
        history terms, source phase): the system matrix without the diodes,
        the right-hand side, the output rows (unsigned diode voltages, next
        ``z``, next ``s``, record row with a zero ``i_dc`` row) and the
        record columns of each aux trace."""
        nx, nz = _NUM_UNKNOWNS, self.n_z
        unit = np.eye(nx + nz + 2)
        x, s = unit[:nx], unit[nx + nz :]
        z_ls, z_fe, z_c = unit[nx : nx + 3], unit[nx + 3 : nx + 6], unit[nx + 6]
        n3st, n3hp = 3 * self.n_st, 3 * self.n_hp
        st_el, st_ec, hp_ec, hp_hl = (
            rows.reshape(-1, 3, nx + nz + 2)
            for rows in np.split(
                unit[nx + 7 : nx + nz], np.cumsum([n3st, n3st, n3hp])
            )
        )

        def per_branch(values: np.ndarray) -> np.ndarray:
            return values[:, None, None]

        def flat(forms: np.ndarray) -> np.ndarray:
            return forms.reshape(-1, nx + nz + 2)

        e = v_src @ s
        c, sn = math.cos(step_angle), math.sin(step_angle)
        s_next = np.array([[c, sn], [-sn, c]]) @ s
        vp, vbt, i_src = x[list(_PCC)], x[list(_BT)], x[_NUM_NODES:]
        v_fe = vp - vbt
        v_dc = x[_P] - x[_N]
        i_fe = self.g_fe * v_fe + z_fe
        # Series R-L-C: inductor history el, capacitor history ec.
        st_i = per_branch(self.st_g) * (vp - st_el - st_ec)
        st_vc = per_branch(self.st_rceq) * st_i + st_ec
        # C in series with R || L: capacitor history ec, inductor history hl.
        hp_i = per_branch(self.hp_g) * (vp - hp_ec + per_branch(self.hp_rsec) * hp_hl)
        hp_vc = per_branch(self.hp_rceq) * hp_i + hp_ec
        hp_vrl = per_branch(self.hp_rsec) * (hp_i - hp_hl)
        hp_il = per_branch(self.hp_glp) * hp_vrl + hp_hl

        g_shunt = float(np.sum(self.st_g) + np.sum(self.hp_g))
        a = (
            _stamp(g_shunt, vp)
            + _stamp(self.g_fe, v_fe)
            + _stamp(self.g_rl + self.g_cdc, v_dc[None])
        )[:nx, :nx]
        # Source branches: the source current leaves each PCC node's
        # equation, and vp + r_ls i_src = e - z_ls.
        a[list(_PCC)] -= i_src[:, :nx]
        a[_NUM_NODES:] = (vp + self.r_ls * i_src)[:, :nx]

        rhs = np.zeros((nx, nx + nz + 2))
        rhs[list(_PCC)] = (
            (per_branch(self.st_g) * (st_el + st_ec)).sum(axis=0)
            + (per_branch(self.hp_g) * (hp_ec - per_branch(self.hp_rsec) * hp_hl)).sum(axis=0)
            - z_fe
        )
        rhs[list(_BT)] = z_fe
        rhs[_P] = -z_c
        rhs[_N] = z_c
        rhs[_NUM_NODES:] = e - z_ls

        z_next = np.vstack([
            -2.0 * self.r_ls * i_src - z_ls,
            i_fe + self.g_fe * v_fe,
            -2.0 * self.g_cdc * v_dc - z_c,
            flat(-2.0 * per_branch(self.st_rleq) * st_i - st_el),
            flat(2.0 * per_branch(self.st_rceq) * st_i + st_ec),
            flat(2.0 * per_branch(self.hp_rceq) * hp_i + hp_ec),
            flat(2.0 * per_branch(self.hp_glp) * hp_vrl + hp_hl),
        ])
        channels = [
            e, vp, i_src, i_fe,
            st_i.sum(axis=0) + hp_i.sum(axis=0),
            v_dc,
            np.zeros(nx + nz + 2),  # i_dc, set per state
        ]
        aux = [
            ("st_i", flat(st_i)), ("st_vc", flat(st_vc)),
            ("hp_il", flat(hp_il)), ("hp_vc", flat(hp_vc)),
            ("hp_vrl", flat(hp_vrl)),
            ("v_bt", vbt),
        ]
        aux_slices = {}
        pos = len(CHANNEL_IDS)
        for name, forms in aux:
            aux_slices[name] = slice(pos, pos + len(forms))
            pos += len(forms)
        vd = np.vstack([vbt - x[_P], x[_N] - vbt])
        out = np.vstack([vd, z_next, s_next, *channels, *(forms for _, forms in aux)])
        return a, rhs, out, aux_slices

    def _step_map(self, key: int, step: int) -> np.ndarray:
        """Step map of diode state word ``key`` (bit i set when diode i
        conducts), built on its first visit: ``w = [z; s]`` to the signed
        diode voltages, the next ``w`` and the record row."""
        nx = _NUM_UNKNOWNS
        on = (key >> np.arange(6)) & 1 == 1
        g_d = np.where(on, self.g_on, self.g_off)
        vd = self._out_base[:6, :nx]
        lu, piv, _ = dgetrf(self._base_matrix + _stamp(g_d, vd))
        if not np.abs(np.diag(lu)).min() >= 1e-250:
            raise SolverError(f"singular system matrix at step {step}")
        out = self._out_base.copy()
        # Sign the diode rows so every entry is >= 0 exactly when the state
        # is consistent: conducting diodes need v >= 0, blocking ones v <= 0.
        out[:6] *= np.where(on, 1.0, -1.0)[:, None]
        out[self._rec_at + _I_DC] = g_d[:3] @ self._out_base[:3]
        # The unknowns as forms over w: x = X w, solving A X = rhs's w
        # columns against the LU factors.
        x = dgetrs(lu, piv, self._rhs[:, nx:])[0]
        self._maps[key] = out[:, nx:] + out[:, :nx] @ x
        return self._maps[key]

    def run(self) -> WaveformSet:
        n, maps, max_iter = self.n_samples, self._maps, self.max_iter
        rec_at = self._rec_at
        width = self._out_base.shape[0]
        record = np.zeros((n, width - rec_at))
        # Two rows laid out as the step maps' rows take turns: step k maps
        # w = [z; s] of one into the other and records it.
        cur, nxt = (
            (row, row[:6], row[6:rec_at], row[rec_at:])
            for row in np.zeros((2, width))
        )
        cur[2][-2:] = self._s_first

        key = 0  # all diodes blocking
        solves = 0
        flagged: list[int] = []
        # Overflow is reported by the guard after the loop.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, n):
                w = cur[2]
                y, signed_vd, _, rec = nxt
                for it in range(max_iter):
                    f = maps.get(key)
                    if f is None:
                        f = self._step_map(key, k)
                    np.dot(f, w, out=y)
                    vd = signed_vd.tolist()
                    flips = 0 if min(vd) >= 0.0 else sum(
                        1 << i for i, v in enumerate(vd) if v < 0.0
                    )
                    if not flips:
                        break
                    if it < max_iter - 1:
                        key ^= flips
                else:
                    flagged.append(k)
                solves += it + 1
                record[k] = rec
                cur, nxt = nxt, cur
        # v_src as the exact samples, not through the rotated pair.
        record[:, 0:3] = self.esrc

        # Row extremes propagate NaN and reach any infinity, without a
        # record-sized temporary.
        finite = np.isfinite(record.min(axis=1)) & np.isfinite(record.max(axis=1))
        if not finite.all():
            raise SolverError(f"non-finite solution at step {int(np.argmin(finite))}")
        return WaveformSet(
            sample_rate_hz=1.0 / self.dt,
            channels={name: record[:, i] for i, name in enumerate(CHANNEL_IDS)},
            flagged_steps=tuple(flagged),
            aux={name: record[:, sl] for name, sl in self._aux_slices.items()},
            diode_states=len(maps),
            switch_iterations=solves,
        )


def last_cycles_window(
    n_samples: int, sample_rate_hz: float, fundamental_hz: float, n_cycles: int
) -> range:
    """Sample index range covering the last ``n_cycles`` whole fundamental
    periods of an ``n_samples``-long record.

    The sample grid must contain an integer number of samples per period
    and the record must span at least ``n_cycles + 2`` periods so the
    window excludes the start-up transient.
    """
    if n_cycles < 1:
        raise WindowError(f"n_cycles must be >= 1, got {n_cycles!r}")
    if not 0.0 < fundamental_hz < math.inf:
        raise WindowError(
            f"fundamental_hz must be positive and finite, got {fundamental_hz!r}"
        )
    spp_f = sample_rate_hz / fundamental_hz
    spp = round(spp_f)
    if spp < 2 or abs(spp_f - spp) > 1e-6 * spp:
        raise SampleGridError(
            f"{spp_f!r} samples per fundamental period is not an integer; "
            "pick dt = T1/k for an integer k"
        )
    if n_samples < (n_cycles + 2) * spp:
        raise WindowError(
            f"waveform spans {n_samples / spp:g} periods; need at least "
            f"{n_cycles + 2} to window the last {n_cycles}"
        )
    return range(n_samples - n_cycles * spp, n_samples)


def steady_state_window(w: WaveformSet, basis: SystemBasis, n_cycles: int) -> range:
    """Last ``n_cycles`` whole fundamental periods of the waveform set."""
    return last_cycles_window(
        w.n_samples, w.sample_rate_hz, basis.fundamental_hz, n_cycles
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
    resistors, diode conduction/blocking) and the net change of every
    inductor and capacitor energy.  The relative imbalance is the defect
    normalized by the largest term.
    """
    if window.start < 0 or window.stop > w.n_samples or len(window) < 2:
        raise WindowError(f"window {window!r} does not fit the waveform")
    sl = slice(window.start, window.stop)
    dt = w.dt_s
    ch = w.channels
    basis, load = scenario.basis, scenario.load

    v_src = np.stack([ch[f"v_src_{p}"][sl] for p in "abc"])
    i_src = np.stack([ch[f"i_src_{p}"][sl] for p in "abc"])
    i_bridge = np.stack([ch[f"i_bridge_{p}"][sl] for p in "abc"])
    v_dc = ch["v_dc"][sl]
    i_dc = ch["i_dc"][sl]
    v_bt = w.aux["v_bt"][sl].T

    e_source = float(trapezoid(np.sum(v_src * i_src, axis=0), dx=dt))

    p_load = v_dc**2 / load.load_resistance_ohm
    p_bridge = np.sum(v_bt * i_bridge, axis=0) - v_dc * i_dc

    st = scenario.bank.single_tuned if scenario.bank else ()
    hp = scenario.bank.high_pass if scenario.bank else ()
    n_win = len(v_dc)
    st_i = w.aux["st_i"][sl].reshape(n_win, len(st), 3)
    st_vc = w.aux["st_vc"][sl].reshape(n_win, len(st), 3)
    hp_il = w.aux["hp_il"][sl].reshape(n_win, len(hp), 3)
    hp_vc = w.aux["hp_vc"][sl].reshape(n_win, len(hp), 3)
    hp_vrl = w.aux["hp_vrl"][sl].reshape(n_win, len(hp), 3)
    p_filter = np.zeros(n_win)
    for j, branch in enumerate(st):
        p_filter = p_filter + branch.resistance_ohm * np.sum(st_i[:, j, :] ** 2, axis=1)
    for j, branch in enumerate(hp):
        p_filter = p_filter + np.sum(hp_vrl[:, j, :] ** 2, axis=1) / branch.resistance_ohm
    e_load = float(trapezoid(p_load, dx=dt))
    e_bridge = float(trapezoid(p_bridge, dx=dt))
    e_filter = float(trapezoid(p_filter, dx=dt))
    e_diss = e_load + e_bridge + e_filter

    def stored(idx: int) -> float:
        e = 0.5 * basis.source_inductance_h * float(np.sum(i_src[:, idx] ** 2))
        e += 0.5 * load.front_end_inductance_h * float(np.sum(i_bridge[:, idx] ** 2))
        e += 0.5 * load.load_capacitance_f * v_dc[idx] ** 2
        for j, branch in enumerate(st):
            e += 0.5 * branch.inductance_h * float(np.sum(st_i[idx, j, :] ** 2))
            e += 0.5 * branch.capacitance_f * float(np.sum(st_vc[idx, j, :] ** 2))
        for j, branch in enumerate(hp):
            e += 0.5 * branch.inductance_h * float(np.sum(hp_il[idx, j, :] ** 2))
            e += 0.5 * branch.capacitance_f * float(np.sum(hp_vc[idx, j, :] ** 2))
        return e

    stored_delta = stored(-1) - stored(0)
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
