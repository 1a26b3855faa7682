"""Device noise models: the parameters Clapton extracts from calibration.

A :class:`NoiseModel` collects, per physical qubit / qubit pair, exactly the
quantities the paper's framework reads from IBM backend calibration data
(Sec. 5.2.2): depolarizing gate-error strengths, thermal decay times T1/T2,
gate durations, and asymmetric readout misassignment probabilities.

Two consumers share one model instance:

* the **full device model** (:mod:`repro.densesim.evaluator`) applies every
  channel exactly -- including non-Clifford amplitude damping -- and defines
  the "device (model) evaluation" energies of Figure 5;
* the **Clifford noise model** (:mod:`repro.noise.clifford_model`) keeps only
  the Pauli-channel part (depolarizing + readout flips, optionally
  Pauli-twirled relaxation), which is what Clapton's loss L_N can afford to
  simulate classically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..densesim import channels as ch
from ..paulis import bitops


@dataclass(frozen=True)
class ChannelSpec:
    """One noise channel in structured (closed-form-applicable) form.

    Kinds:
        ``"depol"``: params ``(p,)`` -- depolarizing of strength p.
        ``"relax"``: params ``(gamma, eta)`` -- thermal relaxation with
            decay probability gamma and coherence retention eta.
        ``"unitary_zz"``: params ``(angle,)`` -- coherent exp(-i angle Z x Z).
        ``"pauli1q"``: params ``(p_x, p_y, p_z)`` -- single-qubit stochastic
            Pauli channel (the logical-qubit error model of Sec. 8).
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...]

    def kraus_operators(self) -> list[np.ndarray]:
        """Equivalent Kraus set (reference path used in tests)."""
        if self.kind == "depol":
            return ch.depolarizing_kraus(self.params[0], len(self.qubits))
        if self.kind == "relax":
            gamma, eta = self.params
            damping = ch.amplitude_damping_kraus(gamma)
            # top up dephasing so total coherence retention equals eta
            base = float(np.sqrt(1.0 - gamma))
            lam = 1.0 - min(1.0, (eta / base) ** 2) if base > 0 else 0.0
            return ch.compose_kraus(damping, ch.phase_damping_kraus(lam))
        if self.kind == "unitary_zz":
            phase = np.exp(-1j * self.params[0])
            return [np.diag([phase, phase.conjugate(),
                             phase.conjugate(), phase])]
        if self.kind == "pauli1q":
            from ..paulis.pauli import PAULI_MATRICES

            px, py, pz = self.params
            ops = [np.sqrt(max(0.0, 1 - px - py - pz)) * PAULI_MATRICES["I"]]
            for p, label in zip((px, py, pz), "XYZ"):
                if p > 0:
                    ops.append(np.sqrt(p) * PAULI_MATRICES[label])
            return ops
        raise ValueError(f"unknown channel kind {self.kind!r}")


#: The noisy walk's factor pass (:mod:`repro.noise.clifford_model`) and
#: :meth:`NoiseModel.measurement_attenuations` fold at most about this
#: many factors at a time: a chunk's float matrix and intp index are
#: 64 KiB each, under glibc's 128 KiB mmap threshold, so they come from
#: the heap.  They are also part of a batch's transient heap, and a
#: batch whose transient heap grows past glibc's trim threshold (twice
#: the largest mmapped chunk freed so far) gets its heap top trimmed on
#: free and faults the pages back in on the next batch.  nCAFQA's batch
#: at 32 qubits sits near that threshold: with 2^14-factor chunks (130 KB
#: more at its peak) it faulted ~180 pages back in per steady-state
#: batch, with 2^13 none.
_FOLD_CELLS = 1 << 13


def _ordered_product(bits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per column ``m``, the product of ``values[q]`` over the set
    ``bits[q, m]``, ``q`` ascending: a ``(n, M)`` bit matrix in, ``(M,)``
    out.  An unset bit contributes an exact 1.0 and the axis-0 product
    multiplies one row at a time, so this is the same left fold, bit for
    bit, as attenuating qubit by qubit.  Columns go through in chunks of
    at most about ``_FOLD_CELLS`` factors."""
    out = np.empty(bits.shape[1])
    step = max(1, _FOLD_CELLS // max(len(values), 1))
    for start in range(0, bits.shape[1], step):
        chunk = bits[:, start:start + step]
        factors = chunk * values[:, None]
        factors += ~chunk
        np.prod(factors, axis=0, out=out[start:start + step])
    return out


def _per_qubit(value, num_qubits: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(num_qubits, float(arr))
    if arr.shape != (num_qubits,):
        raise ValueError(f"expected scalar or length-{num_qubits} array")
    return arr


@dataclass
class NoiseModel:
    """Per-qubit noise parameters of a device (or synthetic sweep point).

    Attributes:
        num_qubits: Size of the physical register.
        depol_1q: Single-qubit depolarizing strength per qubit.
        depol_2q_default: Two-qubit depolarizing strength used for pairs
            absent from ``depol_2q``.
        depol_2q: Optional per-pair strengths keyed by sorted qubit pair.
        t1: Amplitude-damping decay time per qubit, in seconds
            (``None`` disables thermal relaxation entirely).
        t2: Total dephasing time per qubit, clamped to ``2 * t1``.
        readout_p01: P(report 1 | state 0) per qubit.
        readout_p10: P(report 0 | state 1) per qubit.
        gate_time_1q: Duration of single-qubit gates (s).
        gate_time_2q: Duration of two-qubit gates (s).
        include_relaxation: Whether the *full* model applies thermal
            relaxation channels (the Clifford model never does unless
            twirling is requested explicitly).
        coherent_zz_angle_2q: Coherent ``exp(-i * angle * Z x Z)``
            over-rotation appended after every two-qubit gate.  Zero for
            calibrated models; the hanoi *hardware twin* sets it non-zero to
            emulate device effects absent from any calibration-derived model
            (the model-device discrepancy studied in Sec. 6.1).
    """

    num_qubits: int
    depol_1q: np.ndarray
    depol_2q_default: float
    depol_2q: dict[tuple[int, int], float] = field(default_factory=dict)
    t1: np.ndarray | None = None
    t2: np.ndarray | None = None
    readout_p01: np.ndarray = None
    readout_p10: np.ndarray = None
    gate_time_1q: float = 35e-9
    gate_time_2q: float = 300e-9
    include_relaxation: bool = True
    coherent_zz_angle_2q: float = 0.0
    #: schedule thermal relaxation on *idle* qubits as well (ASAP schedule
    #: with per-qubit clocks).  Only the full density-matrix model honours
    #: this -- the Clifford model never sees relaxation, which is exactly
    #: the modeling gap the paper studies.
    include_idle_relaxation: bool = False
    #: per-qubit (p_x, p_y, p_z) Pauli-flip channel after every gate, the
    #: discretized error model of error-corrected logical qubits that the
    #: paper's conclusion (Sec. 8) points to.  ``None`` disables it.
    logical_flip_probs: tuple[float, float, float] | None = None

    def __post_init__(self):
        n = self.num_qubits
        self.depol_1q = _per_qubit(self.depol_1q, n)
        if self.readout_p01 is None:
            self.readout_p01 = np.zeros(n)
        if self.readout_p10 is None:
            self.readout_p10 = np.zeros(n)
        self.readout_p01 = _per_qubit(self.readout_p01, n)
        self.readout_p10 = _per_qubit(self.readout_p10, n)
        if self.t1 is not None:
            self.t1 = _per_qubit(self.t1, n)
            self.t2 = (_per_qubit(self.t2, n) if self.t2 is not None
                       else self.t1.copy())
            self.t2 = np.minimum(self.t2, 2 * self.t1)
        self.depol_2q = {tuple(sorted(k)): float(v)
                         for k, v in self.depol_2q.items()}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, num_qubits: int, depol_1q: float = 1e-3,
                depol_2q: float = 1e-2, readout: float = 2e-2,
                t1: float | None = None, t2: float | None = None,
                **kwargs) -> "NoiseModel":
        """Globally uniform parameters -- the setting of the Fig. 7/8 sweeps."""
        return cls(num_qubits=num_qubits, depol_1q=depol_1q,
                   depol_2q_default=depol_2q,
                   readout_p01=readout, readout_p10=readout,
                   t1=(np.full(num_qubits, t1) if t1 is not None else None),
                   t2=(np.full(num_qubits, t2) if t2 is not None else None),
                   **kwargs)

    @classmethod
    def noiseless(cls, num_qubits: int) -> "NoiseModel":
        return cls(num_qubits=num_qubits, depol_1q=0.0, depol_2q_default=0.0,
                   t1=None, include_relaxation=False)

    @classmethod
    def logical(cls, num_qubits: int, flip_x: float = 1e-4,
                flip_z: float = 1e-4, readout: float = 1e-4) -> "NoiseModel":
        """Error-corrected-era model (Sec. 8): discrete bit/phase flips.

        No depolarizing continuum, no relaxation -- just independent X and Z
        flips after every gate (``p_y = p_x * p_z`` is second order and
        dropped) and a small residual logical readout error.
        """
        return cls(num_qubits=num_qubits, depol_1q=0.0, depol_2q_default=0.0,
                   t1=None, include_relaxation=False,
                   readout_p01=readout, readout_p10=readout,
                   logical_flip_probs=(flip_x, 0.0, flip_z))

    def with_overrides(self, **kwargs) -> "NoiseModel":
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # JSON round trip (campaign specs ship noise models between workers)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON form; inverse of :meth:`from_dict`."""
        return {
            "num_qubits": self.num_qubits,
            "depol_1q": np.asarray(self.depol_1q).tolist(),
            "depol_2q_default": float(self.depol_2q_default),
            "depol_2q": [[int(a), int(b), float(p)]
                         for (a, b), p in sorted(self.depol_2q.items())],
            "t1": None if self.t1 is None else np.asarray(self.t1).tolist(),
            "t2": None if self.t2 is None else np.asarray(self.t2).tolist(),
            "readout_p01": np.asarray(self.readout_p01).tolist(),
            "readout_p10": np.asarray(self.readout_p10).tolist(),
            "gate_time_1q": float(self.gate_time_1q),
            "gate_time_2q": float(self.gate_time_2q),
            "include_relaxation": bool(self.include_relaxation),
            "coherent_zz_angle_2q": float(self.coherent_zz_angle_2q),
            "include_idle_relaxation": bool(self.include_idle_relaxation),
            "logical_flip_probs": (
                None if self.logical_flip_probs is None
                else [float(p) for p in self.logical_flip_probs]),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        flips = data.get("logical_flip_probs")
        return cls(
            num_qubits=data["num_qubits"],
            depol_1q=np.asarray(data["depol_1q"], dtype=float),
            depol_2q_default=data["depol_2q_default"],
            depol_2q={(a, b): p for a, b, p in data.get("depol_2q", [])},
            t1=(None if data.get("t1") is None
                else np.asarray(data["t1"], dtype=float)),
            t2=(None if data.get("t2") is None
                else np.asarray(data["t2"], dtype=float)),
            readout_p01=np.asarray(data["readout_p01"], dtype=float),
            readout_p10=np.asarray(data["readout_p10"], dtype=float),
            gate_time_1q=data.get("gate_time_1q", 35e-9),
            gate_time_2q=data.get("gate_time_2q", 300e-9),
            include_relaxation=data.get("include_relaxation", True),
            coherent_zz_angle_2q=data.get("coherent_zz_angle_2q", 0.0),
            include_idle_relaxation=data.get("include_idle_relaxation",
                                             False),
            logical_flip_probs=(None if flips is None else tuple(flips)),
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def two_qubit_depol(self, a: int, b: int) -> float:
        return self.depol_2q.get(tuple(sorted((a, b))), self.depol_2q_default)

    def gate_depol(self, inst) -> float:
        """Depolarizing strength attached to one instruction."""
        if len(inst.qubits) == 1:
            return float(self.depol_1q[inst.qubits[0]])
        return self.two_qubit_depol(*inst.qubits)

    def gate_duration(self, inst) -> float:
        return self.gate_time_1q if len(inst.qubits) == 1 else self.gate_time_2q

    def symmetric_readout_flip(self) -> np.ndarray:
        """Per-qubit symmetrized flip probability ``(p01 + p10) / 2``."""
        return 0.5 * (self.readout_p01 + self.readout_p10)

    def readout_z_attenuation(self) -> np.ndarray:
        """Factor multiplying ``<Z_k>`` under the asymmetric confusion model.

        ``E[(-1)^reported] = (1 - p01 - p10) <Z_k> + (p10 - p01)``; the linear
        coefficient is the attenuation used by both evaluators (the constant
        offset vanishes for symmetric error and is second-order otherwise).
        """
        return 1.0 - self.readout_p01 - self.readout_p10

    def measurement_attenuations(self, table,
                                 include_basis_prep_error: bool = True
                                 ) -> np.ndarray:
        """Per-term readout (+ basis-prep) attenuation factors.

        ``table`` is a word-packed term table.  Term ``m`` is attenuated
        by :meth:`readout_z_attenuation` on every support qubit and, with
        ``include_basis_prep_error``, by one single-qubit depolarizing
        factor ``1 - 4p/3`` per X/Y qubit for its noisy basis-prep
        rotation, each product taken qubit by qubit in ascending order.
        The one implementation both evaluators read, so they differ *only*
        in how gate noise propagates -- the (2) vs (3) comparison the
        paper draws in Fig. 5.
        """
        n = table.num_qubits
        factors = _ordered_product(bitops.unpack_columns(table.x | table.z, n),
                                   self.readout_z_attenuation())
        if include_basis_prep_error:
            prep = 1.0 - 4.0 * self.depol_1q / 3.0
            factors = factors * _ordered_product(
                bitops.unpack_columns(table.x, n), prep)
        return factors

    # ------------------------------------------------------------------
    # Full-model channels
    # ------------------------------------------------------------------
    def channels_after(self, inst) -> list["ChannelSpec"]:
        """Structured noise channels appended after one instruction.

        The density-matrix evaluator dispatches on the channel kind and
        applies each in closed form (no Kraus-operator enumeration).
        """
        out: list[ChannelSpec] = []
        p = self.gate_depol(inst)
        if p > 0:
            out.append(ChannelSpec("depol", inst.qubits, (float(p),)))
        if self.coherent_zz_angle_2q != 0.0 and len(inst.qubits) == 2:
            out.append(ChannelSpec("unitary_zz", inst.qubits,
                                   (float(self.coherent_zz_angle_2q),)))
        if self.logical_flip_probs is not None:
            for q in inst.qubits:
                out.append(ChannelSpec("pauli1q", (q,),
                                       tuple(float(p)
                                             for p in self.logical_flip_probs)))
        if self.include_relaxation and self.t1 is not None:
            duration = self.gate_duration(inst)
            for q in inst.qubits:
                gamma = 1.0 - np.exp(-duration / float(self.t1[q]))
                eta = float(np.exp(-duration / float(self.t2[q])))
                out.append(ChannelSpec("relax", (q,), (float(gamma), eta)))
        return out

    def kraus_after(self, inst) -> list[tuple[list[np.ndarray], tuple[int, ...]]]:
        """Kraus form of :meth:`channels_after` (tests, reference path)."""
        out: list[tuple[list[np.ndarray], tuple[int, ...]]] = []
        for spec in self.channels_after(inst):
            out.append((spec.kraus_operators(), spec.qubits))
        return out

    def relaxation_spec(self, qubit: int, duration: float
                        ) -> "ChannelSpec | None":
        """Relaxation channel for one qubit over an idle/busy window."""
        if self.t1 is None or duration <= 0:
            return None
        gamma = 1.0 - float(np.exp(-duration / float(self.t1[qubit])))
        eta = float(np.exp(-duration / float(self.t2[qubit])))
        return ChannelSpec("relax", (qubit,), (gamma, eta))
