"""Mitigation strategies: wrap any estimator, stay on the batched hot path.

A :class:`MitigationStrategy` turns a raw :class:`~repro.execution.estimator.
Estimator` into a mitigated one via ``wrap(estimator)``; the wrapped object
implements the same ``estimate`` / ``estimate_many`` / ``energy`` protocol,
so every consumer (tier evaluation, VQE endpoints, user code) treats
mitigated and raw estimates uniformly.  Three rules keep wrapping cheap and
honest:

* **Batch-first.** ZNE evaluates each folded noise scale as exactly *one*
  ``estimate_many`` call on that scale's estimator -- the PR-1/PR-4 batched
  hot path -- never a per-point loop.  A ``k``-point batch at ``m`` scales
  costs ``m`` batched evaluations, not ``k*m`` serial ones.
* **Composable.** Wrappers expose ``with_problem`` just like the concrete
  estimators, so stacks re-fold correctly: ``"zne|readout"`` readout-corrects
  every folded scale, then extrapolates.
* **Observable.** Wrapping runs under a ``mitigation.wrap`` span, mitigated
  batches under ``mitigation.estimate_many`` with the raw per-scale circuit
  evaluations re-emitted as ``loss.*`` child events -- ``repro trace
  summary`` therefore buckets mitigation overhead (folding, extrapolation,
  inversion) separately from raw loss evaluation.

Built-ins (see ``registry.py`` for the ``"zne:folds=3|readout"`` grammar):
``none`` (the default; ``wrap`` is the identity, bit-for-bit), ``zne``
(zero-noise extrapolation, global or per-gate folding, linear / richardson /
exponential fits), and ``readout`` (tensored confusion-matrix inversion of
per-term expectations).
"""

from __future__ import annotations

import time
from dataclasses import replace as _dc_replace

import numpy as np

from ..execution.estimator import BatchResult, EstimateResult
from ..naming import did_you_mean
from ..obs import REGISTRY, get_tracer
from .folding import fold_gates, fold_template_global
from .zne import (
    exponential_extrapolation,
    linear_extrapolation,
    richardson_extrapolation,
)

_WRAPS = REGISTRY.counter(
    "repro_mitigation_wraps_total",
    "Estimators wrapped by a mitigation strategy")
_SCALE_EVALS = REGISTRY.counter(
    "repro_mitigation_scale_evaluations_total",
    "Parameter points evaluated per amplified noise scale")


class MitigationStrategy:
    """One error-mitigation technique, applied by wrapping an estimator.

    Subclasses set ``name`` / ``description`` and implement ``_wrap``;
    parameterized strategies (``zne``) also override ``parameterize`` so the
    registry grammar can configure registered prototypes.
    """

    name: str = ""
    description: str = ""

    def describe(self) -> str:
        """One line for ``repro mitigations`` (parameters included)."""
        return self.description

    def parameterize(self, **params) -> "MitigationStrategy":
        """A configured copy; the default strategy takes no parameters."""
        if params:
            raise ValueError(
                f"mitigation {self.name!r} takes no parameters "
                f"(got {sorted(params)})")
        return self

    def wrap(self, estimator):
        """Mitigated view of ``estimator`` (same Estimator protocol)."""
        with get_tracer().span("mitigation.wrap", mitigation=self.name):
            wrapped = self._wrap(estimator)
        _WRAPS.inc(mitigation=self.name)
        return wrapped

    def _wrap(self, estimator):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NoMitigation(MitigationStrategy):
    """The default: pass the estimator through untouched.

    ``wrap`` returns its argument, so a run with ``mitigation="none"`` is
    bit-identical to one that never mentions mitigation (golden-tested).
    """

    name = "none"
    description = "no mitigation: raw estimates, bit-identical passthrough"

    def _wrap(self, estimator):
        return estimator


class ZNEMitigation(MitigationStrategy):
    """Zero-noise extrapolation over digitally folded circuit variants."""

    name = "zne"
    description = ("zero-noise extrapolation over folded circuits "
                   "(folds=3, fit=linear, folding=gates)")

    _FITS = {"linear": "linear", "richardson": "richardson",
             "exp": "exponential", "exponential": "exponential"}
    _DEFAULTS = {"folds": 3, "fit": "linear", "folding": "gates"}

    def __init__(self, folds: int = 3, fit: str = "linear",
                 folding: str = "gates"):
        folds = int(folds)
        if folds < 2:
            raise ValueError(
                f"zne needs folds >= 2 (one amplified scale beyond the raw "
                f"circuit), got {folds}")
        if str(fit) not in self._FITS:
            raise ValueError(
                f"unknown zne fit {fit!r}{did_you_mean(fit, self._FITS)}; "
                f"choose from {sorted(set(self._FITS))}")
        if folding not in ("gates", "global"):
            raise ValueError(
                f"unknown zne folding {folding!r}; choose 'gates' or "
                f"'global'")
        self.folds = folds
        self.fit = self._FITS[str(fit)]
        self.folding = folding
        #: Odd noise scales 1, 3, ..., 2*folds - 1 (scale 1 = raw circuit).
        self.scales = tuple(range(1, 2 * folds, 2))
        self.name = self._canonical_name()

    def _canonical_name(self) -> str:
        parts = []
        if self.folds != self._DEFAULTS["folds"]:
            parts.append(f"folds={self.folds}")
        if self.fit != self._DEFAULTS["fit"]:
            parts.append(f"fit={self.fit}")
        if self.folding != self._DEFAULTS["folding"]:
            parts.append(f"folding={self.folding}")
        return "zne" + (":" + ",".join(parts) if parts else "")

    def describe(self) -> str:
        return (f"ZNE: scales {self.scales}, {self.fit} fit, "
                f"{self.folding} folding")

    def parameterize(self, **params) -> "ZNEMitigation":
        config = {"folds": self.folds, "fit": self.fit,
                  "folding": self.folding}
        unknown = [key for key in params if key not in config]
        if unknown:
            raise ValueError(
                f"zne does not take parameter(s) {unknown}"
                f"{did_you_mean(unknown[0], config)}; "
                f"known: {sorted(config)}")
        config.update(params)
        return type(self)(**config)

    def _wrap(self, estimator):
        return _ZNEEstimator(estimator, self)


class ReadoutMitigation(MitigationStrategy):
    """Tensored confusion-matrix inversion of per-term expectations."""

    name = "readout"
    description = ("readout mitigation: invert the tensored confusion "
                   "matrices on every term expectation")

    def _wrap(self, estimator):
        return _ReadoutEstimator(estimator)


class ComposedMitigation(MitigationStrategy):
    """A declarative stack, e.g. ``"zne:folds=3|readout"``.

    Stages wrap right-to-left, so the leftmost stage is outermost: ZNE's
    folded-scale evaluations each pass through readout correction before
    the extrapolation sees them.
    """

    def __init__(self, stages):
        stages = tuple(stages)
        if len(stages) < 2:
            raise ValueError("a composed mitigation needs at least two "
                             "stages; use the single strategy directly")
        for stage in stages:
            if not isinstance(stage, MitigationStrategy):
                raise TypeError(f"composed stages must be "
                                f"MitigationStrategy instances, got {stage!r}")
        self.stages = stages
        self.name = "|".join(stage.name for stage in stages)

    def describe(self) -> str:
        return " | ".join(stage.describe() for stage in self.stages)

    def _wrap(self, estimator):
        for stage in reversed(self.stages):
            estimator = stage.wrap(estimator)
        return estimator


# ----------------------------------------------------------------------
# Wrapped estimators
# ----------------------------------------------------------------------
class _WrappedEstimator:
    """Delegation shared by the mitigation wrappers (Estimator protocol)."""

    mode = "wrapped"

    def __init__(self, inner):
        self.inner = inner

    @property
    def problem(self):
        return self.inner.problem

    @property
    def observable(self):
        return self.inner.observable

    @property
    def noise_model(self):
        return self.inner.noise_model

    @property
    def num_evaluations(self) -> int:
        return self.inner.num_evaluations

    def estimate(self, theta: np.ndarray) -> EstimateResult:
        batch = self.estimate_many(np.atleast_2d(np.asarray(theta, float)))
        return batch.results[0]

    def estimate_many(self, thetas: np.ndarray) -> BatchResult:
        raise NotImplementedError

    def energy(self, theta: np.ndarray) -> float:
        return self.estimate(theta).value

    def __call__(self, theta: np.ndarray) -> float:
        return self.energy(theta)

    def with_problem(self, problem):
        raise NotImplementedError


def _clone_with_problem(estimator, problem):
    clone = getattr(estimator, "with_problem", None)
    if clone is None:
        raise TypeError(
            f"{type(estimator).__name__} has no with_problem(); zne needs "
            f"it to evaluate folded circuit variants")
    return clone(problem)


class _ZNEEstimator(_WrappedEstimator):
    """ZNE view of an estimator: fold once, batch per scale, extrapolate.

    Folded templates are built eagerly at wrap time (one clone of the inner
    estimator per scale > 1, each over a folded-ansatz problem).  Every
    ``estimate_many(thetas)`` issues exactly one batched call per scale --
    the whole point batch rides the inner estimator's amortized path -- and
    extrapolates each point's scale curve to zero noise.  Degenerate curves
    (sign changes, growth) fall back from the configured fit to the straight
    line, which is always defined.
    """

    def __init__(self, inner, strategy: ZNEMitigation):
        super().__init__(inner)
        self.strategy = strategy
        self.scales = strategy.scales
        self.mode = f"zne({inner.mode})"
        template = inner.problem.eval_ansatz
        self._num_parameters = template.num_parameters
        self._per_scale = []
        for scale in self.scales:
            if scale == 1:
                self._per_scale.append((1, inner))
                continue
            if strategy.folding == "global":
                folded = fold_template_global(template, scale)
            else:
                folded = fold_gates(template, scale)
            problem = _dc_replace(inner.problem, eval_ansatz=folded)
            self._per_scale.append(
                (scale, _clone_with_problem(inner, problem)))

    @property
    def num_evaluations(self) -> int:
        return sum(est.num_evaluations for _, est in self._per_scale)

    def _thetas_for(self, scale: int, thetas: np.ndarray) -> np.ndarray:
        if scale == 1 or self.strategy.folding != "global":
            return thetas
        # global fold blocks own disjoint parameter windows; odd (inverse)
        # blocks take -theta (see fold_template_global)
        blocks = [thetas if b % 2 == 0 else -thetas for b in range(scale)]
        return np.hstack(blocks)

    def estimate_many(self, thetas: np.ndarray) -> BatchResult:
        start = time.perf_counter()
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        num_points = len(thetas)
        tracer = get_tracer()
        with tracer.span("mitigation.estimate_many",
                         mitigation=self.strategy.name, points=num_points,
                         scales=len(self.scales)):
            batches = []
            for scale, est in self._per_scale:
                # ONE batched call per scale: the whole point set at once
                batch = est.estimate_many(self._thetas_for(scale, thetas))
                _SCALE_EVALS.inc(num_points, scale=str(scale))
                tracer.event("loss.scale_eval", batch.seconds,
                             scale=scale, points=num_points)
                batches.append(batch)
            results = [
                self._extrapolate([batch.results[b] for batch in batches])
                for b in range(num_points)]
        return BatchResult(
            values=np.array([r.value for r in results]),
            results=results,
            seconds=time.perf_counter() - start)

    def _fit(self, values: list[float]) -> float:
        try:
            if self.strategy.fit == "exponential":
                return exponential_extrapolation(
                    self.scales, values,
                    asymptote=self.observable.identity_constant())
            if self.strategy.fit == "richardson":
                return richardson_extrapolation(self.scales, values)
            return linear_extrapolation(self.scales, values)
        except ValueError:
            return linear_extrapolation(self.scales, values)

    def _extrapolate(self, curve: list[EstimateResult]) -> EstimateResult:
        mitigated = self._fit([r.value for r in curve])
        exact = None
        if all(r.exact_value is not None for r in curve):
            exact = self._fit([r.exact_value for r in curve])
        base = curve[0]
        return EstimateResult(
            value=mitigated, exact_value=exact,
            term_expectations=base.term_expectations,
            variance=None, shots=base.shots,
            seconds=sum(r.seconds for r in curve), mode=self.mode)

    def with_problem(self, problem):
        return _ZNEEstimator(
            _clone_with_problem(self.inner, problem), self.strategy)


class _ReadoutEstimator(_WrappedEstimator):
    """Readout-corrected view: divide out the readout attenuation per term.

    The evaluators attenuate each measured term by ``prod (1 - p01 - p10)``
    over its support (the shared convention of
    ``NoiseModel.measurement_attenuations``); this wrapper inverts
    exactly that factor -- the tensored confusion-matrix inversion in the
    symmetric-channel expectation picture -- and leaves the basis-prep depol
    factor alone, since it models gate noise, not assignment error.  The
    energy is adjusted in delta form ``value + sum_i c_i (t'_i - t_i)`` so
    identity handling and sampled noise stay consistent with the inner
    estimator.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.mode = f"readout({inner.mode})"
        observable = inner.observable
        support = observable.table.supports_mask()
        attenuation = np.asarray(
            inner.noise_model.readout_z_attenuation(), float)
        factors = np.prod(
            np.where(support, attenuation[None, :], 1.0), axis=1)
        if np.any(factors <= 0.0):
            raise ValueError(
                "readout mitigation cannot invert the confusion model: a "
                "term's readout attenuation is <= 0 (p01 + p10 >= 1 on its "
                "support)")
        self._factors = factors
        self._coefficients = observable.coefficients

    def estimate_many(self, thetas: np.ndarray) -> BatchResult:
        start = time.perf_counter()
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        tracer = get_tracer()
        with tracer.span("mitigation.estimate_many", mitigation="readout",
                         points=len(thetas)):
            batch = self.inner.estimate_many(thetas)
            tracer.event("loss.scale_eval", batch.seconds, scale=1,
                         points=len(thetas))
            _SCALE_EVALS.inc(len(thetas), scale="1")
            results = [self._correct(result) for result in batch.results]
        return BatchResult(
            values=np.array([r.value for r in results]),
            results=results,
            seconds=time.perf_counter() - start)

    def _correct(self, result: EstimateResult) -> EstimateResult:
        terms = np.asarray(result.term_expectations, float)
        corrected = terms / self._factors
        delta = float(self._coefficients @ (corrected - terms))
        exact = (None if result.exact_value is None
                 else result.exact_value + delta)
        return EstimateResult(
            value=result.value + delta, exact_value=exact,
            term_expectations=corrected, variance=None,
            shots=result.shots, seconds=result.seconds, mode=self.mode)

    def with_problem(self, problem):
        return _ReadoutEstimator(_clone_with_problem(self.inner, problem))
