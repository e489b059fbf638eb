"""Logistic-regression meta classifier over segment features.

The rows of a segment table are labeled against ground truth (true vs.
false indication) from one pixel count per (segment, gt kind), features are
z-scored, and a ridge-regularized logistic regression is fitted with damped
Newton iterations (IRLS). Applying the model splits the table into the rows
it keeps and those it scores below the cutoff, which is how false
indications get filtered out after thresholding. Being linear, its weights
rank which hand-crafted features drive the detection.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, NumericalError, SchemaError, ValidationError, _array, _check_ids, _count, _finite,
                     _in_interval, _is_a, _plain)
from .tensor_io import FEATURE_NAMES, IGNORE_ID, OOD_ID, SegmentTable, _first_bad_pixel, _read_json, _write_json

__all__ = [
    "MetaModel",
    "label_segments",
    "standardize_fit",
    "fit_logistic",
    "fit_meta",
    "predict_proba",
    "feature_weights",
    "apply_meta_filter",
    "save_meta_model",
    "load_meta_model",
]

EXCLUDED_LABEL = -1  # segment lay entirely on ignore pixels; drop before fitting


@dataclass(frozen=True)
class MetaModel:
    """Fitted ridge-logistic model plus the standardization it was trained with.

    ``weights`` follow the canonical feature order; indices listed in
    ``dropped_features`` had zero variance at fit time and carry weight
    exactly 0.0 (their ``feature_stds`` entry is 0.0 as well). ``grad_norm``
    and ``n_iter`` are fit diagnostics and are not serialized.
    """

    weights: np.ndarray
    bias: float
    feature_means: np.ndarray
    feature_stds: np.ndarray
    l2_lambda: float
    dropped_features: tuple
    feature_names: tuple
    grad_norm: float = field(default=math.nan, compare=False)
    n_iter: int = field(default=0, compare=False)


def label_segments(segments: SegmentTable, gt: np.ndarray, tau_tp: float = 0.5) -> np.ndarray:
    """Meta-training labels: 1 = true OoD indication, 0 = false, -1 = excluded.

    A segment is a true indication when at least ``tau_tp`` of its pixels lie
    on ground-truth OoD pixels; pixels with the ignore id are excluded from
    both numerator and denominator. Segments consisting solely of ignore
    pixels get ``EXCLUDED_LABEL`` and must be dropped before fitting. The
    shares come from one ``bincount`` over (segment label, gt kind in {OoD,
    other, ignore}); a 3-D label image stacks blocks, each against ``gt``.
    This is the segment-side rule of :func:`oodseg.evaluate.match_segments`.
    """
    tau_tp = _in_interval("tau_tp", tau_tp, "(0, 1]")
    gt = _array("ground-truth mask", gt, 2, "iu")
    labels = segments.require_label_image()
    if gt.shape != labels.shape[-2:]:
        raise SchemaError(f"ground-truth shape {gt.shape} != segment label image shape {labels.shape}")
    top = _check_ids(segments.ids, labels)
    # Only labelled pixels are counted; a pixel of a 3-D image meets gt at its
    # flat index modulo H * W. (nonzero of a bool array is several times faster
    # than of the int32 labels on a fragmented image.)
    flat = labels.ravel()
    on = np.flatnonzero(flat != 0)
    gt = gt.ravel().take(on % gt.size if labels.ndim > 2 else on)
    key = flat.take(on) * 3
    key += gt != OOD_ID
    key += gt == IGNORE_ID
    counts = np.bincount(key, minlength=3 * (top + 1)).reshape(-1, 3)
    on_ood, other = counts[segments.ids + 1, :2].T
    considered = on_ood + other
    share = np.divide(on_ood, considered, out=np.zeros(len(segments)), where=considered > 0)
    return np.where(considered == 0, EXCLUDED_LABEL, share >= tau_tp).astype(np.int64)


def _require_finite_features(x: np.ndarray) -> None:
    """Raise ValidationError naming the first row and column of a table with a NaN or inf."""
    bad = ~np.isfinite(x)
    if bad.any():
        r, c = _first_bad_pixel(bad)
        raise ValidationError(f"feature row {r}, column {c}: non-finite value")


def standardize_fit(features: np.ndarray):
    """Z-score a feature table column-wise with the population std.

    Returns ``(standardized, means, stds, dropped)``. Columns that are exactly
    constant have std 0; they are reported in ``dropped`` (sorted indices) and
    their standardized values are set to 0.0 so downstream fits see no signal
    from them. NaN and inf raise ValidationError. The table is read as a
    C-ordered float64 copy, so every memory layout gives the same bytes.
    """
    x = np.ascontiguousarray(_array("feature table", features, 2, "biuf"), dtype=np.float64)
    _require_finite_features(x)
    if x.shape[0] < 1:
        raise DomainError("feature table needs at least one row")
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    constant = x.max(axis=0) == x.min(axis=0)
    stds = np.where(constant, 0.0, stds)  # a constant column's std is exactly 0
    dropped = np.flatnonzero(constant)
    safe = np.where(stds == 0.0, 1.0, stds)
    standardized = (x - means) / safe
    standardized[:, dropped] = 0.0
    return standardized, means, stds, dropped


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _objective(xa: np.ndarray, y: np.ndarray, theta: np.ndarray, lam: float) -> float:
    z = xa @ theta
    # y*z - log(1 + e^z) is the pointwise log-likelihood of a Bernoulli logit
    return float(np.sum(y * z - np.logaddexp(0.0, z)) - 0.5 * lam * (theta @ theta))


def _check_fit_options(l2_lambda, max_iter, grad_tol) -> None:
    """DomainError unless l2_lambda and grad_tol are finite numbers >= 0 and max_iter is an integer >= 0."""
    for name, value in (("l2_lambda", l2_lambda), ("grad_tol", grad_tol)):
        if not _finite(value) or value < 0:
            raise DomainError(f"{name} must be a finite number >= 0, got {_plain(value)}")
    _count("max_iter", max_iter, 0)


def _fit(x, means, stds, dropped, labels, l2_lambda, max_iter, grad_tol) -> MetaModel:
    """Check the labels, then fit on the columns of ``x`` not in ``dropped``, which get weight 0.0.

    One C-ordered matrix ``xa = [x | 1]`` holds the bias as its last column.
    """
    n, d = x.shape
    y = _array("labels", labels, 1, "biuf").astype(np.float64, copy=False)
    if y.shape[0] != n:
        raise SchemaError(f"{n} rows but {y.shape[0]} labels")
    if not np.isin(y, (0.0, 1.0)).all():
        raise DomainError("labels must be 0 or 1 (drop excluded segments first)")
    lam = float(l2_lambda)
    kept = np.setdiff1d(np.arange(d), dropped)
    xa = np.ones((n, kept.size + 1))
    xa[:, :-1] = x[:, kept]

    theta = np.zeros(xa.shape[1])
    f = _objective(xa, y, theta, lam)
    n_iter, tied, last_norm = 0, False, math.inf
    while True:
        mu = _sigmoid(xa @ theta)
        grad = xa.T @ (y - mu) - lam * theta
        if not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite gradient", iteration=n_iter)
        grad_norm = float(np.abs(grad).max())
        if grad_norm < grad_tol or n_iter >= max_iter or (tied and grad_norm >= last_norm):
            break
        s = mu * (1.0 - mu)
        hess = xa.T @ (s[:, None] * xa)
        hess[np.diag_indices_from(hess)] += lam
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular Hessian: {exc}", iteration=n_iter) from exc
        # Newton steps on this concave objective rarely overshoot, but halve
        # deterministically if one would lower the objective (a tie is taken).
        scale = 1.0
        for _ in range(60):
            candidate = theta + scale * step
            f_next = _objective(xa, y, candidate, lam)
            if f_next >= f:
                break
            scale *= 0.5
        else:
            break
        tied, last_norm = f_next == f, grad_norm
        theta, f = candidate, f_next
        n_iter += 1

    weights = np.zeros(d)
    weights[kept] = theta[:-1]
    names = FEATURE_NAMES if d == len(FEATURE_NAMES) else tuple(f"f{i}" for i in range(d))
    dropped = tuple(int(i) for i in dropped)
    return MetaModel(weights, float(theta[-1]), means, stds, lam, dropped, names, grad_norm, n_iter)


def fit_logistic(features: np.ndarray, labels: np.ndarray, l2_lambda: float = 1e-3, max_iter: int = 500,
                 grad_tol: float = 1e-8) -> MetaModel:
    """Maximize the ridge-penalized Bernoulli log-likelihood by damped Newton (IRLS).

    ``features`` is expected to be standardized already (see
    :func:`standardize_fit` / :func:`fit_meta`); the returned model therefore
    records identity standardization. Starts from zero parameters and solves
    the (d+1)-dimensional Newton system of the C-ordered ``[x | 1]``, so the
    input's memory layout changes no byte; a step is halved while it would
    lower the objective. Stops when the gradient infinity-norm falls below
    ``grad_tol``, after ``max_iter`` updates, when no halving keeps the
    objective from falling, or when a step that left it equal did not shrink
    the gradient: ``grad_norm >= grad_tol`` with ``n_iter < max_iter`` tells
    that rounding stopped the fit.

    The L2 term ``(lambda/2)(||w||^2 + b^2)`` includes the bias, which keeps
    the optimum finite even for single-class label sets.
    """
    _check_fit_options(l2_lambda, max_iter, grad_tol)
    x = _array("feature table", features, 2, "biuf")
    if x.shape[0] < 1:
        raise DomainError("cannot fit on an empty table")
    return _fit(x, np.zeros(x.shape[1]), np.ones(x.shape[1]), (), labels, l2_lambda, max_iter, grad_tol)


def fit_meta(features: np.ndarray, labels: np.ndarray, l2_lambda: float = 1e-3, max_iter: int = 500,
             grad_tol: float = 1e-8) -> MetaModel:
    """Standardize a raw feature table and fit the meta classifier on it as :func:`fit_logistic` does.

    Zero-variance columns are dropped from the fit and come back with weight
    exactly 0.0; the returned model carries the training means/stds so
    :func:`predict_proba` can standardize raw features internally. NaN and
    inf features raise ValidationError naming the row and column.
    """
    _check_fit_options(l2_lambda, max_iter, grad_tol)
    return _fit(*standardize_fit(features), labels, l2_lambda, max_iter, grad_tol)


def predict_proba(model: MetaModel, features: np.ndarray) -> np.ndarray:
    """Probability that each row is a true OoD indication: sigma(w . z + b).

    ``features`` are raw (unstandardized); the model's means/stds are applied
    internally. Dropped features contribute nothing because their weights
    are exactly zero. NaN and inf features raise ValidationError naming the
    row and column.
    """
    x = np.ascontiguousarray(_array("feature table", features, 2, "biuf"), dtype=np.float64)
    if x.shape[1] != model.weights.shape[0]:
        raise SchemaError(f"expected {model.weights.shape[0]} feature columns, got {x.shape[1]}")
    _require_finite_features(x)
    safe = np.where(model.feature_stds == 0.0, 1.0, model.feature_stds)
    z = (x - model.feature_means) / safe
    return _sigmoid(z @ model.weights + model.bias)


def feature_weights(model: MetaModel) -> list:
    """Features ranked by |weight| descending; ties keep canonical order."""
    order = np.argsort(-np.abs(model.weights), kind="stable")
    return [(model.feature_names[i], float(model.weights[i])) for i in order]


def apply_meta_filter(segments: SegmentTable, model: MetaModel, cutoff: float = 0.5):
    """Split a table into (kept, removed) sub-tables by thresholding predict_proba at cutoff.

    Both preserve the input order. Removing a segment can only lower
    the false-positive count and raise the false-negative count of a
    downstream matching, never the reverse.
    """
    cutoff = _in_interval("cutoff", cutoff, "(0, 1)")
    keep = predict_proba(model, segments.require_features()) >= cutoff
    return segments[keep], segments[~keep]


def _checked_parameters(payload, path):
    """Checked weights, means, stds and dropped indices of a model payload; errors name ``path``."""
    required = {"weights", "bias", "means", "stds", "lambda", "dropped", "feature_names"}
    if not isinstance(payload, dict) or set(payload) != required:
        raise SchemaError(f"{path}: model JSON must have exactly the keys {sorted(required)}")
    if payload["feature_names"] != list(FEATURE_NAMES):
        raise SchemaError(f"{path}: feature_names do not match the canonical feature order")
    n = len(FEATURE_NAMES)
    vectors = [payload[key] for key in ("weights", "means", "stds")]
    if not all(isinstance(v, list) and len(v) == n for v in vectors):
        raise SchemaError(f"{path}: weights/means/stds must each have {n} entries")
    values = [*vectors[0], *vectors[1], *vectors[2], payload["bias"], payload["lambda"]]
    if not all(_is_a(v, numbers.Real) for v in values):
        raise SchemaError(f"{path}: weights, means, stds, bias and lambda must be JSON numbers")
    if not all(_finite(v) for v in values) or payload["lambda"] < 0:
        raise ValidationError(f"{path}: model parameters must be finite and lambda >= 0")
    dropped = payload["dropped"]
    if not isinstance(dropped, list) or not all(_is_a(i, numbers.Integral) and 0 <= i < n for i in dropped):
        raise SchemaError(f"{path}: dropped must be a list of feature indices in [0, {n})")
    dropped = tuple(int(i) for i in dropped)
    weights, means, stds = (np.asarray(v, dtype=np.float64) for v in vectors)
    if any(weights[i] != 0.0 for i in dropped):
        raise ValidationError(f"{path}: dropped features must carry weight 0")
    return weights, means, stds, dropped


def save_meta_model(model: MetaModel, path) -> None:
    """Serialize a MetaModel as JSON with the pinned key set.

    A model that :func:`load_meta_model` would reject is refused with the
    loader's error, and no file is written.
    """
    payload = {
        "weights": [float(v) for v in model.weights],
        "bias": float(model.bias),
        "means": [float(v) for v in model.feature_means],
        "stds": [float(v) for v in model.feature_stds],
        "lambda": float(model.l2_lambda),
        "dropped": [int(i) for i in model.dropped_features],
        "feature_names": list(model.feature_names),
    }
    _checked_parameters(payload, path)
    _write_json(payload, path)


def load_meta_model(path) -> MetaModel:
    """Load a model saved by :func:`save_meta_model`.

    The stored ``feature_names`` must equal the canonical order; anything
    else fails with SchemaError so silently mis-ordered weights can never be
    applied to a table.
    """
    payload = _read_json(path)
    weights, means, stds, dropped = _checked_parameters(payload, path)
    return MetaModel(
        weights=weights,
        bias=float(payload["bias"]),
        feature_means=means,
        feature_stds=stds,
        l2_lambda=float(payload["lambda"]),
        dropped_features=dropped,
        feature_names=FEATURE_NAMES,
    )
