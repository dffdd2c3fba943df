"""Estimator-style front end: fit on (source, target) pairs, predict
target sequences, score by token accuracy.

Each estimator is a dataclass whose fields are its hyperparameters, named
and defaulted as in ``RunConfig``, save one: ``AedDistiller.alpha`` is 5.0
where the run config's is 2.0.  ``_DistillerBase`` declares the knobs both
tasks read, and each estimator adds only those its own task reads.  Every
field is keyword-only, so no call depends on the order of the fields.
``get_params``/``set_params`` read the fields, which is the scikit-learn
parameter protocol: the classes compose with ``sklearn.base.clone``
without importing sklearn here.  ``fit`` builds the model and training
configs with ``config.from_fields``, as a run config builds its views:
each hyperparameter sets the schema field of its name, and a field that
no estimator has keeps its default.  It sets the fitted,
trailing-underscore attributes only once training has ended, so a failed
fit leaves the estimator as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import from_fields
from .ctc import min_frames
from .errors import ContractError
from .harness import evaluate, fit_loop
from .metrics import token_error_rate
from .models import ModelConfig, build_model
from .objectives import TrainConfig
from .tasks import Example, token_tuple


def check_token_sequences(seqs, name: str, vocab_size: int | None = None) -> list[tuple[int, ...]]:
    """Validate a list of non-empty positive-integer token sequences.  A
    token is a Python or numpy integer; a float or a string is refused,
    not truncated or split into digits."""
    if not hasattr(seqs, "__len__") or len(seqs) == 0:
        raise ContractError(f"{name} must be a non-empty sequence of token sequences")
    out = []
    for i, seq in enumerate(seqs):
        tokens = token_tuple(seq, f"{name}[{i}]")
        if len(tokens) == 0:
            raise ContractError(f"{name}[{i}] is empty")
        if any(t < 1 for t in tokens):
            raise ContractError(f"{name}[{i}] contains a non-positive token id")
        if vocab_size is not None and any(t > vocab_size for t in tokens):
            raise ContractError(f"{name}[{i}] contains token id > {vocab_size}")
        out.append(tokens)
    return out


def check_feature_sequences(seqs, name: str) -> list[np.ndarray]:
    """Validate a list of 2-d float feature matrices with a common width."""
    if not hasattr(seqs, "__len__") or len(seqs) == 0:
        raise ContractError(f"{name} must be a non-empty sequence of feature matrices")
    out = []
    width = None
    for i, seq in enumerate(seqs):
        arr = np.asarray(seq, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ContractError(f"{name}[{i}] must be a non-empty T x D matrix")
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"{name}[{i}] contains non-finite values")
        if width is None:
            width = arr.shape[1]
        elif arr.shape[1] != width:
            raise ContractError(f"{name}[{i}] width {arr.shape[1]} != {width}")
        out.append(arr)
    return out


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass(eq=False, kw_only=True)
class _DistillerBase:
    """The hyperparameters both tasks read, and the parameter protocol,
    fit, predict and scoring over the dataclass fields of a subclass,
    which supplies ``_check_X`` and ``_shape``."""

    alpha: float = 2.0
    stop_teacher_grad: bool = False
    use_teacher: bool = True
    steps: int = 400
    batch_size: int = 8
    lr: float = 3e-3
    warmup_steps: int = 40
    d_model: int = 32
    enc_layers: int = 2
    heads: int = 2
    ffn_dim: int = 64
    fusion_layers: int = 1
    seed: int = 0

    model_ = None  # a class attribute, so not a field: unfitted until fit

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def _pairs(self, X, y) -> tuple[list, list]:
        y = check_token_sequences(y, "y")
        if len(X) != len(y):
            raise ContractError(f"X and y lengths differ: {len(X)} vs {len(y)}")
        return X, y

    def _fitted_X(self, X) -> list:
        if self.model_ is None:
            raise ContractError(f"{type(self).__name__} is not fitted yet; call fit first")
        return self._check_X(X, self.model_.cfg)

    def fit(self, X, y):
        X, y = self._pairs(self._check_X(X, None), y)
        params = self.get_params()
        model_cfg = from_fields(ModelConfig, params, **self._shape(X, y))
        train_cfg = from_fields(TrainConfig, params)
        model = build_model(model_cfg, seed=self.seed)
        examples = [Example(x=x, y=t, split="train") for x, t in zip(X, y)]
        history = fit_loop(model, examples, train_cfg)
        self.model_, self.history_, self.train_config_ = model, history, train_cfg
        self.n_iter_ = len(history)
        return self

    def predict(self, X) -> list[tuple[int, ...]]:
        X = self._fitted_X(X)  # first: an unfitted model_ has no predict
        return self.model_.predict(X)

    def score(self, X, y) -> float:
        """Token accuracy, 1 - token error rate (can be negative)."""
        X, y = self._pairs(self._fitted_X(X), y)
        return 1.0 - token_error_rate(self.model_.predict(X), y)

    def evaluate(self, X, y, mode: str = "student") -> dict:
        """Full metric dict (TER, exact match, repetition ratio)."""
        X, y = self._pairs(self._fitted_X(X), y)
        examples = [Example(x=x, y=t, split="eval") for x, t in zip(X, y)]
        return evaluate(self.model_, examples, mode, self.train_config_, mask_seed=self.seed)


@dataclass(eq=False, kw_only=True)
class CtcDistiller(_DistillerBase):
    """Frame-sequence labeler trained with oracle-guided self-distillation.

    fit(X, y) takes a list of T_i x D float matrices and a list of label
    sequences over 1..K (K inferred from the data).  predict(X) returns
    collapsed greedy decodes using only the student parameters.
    """

    kd_form: str = "l2"

    def _check_X(self, X, fitted: ModelConfig | None):
        X = check_feature_sequences(X, "X")
        if fitted is not None and X[0].shape[1] != fitted.feature_dim:
            raise ContractError(f"X width {X[0].shape[1]} != fitted feature_dim {fitted.feature_dim}")
        return X

    def _shape(self, X, y) -> dict:
        """The model's shape read off the training pairs, once each pair
        is known to have enough frames for some CTC path."""
        for i, (x, t) in enumerate(zip(X, y)):
            if x.shape[0] < min_frames(t):
                raise ContractError(f"X[{i}] has {x.shape[0]} frames; y[{i}] needs {min_frames(t)}")
        return dict(task="ctc", vocab_size=max(max(t) for t in y), feature_dim=X[0].shape[1])


@dataclass(eq=False, kw_only=True)
class AedDistiller(_DistillerBase):
    """Token-sequence transducer trained with masked-target guidance.

    fit(X, y) takes lists of token sequences over 1..V (V inferred).
    predict(X) decodes greedily from the source alone.
    """

    alpha: float = 5.0
    lambda_mask: float = 0.5
    temperature: float = 1.0
    dec_layers: int = 2

    def _check_X(self, X, fitted: ModelConfig | None):
        return check_token_sequences(X, "X", vocab_size=fitted and fitted.vocab_size)

    def _shape(self, X, y) -> dict:
        vocab_size = max(max(max(t) for t in y), max(max(s) for s in X))
        return dict(task="aed", vocab_size=vocab_size)
