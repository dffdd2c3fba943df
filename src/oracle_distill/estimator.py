"""Estimator-style front end: fit on (source, target) pairs, predict
target sequences, score by token accuracy.

The classes follow the scikit-learn parameter protocol (constructor args
are hyperparameters, ``get_params``/``set_params`` round-trip them,
fitted state lives in trailing-underscore attributes), so they compose
with ``sklearn.base.clone`` and model-selection utilities without
importing anything from sklearn here.
"""

from __future__ import annotations

import inspect
from dataclasses import fields

import numpy as np

from .errors import ContractError
from .harness import evaluate, fit_loop
from .metrics import token_error_rate
from .models import ModelConfig, build_model
from .objectives import TrainConfig
from .tasks import Example


class BaseParams:
    """get_params/set_params over the constructor signature."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [n for n in sig.parameters if n != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


# ---------------------------------------------------------------------------
# input validation helpers
# ---------------------------------------------------------------------------


def check_token_sequences(seqs, name: str, vocab_size: int | None = None) -> list[tuple[int, ...]]:
    """Validate a list of non-empty positive-integer token sequences."""
    if not hasattr(seqs, "__len__") or len(seqs) == 0:
        raise ContractError(f"{name} must be a non-empty sequence of token sequences")
    out = []
    for i, seq in enumerate(seqs):
        tokens = tuple(int(t) for t in seq)
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


def check_paired(X, y) -> None:
    if len(X) != len(y):
        raise ContractError(f"X and y lengths differ: {len(X)} vs {len(y)}")


def check_is_fitted(estimator) -> None:
    if getattr(estimator, "model_", None) is None:
        raise ContractError(f"{type(estimator).__name__} is not fitted yet; call fit first")


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


class _DistillerBase(BaseParams):
    def _fields_of(self, schema) -> dict:
        """The hyperparameters that are fields of the dataclass ``schema``;
        the fields an estimator lacks keep the schema's defaults."""
        names = {f.name for f in fields(schema)}
        return {k: v for k, v in self.get_params().items() if k in names}

    def _fit_examples(self, examples: list[Example], model_cfg: ModelConfig) -> None:
        train_cfg = TrainConfig(**self._fields_of(TrainConfig))
        self.model_ = build_model(model_cfg, seed=self.seed)
        self.history_ = fit_loop(self.model_, examples, train_cfg)
        self.train_config_ = train_cfg
        self.n_iter_ = len(self.history_)

    def predict(self, X) -> list[tuple[int, ...]]:
        check_is_fitted(self)
        X = self._check_X(X)
        return self.model_.predict(X)

    def score(self, X, y) -> float:
        """Token accuracy, 1 - token error rate (can be negative)."""
        check_is_fitted(self)
        X = self._check_X(X)
        y = check_token_sequences(y, "y")
        check_paired(X, y)
        return 1.0 - token_error_rate(self.predict(X), y)

    def evaluate(self, X, y, mode: str = "student") -> dict:
        """Full metric dict (TER, exact match, repetition ratio)."""
        check_is_fitted(self)
        X = self._check_X(X)
        y = check_token_sequences(y, "y")
        check_paired(X, y)
        examples = [Example(x=x, y=t, split="eval") for x, t in zip(X, y)]
        return evaluate(self.model_, examples, mode, self.train_config_, mask_seed=self.seed)


class CtcDistiller(_DistillerBase):
    """Frame-sequence labeler trained with oracle-guided self-distillation.

    fit(X, y) takes a list of T_i x D float matrices and a list of label
    sequences over 1..K (K inferred from the data).  predict(X) returns
    collapsed greedy decodes using only the student parameters.
    """

    def __init__(self, alpha: float = 2.0, kd_form: str = "l2",
                 stop_teacher_grad: bool = False, use_teacher: bool = True,
                 steps: int = 400, batch_size: int = 8, lr: float = 3e-3,
                 warmup_steps: int = 40, d_model: int = 32, enc_layers: int = 2,
                 heads: int = 2, ffn_dim: int = 64, fusion_layers: int = 1,
                 seed: int = 0):
        self.alpha = alpha
        self.kd_form = kd_form
        self.stop_teacher_grad = stop_teacher_grad
        self.use_teacher = use_teacher
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.d_model = d_model
        self.enc_layers = enc_layers
        self.heads = heads
        self.ffn_dim = ffn_dim
        self.fusion_layers = fusion_layers
        self.seed = seed
        self.model_ = None

    def _check_X(self, X):
        X = check_feature_sequences(X, "X")
        if self.model_ is not None and X[0].shape[1] != self.model_.cfg.feature_dim:
            raise ContractError(
                f"X width {X[0].shape[1]} != fitted feature_dim {self.model_.cfg.feature_dim}"
            )
        return X

    def fit(self, X, y):
        X = check_feature_sequences(X, "X")
        y = check_token_sequences(y, "y")
        check_paired(X, y)
        vocab_size = max(max(t) for t in y)
        max_t = max(x.shape[0] for x in X)
        model_cfg = ModelConfig(
            task="ctc", vocab_size=vocab_size, feature_dim=X[0].shape[1],
            max_len=max(64, max_t + 8), **self._fields_of(ModelConfig),
        )
        examples = [Example(x=x, y=t, split="train") for x, t in zip(X, y)]
        self._fit_examples(examples, model_cfg)
        return self


class AedDistiller(_DistillerBase):
    """Token-sequence transducer trained with masked-target guidance.

    fit(X, y) takes lists of token sequences over 1..V (V inferred).
    predict(X) decodes greedily from the source alone.
    """

    def __init__(self, alpha: float = 5.0, lambda_mask: float = 0.5,
                 temperature: float = 1.0, stop_teacher_grad: bool = False,
                 use_teacher: bool = True, steps: int = 400, batch_size: int = 8,
                 lr: float = 3e-3, warmup_steps: int = 40, d_model: int = 32,
                 enc_layers: int = 2, dec_layers: int = 2, heads: int = 2,
                 ffn_dim: int = 64, fusion_layers: int = 1, seed: int = 0):
        self.alpha = alpha
        self.lambda_mask = lambda_mask
        self.temperature = temperature
        self.stop_teacher_grad = stop_teacher_grad
        self.use_teacher = use_teacher
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.d_model = d_model
        self.enc_layers = enc_layers
        self.dec_layers = dec_layers
        self.heads = heads
        self.ffn_dim = ffn_dim
        self.fusion_layers = fusion_layers
        self.seed = seed
        self.model_ = None

    def _check_X(self, X):
        vocab = self.model_.cfg.vocab_size if self.model_ is not None else None
        return check_token_sequences(X, "X", vocab_size=vocab)

    def fit(self, X, y):
        X = check_token_sequences(X, "X")
        y = check_token_sequences(y, "y")
        check_paired(X, y)
        vocab_size = max(max(max(t) for t in y), max(max(s) for s in X))
        max_l = max(max(len(t) for t in y), max(len(s) for s in X))
        model_cfg = ModelConfig(
            task="aed", vocab_size=vocab_size, max_len=max(64, 2 * max_l + 8),
            **self._fields_of(ModelConfig),
        )
        examples = [Example(x=x, y=t, split="train") for x, t in zip(X, y)]
        self._fit_examples(examples, model_cfg)
        return self
