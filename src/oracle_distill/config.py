"""Run configuration: a flat, typed key = value text format.

Unknown keys are a hard startup error so that a typo can never silently
fall back to a default.  So is a key that the run's task never reads, set
to anything but its default: a ctc run reads no ``rule`` and an aed run no
``kd_form``, for example (``TASKS`` lists which).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError, ContractError
from .models import ModelConfig
from .objectives import TrainConfig
from .tasks import AedTaskSpec, CtcTaskSpec


# each task's data spec, and the training and model knobs that it alone
# reads; a data field is read only by the task whose spec has it
TASKS = {
    "ctc": (CtcTaskSpec, ("kd_form",)),
    "aed": (AedTaskSpec, ("lambda_mask", "temperature", "dec_layers")),
}


def _unread(task: str) -> set[str]:
    """The run config fields that ``task`` never reads."""
    read = {f.name for f in fields(TASKS[task][0])}
    return {name for other, (spec, own) in TASKS.items() if other != task
            for name in (*own, *(f.name for f in fields(spec)))} - read


def _parse_bool(s: str) -> bool:
    if s in ("true", "True", "1", "yes"):
        return True
    if s in ("false", "False", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


@dataclass
class RunConfig:
    # training
    task: str = "ctc"
    seed: int = 0
    steps: int = 400
    batch_size: int = 8
    lr: float = 3e-3
    warmup_steps: int = 40
    alpha: float = 2.0
    lambda_mask: float = 0.5
    kd_form: str = "l2"
    stop_teacher_grad: bool = False
    temperature: float = 1.0
    use_teacher: bool = True
    # model
    d_model: int = 32
    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 2
    ffn_dim: int = 64
    fusion_layers: int = 1
    # data
    n_examples: int = 600
    data_seed: int = -1  # -1: follow seed
    vocab_size: int = -1  # -1 here and below: the task spec's default
    len_min: int = -1
    len_max: int = -1
    frames_min: int = 2
    frames_max: int = 4
    feature_dim: int = 8
    noise: float = 0.3
    ambiguity: float = 0.3
    rule: str = "cipher"
    copy_noise: float = 0.1
    # harness
    eval_every: int = 50
    checkpoint_every: int = -1  # -1: every 20% of steps
    out_dir: str = ""

    def resolved(self) -> "RunConfig":
        cfg = RunConfig(**{f.name: getattr(self, f.name) for f in fields(self)})
        if cfg.task not in TASKS:
            raise ContractError(f"unknown task {cfg.task!r}")
        unread = _unread(cfg.task)
        for f in fields(cfg):
            if f.name in unread and getattr(cfg, f.name) != f.default:
                raise ContractError(f"{f.name} = {getattr(cfg, f.name)!r} is not read by task {cfg.task}")
        for name in ("data_seed", "vocab_size", "len_min", "len_max", "checkpoint_every"):
            if getattr(cfg, name) < -1:
                raise ContractError(f"{name} must be -1 or nonnegative, got {getattr(cfg, name)}")
        # refused here, before a run makes its output directory
        if cfg.n_examples < 1:
            raise ContractError(f"n_examples must be positive, got {cfg.n_examples}")
        if cfg.eval_every < 0:
            raise ContractError(f"eval_every must be nonnegative (0: never), got {cfg.eval_every}")
        if cfg.data_seed == -1:
            cfg.data_seed = cfg.seed
        spec, _ = TASKS[cfg.task]
        for name in ("vocab_size", "len_min", "len_max"):
            if getattr(cfg, name) == -1:
                setattr(cfg, name, getattr(spec, name))
        if cfg.checkpoint_every == -1:
            cfg.checkpoint_every = max(1, cfg.steps // 5)
        return cfg

    # -- derived views ------------------------------------------------------

    def _build(self, schema, **given):
        """``schema`` with every field not in ``given`` read from here by name."""
        return schema(
            **{f.name: getattr(self, f.name) for f in fields(schema) if f.name not in given},
            **given,
        )

    def train_config(self) -> TrainConfig:
        return self.resolved()._build(TrainConfig)

    def task_spec(self):
        cfg = self.resolved()
        return cfg._build(TASKS[cfg.task][0], seed=cfg.data_seed)

    def model_config(self) -> ModelConfig:
        return self.resolved()._build(ModelConfig)


# keyed by the field annotations, which are strings under postponed evaluation
_CASTERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}


def config_from_mapping(mapping: dict[str, str]) -> RunConfig:
    """Build a RunConfig from string key/values, rejecting unknown keys."""
    known = {f.name: f.type for f in fields(RunConfig)}
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, raw in mapping.items():
        caster = _CASTERS[known[key]]
        try:
            values[key] = caster(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    try:
        resolved = cfg.resolved()
        resolved.train_config()
        resolved.task_spec()
        resolved.model_config()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_text(text: str) -> RunConfig:
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        mapping[key] = value
    return config_from_mapping(mapping)


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_to_mapping(cfg: RunConfig) -> dict[str, str]:
    return {f.name: str(getattr(cfg, f.name)) for f in fields(RunConfig)}
