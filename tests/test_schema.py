"""One hyperparameter schema: the run config, the training config, the
model config and the estimators agree field by field."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_distill import AedDistiller, CtcDistiller, estimator
from oracle_distill.config import TASKS, RunConfig, config_from_mapping, config_to_mapping
from oracle_distill.errors import ConfigError, ContractError
from oracle_distill.metrics import token_error_rate
from oracle_distill.models import ModelConfig
from oracle_distill.objectives import TrainConfig
from oracle_distill.tasks import AedTaskSpec, CtcTaskSpec


def test_every_train_config_field_is_a_run_config_field_with_its_default():
    run_defaults = {f.name: f.default for f in fields(RunConfig)}
    for f in fields(TrainConfig):
        assert f.name in run_defaults, f.name
        assert run_defaults[f.name] == f.default, f.name


SCHEMAS = [RunConfig, TrainConfig, ModelConfig, CtcTaskSpec, AedTaskSpec, CtcDistiller, AedDistiller]


def test_every_shared_hyperparameter_has_one_default():
    table = {}
    for schema in SCHEMAS:
        for f in fields(schema):
            table.setdefault(f.name, {})[schema.__name__] = f.default
    split = {name: by for name, by in table.items() if len(set(by.values())) > 1}
    # the only exceptions: the AED estimator weighs distillation higher, and
    # the run config's -1 stands for the task spec's default, which differs
    # by task (ModelConfig's vocab_size is the CTC spec's)
    assert split == {
        "alpha": {"RunConfig": 2.0, "TrainConfig": 2.0, "CtcDistiller": 2.0, "AedDistiller": 5.0},
        "vocab_size": {"RunConfig": -1, "ModelConfig": 6, "CtcTaskSpec": 6, "AedTaskSpec": 12},
        "len_min": {"RunConfig": -1, "CtcTaskSpec": 2, "AedTaskSpec": 3},
        "len_max": {"RunConfig": -1, "CtcTaskSpec": 6, "AedTaskSpec": 8},
    }


def test_run_config_derives_train_and_model_configs_by_field_name():
    cfg = RunConfig(task="aed", alpha=1.25, steps=9, d_model=12, heads=3, dec_layers=1).resolved()
    train = cfg.train_config()
    assert all(getattr(train, f.name) == getattr(cfg, f.name) for f in fields(TrainConfig))
    model = cfg.model_config()
    assert all(getattr(model, f.name) == getattr(cfg, f.name) for f in fields(ModelConfig))


@pytest.mark.parametrize("key", ["d_model", "heads", "ffn_dim"])
def test_zero_model_width_is_a_config_error(key):
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({key: "0"})


def test_zero_heads_in_an_estimator_is_a_contract_error():
    X = [np.zeros((4, 2))]
    with pytest.raises(ContractError, match="heads"):
        CtcDistiller(heads=0, steps=1).fit(X, [(1,)])


SPECS = {"ctc": (CtcTaskSpec, CtcDistiller), "aed": (AedTaskSpec, AedDistiller)}


def unread(task: str) -> set[str]:
    """What the other task's spec and estimator have and this task's lack."""
    names = lambda *schemas: {f.name for schema in schemas for f in fields(schema)}
    (other,) = set(SPECS) - {task}
    return names(*SPECS[other]) - names(*SPECS[task])


def test_the_task_table_lists_the_knobs_one_estimator_has():
    names = lambda cls: {f.name for f in fields(cls)}
    assert {task: spec for task, (spec, _) in TASKS.items()} == {"ctc": CtcTaskSpec, "aed": AedTaskSpec}
    assert set(TASKS["ctc"][1]) == names(CtcDistiller) - names(AedDistiller) == {"kd_form"}
    assert (set(TASKS["aed"][1]) == names(AedDistiller) - names(CtcDistiller)
            == {"lambda_mask", "temperature", "dec_layers"})


# values each field may take in a run config whose other fields are defaults
FIELD_VALUES = {
    "seed": st.integers(0, 2 ** 31), "steps": st.integers(1, 10 ** 6), "batch_size": st.integers(1, 64),
    "lr": st.floats(1e-9, 1.0), "warmup_steps": st.integers(0, 1000), "alpha": st.floats(0.0, 100.0),
    "lambda_mask": st.floats(0.0, 1.0), "kd_form": st.sampled_from(["l2", "kl"]),
    "stop_teacher_grad": st.booleans(), "temperature": st.floats(1e-3, 100.0), "use_teacher": st.booleans(),
    "d_model": st.sampled_from([2, 8, 30, 64]), "enc_layers": st.integers(0, 4),
    "dec_layers": st.integers(0, 4), "heads": st.sampled_from([1, 2, 4, 8, 16, 32]),
    "ffn_dim": st.integers(1, 128), "fusion_layers": st.integers(0, 3), "n_examples": st.integers(1, 5000),
    "data_seed": st.integers(-1, 2 ** 31), "vocab_size": st.sampled_from([-1]) | st.integers(6, 40),
    "len_min": st.sampled_from([-1]) | st.integers(1, 6), "len_max": st.sampled_from([-1]) | st.integers(3, 20),
    "frames_min": st.integers(1, 4), "frames_max": st.integers(2, 9), "feature_dim": st.integers(1, 16),
    "noise": st.floats(0.0, 5.0), "ambiguity": st.floats(0.0, 1.0),
    "rule": st.sampled_from(["reverse", "cipher", "sort"]), "copy_noise": st.floats(0.0, 1.0),
    "eval_every": st.integers(0, 1000), "checkpoint_every": st.integers(-1, 1000),
    "out_dir": st.text("abc/_-.0123", max_size=12),
}


def test_every_run_config_field_but_the_task_has_values():
    assert set(FIELD_VALUES) == {f.name for f in fields(RunConfig)} - {"task"}


@st.composite
def task_field_values(draw):
    task = draw(st.sampled_from(sorted(TASKS)))
    name = draw(st.sampled_from(sorted(FIELD_VALUES)))
    return task, name, draw(FIELD_VALUES[name])


@settings(max_examples=150, deadline=None)
@given(task_field_values())
def test_a_field_its_task_never_reads_is_refused_unless_at_its_default(case):
    task, name, value = case
    mapping = {"task": task, name: str(value)}
    if name in unread(task) and value != RunConfig.__dataclass_fields__[name].default:
        with pytest.raises(ConfigError, match=f"^{name} = .* is not read by task {task}$"):
            config_from_mapping(mapping)
    else:
        assert getattr(config_from_mapping(mapping), name) == value


@st.composite
def run_configs(draw):
    heads = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    len_min = draw(st.integers(1, 5))
    frames_min = draw(st.integers(1, 3))
    explicit_lengths = draw(st.booleans())
    cfg = RunConfig(
        task=draw(st.sampled_from(["ctc", "aed"])),
        seed=draw(st.integers(0, 2 ** 31)),
        steps=draw(st.integers(1, 10 ** 6)),
        batch_size=draw(st.integers(1, 64)),
        lr=draw(st.floats(1e-9, 1.0)),
        warmup_steps=draw(st.integers(0, 1000)),
        alpha=draw(st.floats(0.0, 100.0)),
        lambda_mask=draw(unit),
        kd_form=draw(st.sampled_from(["l2", "kl"])),
        stop_teacher_grad=draw(st.booleans()),
        temperature=draw(st.floats(1e-3, 100.0)),
        use_teacher=draw(st.booleans()),
        d_model=heads * draw(st.integers(1, 16)),
        enc_layers=draw(st.integers(0, 4)),
        dec_layers=draw(st.integers(0, 4)),
        heads=heads,
        ffn_dim=draw(st.integers(1, 128)),
        fusion_layers=draw(st.integers(0, 3)),
        n_examples=draw(st.integers(1, 5000)),
        data_seed=draw(st.integers(-1, 2 ** 31)),
        vocab_size=draw(st.sampled_from([-1]) | st.integers(6, 40)),
        len_min=len_min if explicit_lengths else -1,
        len_max=len_min + draw(st.integers(0, 5)) if explicit_lengths else -1,
        frames_min=frames_min,
        frames_max=frames_min + draw(st.integers(0, 3)),
        feature_dim=draw(st.integers(1, 16)),
        noise=draw(st.floats(0.0, 5.0)),
        ambiguity=draw(unit),
        rule=draw(st.sampled_from(["reverse", "cipher", "sort"])),
        copy_noise=draw(unit),
        eval_every=draw(st.integers(0, 1000)),
        checkpoint_every=draw(st.integers(-1, 1000)),
        out_dir=draw(st.text("abc/_-.0123", max_size=12)),
    )
    # the other task's knobs stay at their defaults, or the config is refused
    return replace(cfg, **{f.name: f.default for f in fields(RunConfig) if f.name in unread(cfg.task)})


@settings(max_examples=60, deadline=None)
@given(run_configs())
def test_config_mapping_roundtrip_property(cfg):
    again = config_from_mapping(config_to_mapping(cfg))
    assert again == cfg


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

SMALL = dict(d_model=8, heads=2, ffn_dim=16, enc_layers=1, fusion_layers=1)


def _ctc_data():
    rng = np.random.default_rng(0)
    X = [rng.standard_normal((6, 3)) for _ in range(4)]
    y = [(1, 2), (2,), (3, 1), (1,)]
    return X, y


def _aed_data():
    X = [(1, 2, 3), (2, 3), (4, 1, 2), (3, 3)]
    y = [(3, 2, 1), (3, 2), (2, 1, 4), (3, 3)]
    return X, y


ESTIMATORS = [
    (CtcDistiller, _ctc_data, dict(alpha=1.5, kd_form="kl")),
    (AedDistiller, _aed_data, dict(alpha=4.0, lambda_mask=0.25, temperature=2.0, dec_layers=1)),
]


@pytest.mark.parametrize("cls, _, changed", ESTIMATORS)
def test_estimator_params_roundtrip(cls, _, changed):
    est = cls()
    params = est.get_params()
    assert cls(**params).get_params() == params
    assert est.set_params(**changed) is est
    assert est.get_params() == {**params, **changed}
    assert cls(**est.get_params()).get_params() == est.get_params()


@pytest.mark.parametrize("cls, _, __", ESTIMATORS)
def test_estimator_rejects_unknown_params(cls, _, __):
    with pytest.raises(ValueError, match="invalid parameter 'alpha_ramp'"):
        cls().set_params(alpha_ramp=1.0)
    with pytest.raises(TypeError):
        cls(alpha_ramp=1.0)


@pytest.mark.parametrize("cls, _, changed", ESTIMATORS)
def test_a_rebuilt_estimator_holds_the_same_objects(cls, _, changed):
    est = cls(lr=float("0.01"), **changed)
    params = est.get_params(deep=False)
    again = type(est)(**params).get_params(deep=False)
    assert list(again) == list(params)
    assert all(again[name] is value for name, value in params.items())


# the knobs both tasks read come first, in one order, then the task's own
REPRS = [
    "CtcDistiller(alpha=1.5, stop_teacher_grad=False, use_teacher=True, steps=12, batch_size=2, "
    "lr=0.003, warmup_steps=40, d_model=8, enc_layers=1, heads=2, ffn_dim=16, fusion_layers=1, "
    "seed=3, kd_form='kl')",
    "AedDistiller(alpha=4.0, stop_teacher_grad=False, use_teacher=True, steps=12, batch_size=2, "
    "lr=0.003, warmup_steps=40, d_model=8, enc_layers=1, heads=2, ffn_dim=16, fusion_layers=1, "
    "seed=3, lambda_mask=0.25, temperature=2.0, dec_layers=1)",
]


@pytest.mark.parametrize("case, want", zip(ESTIMATORS, REPRS), ids=["ctc", "aed"])
def test_repr_lists_the_hyperparameters_in_order(case, want):
    cls, _, changed = case
    assert repr(cls(steps=12, batch_size=2, seed=3, **SMALL, **changed)) == want


@pytest.mark.parametrize("bad", ["12", (1.7,), (np.float64(3.9),)], ids=["string", "float", "numpy float"])
@pytest.mark.parametrize("side", ["X", "y"])
def test_a_token_that_is_no_integer_is_refused(side, bad):
    X, y = _aed_data()
    (X if side == "X" else y)[0] = bad
    with pytest.raises(ContractError, match=rf"^{side}\[0\] must be a sequence of integer token ids$"):
        AedDistiller(steps=1, **SMALL).fit(X, y)


def test_numpy_integer_tokens_are_read_as_python_ints():
    X, y = _aed_data()
    as_numpy = lambda seqs: [tuple(np.int64(t) for t in seq) for seq in seqs]
    est = AedDistiller(steps=2, **SMALL).fit(as_numpy(X), as_numpy(y))
    assert est.predict(as_numpy(X)) == est.predict(X)
    tokens = estimator.check_token_sequences(as_numpy(y), "y")
    assert tokens == y and {type(t) for seq in tokens for t in seq} == {int}


@pytest.mark.parametrize("cls", [CtcDistiller, AedDistiller])
def test_every_estimator_field_is_keyword_only(cls):
    assert all(f.kw_only for f in fields(cls))
    with pytest.raises(TypeError, match="positional"):
        cls(1.0)


@pytest.mark.parametrize("cls, _, changed", ESTIMATORS)
def test_estimators_compare_by_identity(cls, _, changed):
    a, b = cls(**changed), cls(**changed)
    assert a != b
    assert len({a, b}) == 2


def _infeasible_ctc_data():
    """15 pairs with frames to spare, then 2 frames for a 3-token target."""
    rng = np.random.default_rng(1)
    X = [rng.standard_normal((6, 3)) for _ in range(15)] + [rng.standard_normal((2, 3))]
    y = [(1, 2), (2,), (3, 1)] * 5 + [(1, 2, 3)]
    return X, y


def test_ctc_fit_refuses_a_pair_no_path_can_carry_before_building_a_model(monkeypatch):
    X, y = _infeasible_ctc_data()
    built = []
    monkeypatch.setattr(estimator, "build_model", lambda *a, **kw: built.append(a))
    with pytest.raises(ContractError, match=r"X\[15\] has 2 frames; y\[15\] needs 3"):
        CtcDistiller(steps=5, batch_size=4, **SMALL).fit(X, y)
    assert built == []


def test_a_refused_refit_keeps_the_earlier_fit():
    X, y = _infeasible_ctc_data()
    est = CtcDistiller(steps=5, batch_size=4, **SMALL).fit(X[:15], y[:15])
    fitted = dict(vars(est))
    with pytest.raises(ContractError, match=r"X\[15\]"):
        est.fit(X, y)
    assert all(vars(est)[name] is value for name, value in fitted.items())
    assert est.model_ is fitted["model_"] and est.history_ is fitted["history_"]


@pytest.mark.parametrize("cls, data, source", [
    (CtcDistiller, _ctc_data, np.random.default_rng(1).standard_normal((80, 3))),
    (AedDistiller, _aed_data, (1, 2, 3, 4) * 22 + (1, 2)),
], ids=["ctc", "aed"])
def test_a_fitted_estimator_predicts_a_source_longer_than_any_it_saw(cls, data, source):
    est = cls(steps=2).fit(*data())  # sources of at most 6 frames or 3 tokens
    (out,) = est.predict([source])
    assert len(out) <= 2 * len(source) + 4
    assert set(out) <= set(range(1, est.model_.cfg.vocab_size + 1))


@pytest.mark.parametrize("cls, data, _", ESTIMATORS, ids=["ctc", "aed"])
def test_every_predicted_label_is_a_python_int(cls, data, _):
    X, y = data()
    est = cls(steps=3).fit(X, y)
    calls = [est.predict(X), est.model_.predict(X), est.model_.predict_teacher(X, y)]
    labels = [t for predictions in calls for p in predictions for t in p]
    assert labels and {type(t) for t in labels} == {int}


@pytest.mark.parametrize("cls, data, changed", ESTIMATORS)
def test_a_failed_fit_leaves_an_unfitted_estimator_unfitted(cls, data, changed, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("training stopped")

    monkeypatch.setattr(estimator, "fit_loop", broken)
    est = cls(steps=2, batch_size=2, **SMALL, **changed)
    with pytest.raises(RuntimeError, match="training stopped"):
        est.fit(*data())
    assert est.model_ is None
    assert [name for name in vars(est) if name.endswith("_")] == []
    with pytest.raises(ContractError, match="not fitted"):
        est.predict(data()[0])


@pytest.mark.parametrize("cls, data, changed", ESTIMATORS)
def test_fit_stores_train_config_from_params(cls, data, changed):
    X, y = data()
    est = cls(steps=2, batch_size=2, **SMALL, **changed).fit(X, y)
    params = est.get_params()
    for f in fields(TrainConfig):
        assert getattr(est.train_config_, f.name) == params.get(f.name, f.default), f.name
    assert est.n_iter_ == 2
    report = est.evaluate(X, y)
    assert report["aux_param_reads_during_predict"] == 0
    assert report["target_reads_during_predict"] == 0


@pytest.mark.parametrize("cls, data, changed", ESTIMATORS)
def test_score_is_one_minus_the_token_error_rate(cls, data, changed):
    X, y = data()
    est = cls(steps=2, batch_size=2, **SMALL, **changed).fit(X, y)
    assert est.score(X, y) == 1.0 - token_error_rate(est.predict(X), y)


@pytest.mark.parametrize("cls, data, changed", ESTIMATORS)
def test_predict_is_one_model_call_per_X(cls, data, changed):
    X, y = data()
    est = cls(steps=2, batch_size=2, **SMALL, **changed).fit(X, y)
    calls = []
    predict = est.model_.predict

    def counted(sources):
        calls.append(len(sources))
        return predict(sources)

    est.model_.predict = counted
    got = est.predict(X)
    assert calls == [len(X)]
    assert got == [predict([x])[0] for x in X]


@pytest.mark.parametrize("spec", [CtcTaskSpec, AedTaskSpec])
def test_every_task_spec_field_but_seed_is_a_run_config_field(spec):
    run_fields = {f.name for f in fields(RunConfig)}
    assert {f.name for f in fields(spec)} - {"seed"} <= run_fields


# data fields that one task's spec alone has
OWN_DATA = {"ctc": dict(frames_max=5, feature_dim=3), "aed": dict(rule="sort", copy_noise=0.25)}


@pytest.mark.parametrize("task", ["ctc", "aed"])
def test_task_spec_reads_run_config_fields_by_name(task):
    cfg = RunConfig(task=task, seed=4, data_seed=9, len_min=2, len_max=3, vocab_size=7, **OWN_DATA[task])
    spec = cfg.task_spec()
    assert spec.seed == 9
    for f in fields(spec):
        if f.name != "seed":
            assert getattr(spec, f.name) == getattr(cfg, f.name), f.name


OUT_OF_RANGE = [
    ("enc_layers", -3), ("dec_layers", -2), ("fusion_layers", -1), ("feature_dim", 0),
    ("lr", -1.0), ("lr", 0.0),
]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_out_of_range_model_and_optimizer_values_are_config_errors(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({key: str(value)})


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_out_of_range_values_are_contract_errors_in_the_estimators(key, value):
    if key == "dec_layers":
        X, y = _aed_data()
        est = AedDistiller(steps=1, **{**SMALL, key: value})
    else:
        X, y = _ctc_data()
        if key == "feature_dim":  # the CTC estimator reads it from X's width
            X = [x[:, :value] for x in X]
            est = CtcDistiller(steps=1, **SMALL)
        else:
            est = CtcDistiller(steps=1, **{**SMALL, key: value})
    with pytest.raises(ContractError, match=key):
        est.fit(X, y)


def test_zero_layers_stay_legal():
    cfg = config_from_mapping({"task": "aed", "enc_layers": "0", "dec_layers": "0", "fusion_layers": "0"})
    assert cfg.model_config().enc_layers == 0


# a NaN passes every comparison-based range check, so each of these knobs
# is refused by name; the run config carries each field to its schema
NON_FINITE_OR_NEGATIVE = [
    (TrainConfig, "alpha", math.nan), (TrainConfig, "alpha", math.inf),
    (TrainConfig, "temperature", math.nan), (TrainConfig, "temperature", math.inf),
    (TrainConfig, "lr", math.nan), (TrainConfig, "lr", math.inf),
    (TrainConfig, "warmup_steps", -5),
    (CtcTaskSpec, "noise", math.nan), (CtcTaskSpec, "noise", math.inf),
    (CtcTaskSpec, "feature_dim", 0), (CtcTaskSpec, "feature_dim", -1),
]


@pytest.mark.parametrize("schema, key, value", NON_FINITE_OR_NEGATIVE)
def test_non_finite_and_negative_knobs_are_refused(schema, key, value):
    with pytest.raises(ContractError, match=key):
        schema(**{key: value})
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({key: str(value)})


REFUSED_BELOW = {"n_examples": "must be positive", "eval_every": r"must be nonnegative \(0: never\)"}


@pytest.mark.parametrize("key, value", [("n_examples", 0), ("n_examples", -3), ("eval_every", -1),
                                        ("eval_every", -7)])
def test_no_example_and_a_negative_eval_period_are_refused(key, value):
    with pytest.raises(ContractError, match=f"{key} {REFUSED_BELOW[key]}, got {value}"):
        RunConfig(**{key: value}).resolved()
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({key: str(value)})


def test_an_eval_period_of_zero_stays_legal():
    assert config_from_mapping({"eval_every": "0"}).resolved().eval_every == 0


@pytest.mark.parametrize("key", ["data_seed", "vocab_size", "len_min", "len_max", "checkpoint_every"])
@pytest.mark.parametrize("task", ["ctc", "aed"])
def test_the_sentinel_is_exactly_minus_one(key, task):
    RunConfig(task=task, **{key: -1}).resolved()
    for value in (-2, -3):
        with pytest.raises(ContractError, match=f"{key} must be -1 or nonnegative, got {value}"):
            RunConfig(task=task, **{key: value}).resolved()
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({"task": task, key: str(value)})
