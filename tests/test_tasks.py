import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_distill import tasks
from oracle_distill.config import RunConfig
from oracle_distill.ctc import collapse, min_frames
from oracle_distill.errors import ContractError, ShapeError
from oracle_distill.harness import generate_dataset
from oracle_distill.models import CtcModel, ModelConfig, _ids
from oracle_distill.objectives import TrainConfig, loss_total
from oracle_distill.tasks import (
    AedTaskSpec,
    Batch,
    CtcTaskSpec,
    Example,
    apply_rule,
    batch_iter,
    cipher_table,
    export_dataset,
    feature_class,
    gen_aed_dataset,
    gen_ctc_dataset,
    split_examples,
    token_embeddings,
)

from helpers import import_dataset, reference_aed_dataset, reference_ctc_dataset, reference_padded_stack


class TestCtcGeneration:
    def test_fixed_seed_reproduces_bit_identical_data(self):
        spec = CtcTaskSpec(seed=3)
        a = gen_ctc_dataset(spec, 50)
        b = gen_ctc_dataset(spec, 50)
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.x, eb.x)
            assert ea.y == eb.y and ea.split == eb.split

    def test_frames_leave_room_for_alignment(self):
        data = gen_ctc_dataset(CtcTaskSpec(seed=1), 300)
        for ex in data:
            assert ex.x.shape[0] >= 2 * len(ex.y) + 1
            assert ex.x.shape[0] >= min_frames(ex.y)

    def test_noiseless_unambiguous_task_is_linearly_separable(self):
        spec = CtcTaskSpec(noise=0.0, ambiguity=0.0, seed=5)
        emb = token_embeddings(spec)
        data = gen_ctc_dataset(spec, 40)
        for ex in data:
            frame_labels = []
            for row in ex.x:
                dists = np.linalg.norm(emb[1:] - row, axis=1)
                frame_labels.append(int(np.argmin(dists)) + 1)
            assert collapse(frame_labels) == ex.y

    def test_confusable_pairs_share_feature_centers(self):
        spec = CtcTaskSpec(seed=2)
        emb = token_embeddings(spec)
        np.testing.assert_array_equal(emb[1], emb[2])
        np.testing.assert_array_equal(emb[3], emb[4])
        assert not np.array_equal(emb[5], emb[6])
        assert feature_class(spec, 2) == feature_class(spec, 1) != feature_class(spec, 3)

    def test_coinflip_pair_is_balanced_but_target_determined(self):
        data = gen_ctc_dataset(CtcTaskSpec(seed=7, ambiguity=0.5), 400)
        counts = {3: 0, 4: 0}
        for ex in data:
            for t in ex.y:
                if t in counts:
                    counts[t] += 1
        total = counts[3] + counts[4]
        assert total > 100
        assert 0.4 <= counts[3] / total <= 0.6

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ContractError):
            CtcTaskSpec(vocab_size=3, ambiguity=0.5)
        with pytest.raises(ContractError):
            CtcTaskSpec(len_min=4, len_max=2)


class TestAedGeneration:
    def test_reverse_rule(self):
        spec = AedTaskSpec(rule="reverse")
        assert apply_rule((1, 2, 3), spec) == (3, 2, 1)

    def test_cipher_is_a_bijection(self):
        spec = AedTaskSpec(rule="cipher", seed=11)
        table = cipher_table(spec)
        assert sorted(table.values()) == list(range(1, spec.vocab_size + 1))
        inverse = {v: k for k, v in table.items()}
        x = (4, 9, 1, 1, 12)
        assert tuple(inverse[t] for t in apply_rule(x, spec)) == x

    def test_sort_rule(self):
        assert apply_rule((3, 1, 2), AedTaskSpec(rule="sort")) == (1, 2, 3)

    def test_noise_free_targets_follow_the_rule(self):
        spec = AedTaskSpec(copy_noise=0.0, seed=13)
        for ex in gen_aed_dataset(spec, 100):
            assert ex.y == apply_rule(ex.x, spec)

    def test_split_disjointness_over_source_strings(self):
        data = gen_aed_dataset(AedTaskSpec(seed=17), 10 ** 4)
        train = {ex.x for ex in data if ex.split == "train"}
        test = {ex.x for ex in data if ex.split == "test"}
        assert train and test
        assert not train & test

    def test_every_split_appears(self):
        data = gen_ctc_dataset(CtcTaskSpec(seed=19), 500)
        splits = {ex.split for ex in data}
        assert splits == {"train", "dev", "test"}


class TestOnePassGeneration:
    """The generators draw once per example what the references draw once
    per token, from the same stream, so both give the same bytes."""

    # sha256 of the gen-data file of the default config of each task at
    # seeds 0 and 1, as the token-by-token generators wrote it
    GOLDEN = {
        ("ctc", "cipher", 0): "84e5a8b3fbfe6d8e99864c4bb0bb8556704219f6ff7b4d1fcbd9521e18fb47d3",
        ("ctc", "cipher", 1): "fa40d9601fc0d5c45cac6de64b816be8cff6c4b26594111dd3690525b7c263f3",
        ("aed", "cipher", 0): "e1ae4d0ab88dfcef01ac9486b70de7b5dd29a439b6d6869ee7d1fbbb10c4ac85",
        ("aed", "cipher", 1): "b03b6067cd110d1db760878625382934b1d021c2d7cf1eb50f601d415110f7ec",
        ("aed", "reverse", 0): "aeb3ecec3d684118cf528103f337b7eb6d072661e11c88371b4570766d19ed91",
        ("aed", "reverse", 1): "c2608f1fdb0b18b7b6d7e502012341e188bf9cb8f56716831d4eab4b15c3c824",
        ("aed", "sort", 0): "d875f2c42363a7804a7f7901963125b76cbf15e7c4da0c95c5a4dbaf2fe150fb",
        ("aed", "sort", 1): "d66aab961f9d877720d99e6f336bd1abb44962972e5ed9294b73623034238b76",
    }

    @pytest.mark.parametrize("task, rule, seed", sorted(GOLDEN))
    def test_the_exported_file_is_pinned(self, tmp_path, task, rule, seed):
        path = tmp_path / "data.txt"
        export_dataset(generate_dataset(RunConfig(task=task, seed=seed, rule=rule)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN[task, rule, seed]

    @pytest.mark.parametrize("n", [1, 600])
    @pytest.mark.parametrize("rule, tables", [("cipher", 1), ("reverse", 0), ("sort", 0)])
    def test_one_cipher_table_per_dataset(self, monkeypatch, rule, tables, n):
        calls = []
        built = tasks.cipher_table

        def counted(spec):
            calls.append(spec)
            return built(spec)

        monkeypatch.setattr(tasks, "cipher_table", counted)
        gen_aed_dataset(AedTaskSpec(rule=rule, seed=5), n)
        assert len(calls) == tables

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ctc_examples_equal_the_token_by_token_reference(self, data):
        ambiguity = data.draw(st.sampled_from((0.0, 0.3, 1.0)))
        len_min = data.draw(st.integers(1, 4))
        frames_min = data.draw(st.integers(1, 3))
        spec = CtcTaskSpec(
            vocab_size=data.draw(st.integers(6 if ambiguity else 2, 10)),
            len_min=len_min,
            len_max=data.draw(st.integers(len_min, 7)),
            frames_min=frames_min,
            frames_max=data.draw(st.integers(frames_min, 5)),
            feature_dim=data.draw(st.integers(1, 5)),
            noise=data.draw(st.sampled_from((0.0, 0.3)) | st.floats(0.0, 2.0)),
            ambiguity=ambiguity,
            seed=data.draw(st.integers(0, 2 ** 32)),
        )
        n = data.draw(st.integers(1, 50))
        assert _fingerprints(gen_ctc_dataset(spec, n)) == _fingerprints(reference_ctc_dataset(spec, n))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_aed_examples_equal_the_token_by_token_reference(self, data):
        len_min = data.draw(st.integers(1, 5))
        spec = AedTaskSpec(
            vocab_size=data.draw(st.integers(2, 15)),
            len_min=len_min,
            len_max=data.draw(st.integers(len_min, 10)),
            rule=data.draw(st.sampled_from(("reverse", "cipher", "sort"))),
            copy_noise=data.draw(st.sampled_from((0.0, 0.1, 1.0)) | st.floats(0.0, 1.0)),
            seed=data.draw(st.integers(0, 2 ** 32)),
        )
        n = data.draw(st.integers(1, 50))
        assert _fingerprints(gen_aed_dataset(spec, n)) == _fingerprints(reference_aed_dataset(spec, n))


def _fingerprints(dataset):
    """Each example by bytes: a frame matrix by its dtype, shape and
    buffer, a token tuple and a target by ``repr`` (so a numpy integer
    shows), and the split."""
    return [
        ((ex.x.dtype.str, ex.x.shape, ex.x.tobytes()) if isinstance(ex.x, np.ndarray) else repr(ex.x),
         repr(ex.y), ex.split)
        for ex in dataset
    ]


class TestBatching:
    def test_padding_never_reaches_the_loss(self):
        spec = CtcTaskSpec(seed=23)
        data = split_examples(gen_ctc_dataset(spec, 60), "train")[:6]
        model = CtcModel(
            ModelConfig(task="ctc", vocab_size=spec.vocab_size, feature_dim=spec.feature_dim,
                        d_model=8, enc_layers=1, heads=2, ffn_dim=16),
            seed=0,
        )
        batch = Batch(data)
        assert batch.sources.shape[0] == len(data) and batch.sources.dtype == np.float64
        no_teacher = TrainConfig(use_teacher=False)
        batched = loss_total(model, batch, no_teacher, None).total.item()
        singles = [loss_total(model, [(ex.x, ex.y)], no_teacher, None).total.item() for ex in data]
        assert abs(batched - float(np.mean(singles))) <= 1e-10

    def test_epoch_permutation_is_seeded(self):
        data = gen_aed_dataset(AedTaskSpec(seed=29), 30)
        ids_a = [id(b.examples[0]) for b in batch_iter(data, 4, np.random.default_rng(1))]
        ids_b = [id(b.examples[0]) for b in batch_iter(data, 4, np.random.default_rng(1))]
        ids_c = [id(b.examples[0]) for b in batch_iter(data, 4, np.random.default_rng(2))]
        assert ids_a == ids_b
        assert ids_a != ids_c

    def test_last_partial_batch_included(self):
        data = gen_aed_dataset(AedTaskSpec(seed=31), 10)
        batches = list(batch_iter(data, 4, np.random.default_rng(0)))
        assert [len(b) for b in batches] == [4, 4, 2]
        seen = sorted(id(ex) for b in batches for ex in b.examples)
        assert seen == sorted(id(ex) for ex in data)

    def test_bad_batch_size_rejected(self):
        data = gen_aed_dataset(AedTaskSpec(seed=1), 4)
        with pytest.raises(ContractError):
            next(batch_iter(data, 0, np.random.default_rng(0)))

    def test_aed_items_roundtrip_through_padding(self):
        data = gen_aed_dataset(AedTaskSpec(seed=37), 7)
        batch = Batch(data)
        assert batch.sources.dtype == np.int64
        for i, ex in enumerate(data):
            assert tuple(batch.sources[i, : batch.lengths[i]]) == ex.x
            assert tuple(batch.target_ids[i, : batch.target_lengths[i]]) == ex.y == batch.targets[i]

    @pytest.mark.parametrize("bad", [(1.9, 2), ("1", "2"), (np.float64(1.0),)],
                             ids=["float", "string", "numpy float"])
    def test_a_target_token_that_is_no_integer_is_refused(self, bad):
        x = np.zeros((4, 2))
        with pytest.raises(ContractError, match="^a batch target must be a sequence of integer token ids$"):
            Batch([(x, (1, 2)), (x, bad)])

    def test_numpy_integer_targets_are_read_as_python_ints(self):
        x = np.zeros((4, 2))
        batch = Batch([(x, np.array([1, 2])), (x, (np.int64(3),))])
        assert batch.targets == [(1, 2), (3,)]
        assert all(type(t) is int for y in batch.targets for t in y)

    @pytest.mark.parametrize("source", [(1.5, 2.0), ("1", "2"), (1.9, "2"), np.array([1.0, 2.0])],
                             ids=["float", "string", "float and string", "numpy float"])
    def test_an_aed_source_token_that_is_no_integer_is_refused(self, source):
        with pytest.raises(ContractError, match="^sources item 1 must hold integer token ids"):
            Batch([((1, 2), (1,)), (source, (1, 2))])


_TOKEN_KINDS = {"tuple": tuple, "list": list, "int64": np.array,
                "int32": lambda t: np.array(t, dtype=np.int32), "int16": lambda t: np.array(t, dtype=np.int16)}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-1, 40), min_size=1, max_size=8),
                          st.sampled_from(list(_TOKEN_KINDS))), min_size=1, max_size=8),
       st.data())
def test_padded_stack_matches_the_per_item_loop_and_refuses_a_token_that_is_no_integer(drawn, data):
    items = [_TOKEN_KINDS[kind](tokens) for tokens, kind in drawn]
    out, lengths = tasks.padded_stack(items, "targets")
    ref_out, ref_lengths = reference_padded_stack(items)
    assert out.dtype == ref_out.dtype == np.int64
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(lengths, ref_lengths)
    # one float or one string token in one item: refused, naming that item
    i = data.draw(st.integers(0, len(drawn) - 1))
    tokens = list(drawn[i][0])
    j = data.draw(st.integers(0, len(tokens) - 1))
    tokens[j] = data.draw(st.sampled_from([tokens[j] + 0.5, float(tokens[j]), str(tokens[j])]))
    bad = items[:i] + [tuple(tokens) if drawn[i][1] == "tuple" else tokens] + items[i + 1:]
    with pytest.raises(ContractError, match=f"^targets item {i} must hold integer token ids"):
        tasks.padded_stack(bad, "targets")


# token strategies by kind; only the first two are integer ids
_TOKENS = {
    "int": st.integers(-5, 40),
    "numpy int": st.tuples(st.integers(-5, 40), st.sampled_from([np.int8, np.int32, np.int64])).map(
        lambda v: v[1](v[0])),
    "bool": st.booleans(),
    "numpy bool": st.booleans().map(np.bool_),
    "float": st.floats(-50, 50),
    "string": st.integers(0, 40).map(str),
}
_TOKEN_FORMS = {
    "token_tuple": lambda v: tasks.token_tuple(v, "tokens"),
    "padded_stack": lambda v: tasks.padded_stack([v], "tokens"),
    "models._ids": lambda v: _ids(v, "tokens"),
}


# integer ids with one Python or numpy bool among them, which np.asarray
# would read as 0 or 1 in an integer dtype
_INTS_AND_A_BOOL = st.tuples(
    st.lists(st.one_of(_TOKENS["int"], _TOKENS["numpy int"]), min_size=1, max_size=5),
    st.one_of(_TOKENS["bool"], _TOKENS["numpy bool"]), st.integers(0, 5),
).map(lambda v: ("ints and a bool", v[0][:v[2]] + [v[1]] + v[0][v[2]:]))


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from(list(_TOKENS)).flatmap(lambda kind: st.tuples(
    st.just(kind), st.one_of(st.lists(_TOKENS[kind], min_size=1, max_size=6), _TOKENS[kind]))),
    _INTS_AND_A_BOOL))
def test_the_three_token_forms_accept_exactly_the_integer_sequences(case):
    # a sequence of one kind of token, or a bare token of that kind, or
    # integer ids with a bool among them
    kind, value = case
    integer = isinstance(value, list) and kind in ("int", "numpy int")
    for name, form in _TOKEN_FORMS.items():
        try:
            form(value)
        except (ContractError, ShapeError):
            assert not integer, f"{name} refused {value!r}"
        else:
            assert integer, f"{name} accepted {value!r}"


class TestExport:
    def test_ctc_roundtrip_is_exact(self, tmp_path):
        data = gen_ctc_dataset(CtcTaskSpec(seed=41), 20)
        path = tmp_path / "data.txt"
        export_dataset(data, path)
        task, loaded = import_dataset(path)
        assert task == "ctc"
        for a, b in zip(data, loaded):
            np.testing.assert_array_equal(a.x, b.x)
            assert a.y == b.y and a.split == b.split

    def test_aed_roundtrip_is_exact(self, tmp_path):
        data = gen_aed_dataset(AedTaskSpec(seed=43), 25)
        path = tmp_path / "data.txt"
        export_dataset(data, path)
        task, loaded = import_dataset(path)
        assert task == "aed"
        assert [(e.x, e.y, e.split) for e in loaded] == [(e.x, e.y, e.split) for e in data]

    def test_unrecognized_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something\n")
        with pytest.raises(ContractError):
            import_dataset(path)

    @pytest.mark.parametrize("task", ["ctc", "aed"])
    def test_an_empty_dataset_is_refused_before_the_file_is_opened(self, tmp_path, task):
        # an existing export of either task stays as it was
        path = tmp_path / "data.txt"
        export_dataset(generate_dataset(RunConfig(task=task, n_examples=3)), path)
        kept = path.read_bytes()
        with pytest.raises(ContractError, match="empty dataset"):
            export_dataset([], path)
        assert path.read_bytes() == kept

    def test_a_dataset_of_two_kinds_is_refused_before_the_file_is_opened(self, tmp_path):
        ctc = gen_ctc_dataset(CtcTaskSpec(seed=41), 3)
        aed = gen_aed_dataset(AedTaskSpec(seed=41), 3)
        narrow = gen_ctc_dataset(CtcTaskSpec(seed=41, feature_dim=5), 3)
        path = tmp_path / "data.txt"
        path.write_text("kept\n")
        for mixed, kinds in ((ctc + aed, "aed and ctc feature_dim=8"),
                             (narrow + ctc, "ctc feature_dim=5 and ctc feature_dim=8")):
            with pytest.raises(ContractError, match=f"a dataset mixes sources of {kinds}$"):
                export_dataset(mixed, path)
        assert path.read_text() == "kept\n"
