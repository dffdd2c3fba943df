import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_distill import tensor as T
from oracle_distill.cli import main
from oracle_distill.errors import (
    CheckpointFormatError,
    ContractError,
    ShapeError,
    VocabularyError,
)
from oracle_distill.models import (
    MASK,
    AedModel,
    CtcModel,
    ModelConfig,
    build_model,
    count_params,
    is_student_param,
    load_checkpoint,
    save_checkpoint,
    sinusoidal_positions,
)
from oracle_distill.tensor import Tensor, grad_check

from helpers import sum_sq, zero_cross_attention, zero_fusion


def tiny_ctc(seed=0, **kw):
    defaults = dict(task="ctc", vocab_size=3, feature_dim=4, d_model=8,
                    enc_layers=1, heads=2, ffn_dim=16, fusion_layers=1)
    defaults.update(kw)
    return CtcModel(ModelConfig(**defaults), seed=seed)


def tiny_aed(seed=0, **kw):
    defaults = dict(task="aed", vocab_size=5, d_model=8, enc_layers=1,
                    dec_layers=1, heads=2, ffn_dim=16, fusion_layers=1)
    defaults.update(kw)
    return AedModel(ModelConfig(**defaults), seed=seed)


class TestEncoderForward:
    def test_output_shape_for_any_length(self):
        model = tiny_ctc()
        rng = np.random.default_rng(0)
        for t in (1, 3, 9):
            h = model.encode(rng.standard_normal((t, 4)))
            assert h.shape == (t, 8)

    def test_batch_items_are_independent(self):
        model = tiny_ctc()
        rng = np.random.default_rng(1)
        items = [rng.standard_normal((4, 4)) for _ in range(3)]
        outs = [model.encode(x).data for x in items]
        perm = [2, 0, 1]
        outs_perm = [model.encode(items[i]).data for i in perm]
        for j, i in enumerate(perm):
            np.testing.assert_array_equal(outs_perm[j], outs[i])

    def test_zero_layers_is_projection_plus_positions(self):
        model = tiny_ctc(enc_layers=0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        h = model.encode(x)
        w = model.store.peek("seq.in_proj.w").data
        b = model.store.peek("seq.in_proj.b").data
        expected = x @ w + b + sinusoidal_positions(5, model.cfg.d_model)
        np.testing.assert_array_equal(h.data, expected)

    def test_empty_input_rejected(self):
        with pytest.raises(ContractError):
            tiny_ctc().encode(np.zeros((0, 4)))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 4))
        a, b = tiny_ctc(seed=9), tiny_ctc(seed=9)
        np.testing.assert_array_equal(a.student_head(a.encode(x)).data, b.student_head(b.encode(x)).data)

    def test_head_shape_and_linearity(self):
        model = tiny_ctc()
        rng = np.random.default_rng(4)
        h = Tensor(rng.standard_normal((6, 8)))
        out = model._head("seq.out", h)
        assert out.shape == (6, 4)  # 3 labels + blank
        zero = model._head("seq.out", Tensor(np.zeros((6, 8)))).data
        doubled = model._head("seq.out", T.scale(h, 2.0)).data
        np.testing.assert_allclose(doubled - zero, 2.0 * (out.data - zero), atol=1e-12)


class TestOracleEncoder:
    def test_output_length_matches_input(self):
        model = tiny_ctc()
        for tokens in ((1,), (1, 2, 3), (2, 2, 2, 2, 2)):
            r = model.oracle_guidance(tokens)
            assert r.shape == (len(tokens), 8)

    def test_fully_masked_input_forgets_the_target(self):
        model = tiny_aed()
        a = model.oracle_guidance([MASK, MASK, MASK]).data
        b = model.oracle_guidance([MASK, MASK, MASK]).data
        np.testing.assert_array_equal(a, b)
        # different underlying targets of equal length produce the same ids
        assert np.array_equal(
            model.oracle_guidance([MASK] * 4).data, model.oracle_guidance([MASK] * 4).data
        )

    def test_unknown_token_rejected(self):
        with pytest.raises(VocabularyError):
            tiny_ctc().oracle_guidance((1, 9))

    def test_gradient_through_embedding_and_attention(self):
        model = tiny_ctc()
        table = model.store.peek("oracle.embed")

        def f(_):
            return sum_sq(model.oracle_guidance((1, 2, 1)))

        assert grad_check(f, table) <= 1e-5


class TestFusion:
    def test_output_keeps_source_length(self):
        model = tiny_ctc()
        rng = np.random.default_rng(5)
        for t in range(1, 17):
            for l in range(1, 17):
                h = Tensor(rng.standard_normal((t, 8)))
                r = Tensor(rng.standard_normal((l, 8)))
                assert model.fuse(h, r).shape == (t, 8)

    def test_zeroed_cross_attention_ignores_guidance(self):
        model = tiny_ctc()
        zero_cross_attention(model)
        rng = np.random.default_rng(6)
        h = Tensor(rng.standard_normal((4, 8)))
        r1 = Tensor(rng.standard_normal((3, 8)))
        r2 = Tensor(rng.standard_normal((7, 8)))
        np.testing.assert_array_equal(model.fuse(h, r1).data, model.fuse(h, r2).data)

    def test_fully_zeroed_fusion_is_identity(self):
        model = tiny_ctc()
        zero_fusion(model)
        rng = np.random.default_rng(7)
        h = Tensor(rng.standard_normal((5, 8)))
        r = Tensor(rng.standard_normal((2, 8)))
        np.testing.assert_array_equal(model.fuse(h, r).data, h.data)

    def test_width_mismatch_rejected(self):
        model = tiny_ctc()
        with pytest.raises(ShapeError):
            model.fuse(Tensor(np.zeros((3, 8))), Tensor(np.zeros((2, 4))))

    def test_gradient_through_both_attention_stages(self):
        model = tiny_ctc()
        rng = np.random.default_rng(8)
        h = Tensor(rng.standard_normal((3, 8)))
        r = Tensor(rng.standard_normal((2, 8)))
        for name in ("fusion.f0.self.wq", "fusion.f0.cross.wq", "fusion.f0.ffn.w1"):
            w = model.store.peek(name)
            assert grad_check(lambda _: sum_sq(model.fuse(h, r)), w) <= 1e-5

    def test_capture_rows_are_stochastic(self):
        model = tiny_ctc()
        rng = np.random.default_rng(9)
        capture = []
        model.fuse(Tensor(rng.standard_normal((4, 8))), Tensor(rng.standard_normal((3, 8))), capture=capture)
        assert len(capture) == 1 and capture[0].shape == (4, 3)
        np.testing.assert_allclose(capture[0].sum(axis=1), 1.0, atol=1e-9)


class TestTeacherHead:
    def test_same_output_space_as_student(self):
        model = tiny_ctc()
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 4))
        h = model.encode(x)
        assert model.teacher_logits(h, model.oracle_guidance((1, 2))).shape == model.student_head(h).shape

    def test_zero_weight_head_gives_uniform_posteriors(self):
        model = tiny_ctc()
        model.store.peek("teacher_out.w").data[...] = 0.0
        model.store.peek("teacher_out.b").data[...] = 0.0
        h = model.encode(np.random.default_rng(11).standard_normal((3, 4)))
        logits = model.teacher_logits(h, model.oracle_guidance((1,)))
        post = T.softmax(logits).data
        np.testing.assert_allclose(post, 0.25, atol=1e-12)

    def test_gradient_check(self):
        model = tiny_ctc()
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 4))
        w = model.store.peek("teacher_out.w")
        assert grad_check(lambda _: sum_sq(model.teacher_logits(model.encode(x), model.oracle_guidance((1, 2)))), w) <= 1e-5


class TestAedDecoder:
    def test_causality_exact(self):
        model = tiny_aed()
        rng = np.random.default_rng(13)
        src = (1, 2, 3)
        memory = model.encode(src)
        prefix = [model.bos, 1, 4, 2, 5]
        base = model.decode_logits(model.decode_cache(memory), prefix).data
        for j in range(1, len(prefix)):
            perturbed = list(prefix)
            perturbed[j] = (perturbed[j] % 5) + 1
            out = model.decode_logits(model.decode_cache(memory), perturbed).data
            np.testing.assert_array_equal(out[:j], base[:j])

    def test_single_token_prefix(self):
        model = tiny_aed()
        logits = model.decode_logits(model.decode_cache(model.encode((1, 2))), [model.bos])
        assert logits.shape == (1, 7)  # 5 tokens + bos + eos

    def test_prefix_must_start_with_bos(self):
        model = tiny_aed()
        with pytest.raises(ContractError):
            model.decode_logits(model.decode_cache(model.encode((1,))), [1, 2])

    def test_gradient_check(self):
        model = tiny_aed()
        w = model.store.peek("seq.dec0.cross.wq")

        def f(_):
            return sum_sq(model.student_head(model.encode((1, 2, 3)), (3, 1)))

        assert grad_check(f, w) <= 1e-5

    def test_greedy_decode_stops_and_stays_in_vocab(self):
        model = tiny_aed()
        pred = model.predict([(1, 2, 3, 4)])[0]
        assert len(pred) <= 2 * 4 + 4
        assert all(0 <= t <= model.eos for t in pred)


class TestTokenInput:
    """Token input is converted in one place per form, and each refuses a
    float or a string token rather than truncate or parse it."""

    @pytest.mark.parametrize("call", [
        lambda aed, ctc: aed.predict([(1, 2), (1.9, 2.2)]),
        lambda aed, ctc: aed.predict([("1", "2")]),
        lambda aed, ctc: aed.predict_teacher([(1, 2)], [(3.7, 4.1)]),
        lambda aed, ctc: ctc.predict_teacher([np.zeros((5, 4))], [(2.7, 1.1)]),
        lambda aed, ctc: aed.decode_logits(aed.decode_cache(aed.encode((1, 2))), [0.6]),
        lambda aed, ctc: aed.oracle_guidance([1.5, 2.0]),
        lambda aed, ctc: ctc.oracle_guidance(np.array(["1", "2"])),
        lambda aed, ctc: aed.encode((1.9, 2)),
    ], ids=["aed predict float source", "aed predict string source", "aed predict_teacher float target",
            "ctc predict_teacher float target", "decode_logits float token", "oracle_guidance float",
            "oracle_guidance string", "aed encode float source"])
    def test_a_token_that_is_no_integer_is_refused(self, call):
        with pytest.raises(ContractError, match="integer"):
            call(tiny_aed(), tiny_ctc())

    # each takes one item padded to 3 positions, of which ``lengths`` are real
    @pytest.mark.parametrize("call", [
        lambda ctc, lengths: ctc.encode(np.ones((1, 3, 4)), lengths),
        lambda ctc, lengths: ctc.oracle_guidance(np.ones((1, 3), dtype=int), lengths),
        lambda ctc, lengths: ctc.fuse(Tensor(np.ones((1, 3, 8))), Tensor(np.ones((1, 2, 8))), lengths=lengths),
        lambda ctc, lengths: ctc.fuse(Tensor(np.ones((1, 2, 8))), Tensor(np.ones((1, 3, 8))),
                                      guidance_lengths=lengths),
    ], ids=["encode", "oracle_guidance", "fuse lengths", "fuse guidance_lengths"])
    @pytest.mark.parametrize("lengths", [[2.5], [True], np.array([2.0]), [np.bool_(True)]],
                             ids=["float", "bool", "float array", "numpy bool"])
    def test_a_length_that_is_no_integer_is_refused(self, call, lengths):
        # a float is not rounded up to a real position, nor a bool read as 1
        with pytest.raises(ContractError, match=r"^lengths must hold integers, got "):
            call(tiny_ctc(), lengths)

    def test_numpy_integer_lengths_read_as_ints(self):
        model, feats = tiny_ctc(), np.random.default_rng(2).standard_normal((1, 3, 4))
        np.testing.assert_array_equal(model.encode(feats, np.array([2], dtype=np.int8)).data,
                                      model.encode(feats, [2]).data)

    def test_numpy_integer_tokens_decode_as_python_ints(self):
        model = tiny_aed(seed=4)
        sources = [np.array([1, 2, 3], dtype=np.int32), np.array([4, 5], dtype=np.uint8)]
        assert model.predict(sources) == model.predict([(1, 2, 3), (4, 5)])
        targets = [np.array([2, MASK], dtype=np.int16), (np.int64(3),)]
        assert model.predict_teacher(sources, targets) == model.predict_teacher([(1, 2, 3), (4, 5)], [(2, MASK), (3,)])
        memory = model.encode(np.array([1, 2], dtype=np.int32))
        prefix = np.array([model.bos, 4], dtype=np.int8)
        np.testing.assert_array_equal(model.decode_logits(model.decode_cache(memory), prefix).data,
                                      model.decode_logits(model.decode_cache(memory), [model.bos, 4]).data)


class TestParamAccounting:
    def test_groups_are_disjoint_and_cover_everything(self):
        model = tiny_ctc()
        names = model.store.names()
        student = {n for n in names if is_student_param(n)}
        aux = set(names) - student
        assert student and aux
        counts = count_params(model)
        assert counts["total"] == counts["student"] + counts["aux"]

    def test_zero_layer_count_is_proj_plus_heads_plus_aux(self):
        model = tiny_ctc(enc_layers=0)
        counts = count_params(model)
        assert counts["student"] == 4 * 8 + 8 + 8 * 4 + 4  # in_proj + head

    def test_configured_count_matches_shape_arithmetic(self):
        model = tiny_ctc()
        d, f, out, feat = 8, 16, 4, 4
        attn = 4 * d * d + 4 * d
        ffn = d * f + f + f * d + d
        block = attn + ffn
        expected_student = (feat * d + d) + block + (d * out + out)
        expected_aux = (4 * d) + block + (attn + attn + ffn) + (d * out + out)
        counts = count_params(model)
        assert counts["student"] == expected_student
        assert counts["aux"] == expected_aux

    def test_aed_configured_count_matches_shape_arithmetic(self):
        model = tiny_aed()
        d, f, out, rows = 8, 16, 7, 6  # rows: content tokens + mask row
        proj = 4 * d * d
        norm = 2 * d  # gain + bias
        ffn = d * f + f + f * d + d
        enc_block = 2 * norm + proj + ffn
        cross_block = 4 * norm + 2 * proj + ffn  # decoder and fusion layers
        head = d * out + out
        counts = count_params(model)
        assert counts["student"] == 2 * out * d + enc_block + cross_block + head
        assert counts["aux"] == rows * d + enc_block + cross_block + head
        norms = {n.rsplit(".", 1)[0] for n in model.store.names() if ".ln" in n}
        cross_sites = ("ln1", "ln2", "ln_mem", "ln3")
        assert norms == (
            {f"{b}.{ln}" for b in ("seq.enc0", "oracle.enc0") for ln in ("ln1", "ln2")}
            | {f"{b}.{ln}" for b in ("seq.dec0", "fusion.f0") for ln in cross_sites}
        )

    def test_student_decode_reads_no_aux_parameter(self):
        model = tiny_ctc()
        rng = np.random.default_rng(14)
        model.store.reset_reads()
        model.predict([rng.standard_normal((4, 4))])
        assert model.store.reads_with_prefix("oracle.", "fusion.", "teacher_out.") == 0
        assert model.store.reads_with_prefix("seq.") > 0

    def test_aed_student_decode_reads_no_aux_parameter(self):
        model = tiny_aed()
        model.store.reset_reads()
        model.predict([(1, 2, 3)])
        assert model.store.reads_with_prefix("oracle.", "fusion.", "teacher_out.") == 0


class TestCheckpoint:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        model = tiny_ctc(seed=21)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(model, p1, run_config={"alpha": "2.0", "steps": "10"})
        loaded, run_kv = load_checkpoint(p1)
        assert run_kv == {"alpha": "2.0", "steps": "10"}
        save_checkpoint(loaded, p2, run_config=run_kv)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = tiny_aed(seed=22)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        src = (2, 4, 1)
        assert loaded.predict([src]) == model.predict([src])
        np.testing.assert_array_equal(
            loaded.student_head(loaded.encode(src), (1, 2)).data,
            model.student_head(model.encode(src), (1, 2)).data,
        )

    def test_corrupt_header_reports_version(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("something else\n[end]\n")
        with pytest.raises(CheckpointFormatError, match="oracle-distill-checkpoint v3"):
            load_checkpoint(path)

    def test_v1_file_is_refused_at_the_header(self, tmp_path):
        # and a v2 file, whose config line has a max_len field that v3 lacks
        v2_config = ('{"model": {"d_model": 32, "dec_layers": 2, "enc_layers": 2, "feature_dim": 8, '
                     '"ffn_dim": 64, "fusion_layers": 1, "heads": 2, "max_len": 128, "task": "ctc", '
                     '"vocab_size": 6}, "run": {}}')
        for version, body in (("v1", "[config]\ntask = ctc"), ("v2", v2_config)):
            path = tmp_path / f"{version}.ckpt"
            path.write_text(f"oracle-distill-checkpoint {version}\n{body}\n[end]\n")
            with pytest.raises(CheckpointFormatError, match=f"expected 'oracle-distill-checkpoint v3', "
                                                            f"got 'oracle-distill-checkpoint {version}'"):
                load_checkpoint(path)

    def test_missing_layer_norm_param_is_named(self, tmp_path):
        path = tmp_path / "short.ckpt"
        save_checkpoint(tiny_aed(), path)
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith("seq.dec0.ln_mem.g ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointFormatError, match=r"missing \['seq\.dec0\.ln_mem\.g'\]"):
            load_checkpoint(path)

    @staticmethod
    def _rewritten(tmp_path, edit):
        """A checkpoint of ``tiny_ctc`` whose lines went through ``edit``."""
        path = tmp_path / "damaged.ckpt"
        save_checkpoint(tiny_ctc(), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        return path

    @classmethod
    def _damaged(cls, tmp_path, damage):
        """A checkpoint whose ``seq.out.b`` line (``seq.out.b 4 HEX``) is damaged."""

        def edit(lines):
            at = next(i for i, line in enumerate(lines) if line.startswith("seq.out.b "))
            name, dim, digits = lines[at].split(" ")
            lines[at] = {
                "shape token": f"{name} four {digits}",
                "hex value": f"{name} {dim} zz{digits[2:]}",
                "value count": f"{name} {dim} {digits[:-16]}",
                "no data": f"{name} {dim}",
                "repeated": lines[at] + "\n" + lines[at],
            }[damage]
            return lines

        return cls._rewritten(tmp_path, edit)

    @pytest.mark.parametrize("damage", ["shape token", "hex value", "value count", "no data", "repeated"])
    def test_damaged_param_section_names_the_param(self, tmp_path, damage):
        with pytest.raises(CheckpointFormatError, match=r"param seq\.out\.b"):
            load_checkpoint(self._damaged(tmp_path, damage))

    def test_cli_reports_a_damaged_param_section(self, tmp_path, capsys):
        path = self._damaged(tmp_path, "value count")
        assert main(["eval", "--checkpoint", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: param seq.out.b: ")

    @pytest.mark.parametrize("damage", ["not json", "missing field", "mistyped field", "run value"])
    def test_damaged_config_line_is_a_format_error(self, tmp_path, damage):
        def edit(lines):
            header = json.loads(lines[1])
            if damage == "not json":
                lines[1] = lines[1][:-1]
                return lines
            if damage == "missing field":
                del header["model"]["ffn_dim"]
            elif damage == "mistyped field":
                header["model"]["d_model"] = str(header["model"]["d_model"])
            else:
                header["run"] = {"steps": 10}
            lines[1] = json.dumps(header, sort_keys=True)
            return lines

        with pytest.raises(CheckpointFormatError, match="bad config line"):
            load_checkpoint(self._rewritten(tmp_path, edit))

    def test_non_ascii_byte_is_a_format_error(self, tmp_path):
        path = self._rewritten(tmp_path, lambda lines: [lines[0], lines[1].replace("ctc", "ctç"), *lines[2:]])
        with pytest.raises(CheckpointFormatError, match="not an ASCII checkpoint"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = tiny_ctc()
        path = tmp_path / "t.ckpt"
        save_checkpoint(model, path)
        clipped = path.read_text().splitlines()[:-3]
        path.write_text("\n".join(clipped) + "\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


def test_build_model_dispatches_on_task():
    assert isinstance(build_model(ModelConfig(task="ctc")), CtcModel)
    assert isinstance(build_model(ModelConfig(task="aed")), AedModel)


def test_heads_must_divide_width():
    with pytest.raises(ContractError):
        ModelConfig(d_model=9, heads=2)


def test_odd_model_width_builds():
    table = sinusoidal_positions(5, 3)
    np.testing.assert_array_equal(table[:, 1], np.cos(np.arange(5.0)))
    assert build_model(ModelConfig(d_model=3, heads=1), seed=0).cfg.d_model == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.sampled_from([64, 65, 128, 129]) | st.integers(1, 300), st.data())
def test_positions_of_any_span_are_the_rows_of_a_table_that_long(d, stop, data):
    # the oracle is a table of exactly ``stop`` rows, computed afresh
    start = data.draw(st.integers(0, stop - 1))
    model = CtcModel(ModelConfig(d_model=d, heads=1, enc_layers=0, fusion_layers=0), seed=0)
    want = sinusoidal_positions.__wrapped__(stop, d)[start:stop]
    assert model._positions(stop, start).data.tobytes() == want.tobytes()


@st.composite
def checkpointed_models(draw):
    heads = draw(st.integers(1, 2))
    cfg = ModelConfig(
        task=draw(st.sampled_from(["ctc", "aed"])),
        vocab_size=draw(st.integers(1, 4)),
        feature_dim=draw(st.integers(1, 3)),
        d_model=heads * draw(st.integers(1, 3)),
        enc_layers=draw(st.integers(0, 1)),
        dec_layers=draw(st.integers(0, 1)),
        heads=heads,
        ffn_dim=draw(st.integers(1, 4)),
        fusion_layers=draw(st.integers(0, 1)),
    )
    model = build_model(cfg, seed=draw(st.integers(0, 2 ** 16)))
    # overwrite one parameter with arbitrary floats: signed zeros,
    # subnormals, huge values and infinities must survive the hex format
    name = draw(st.sampled_from(sorted(model.store.names())))
    target = model.store.peek(name).data
    values = draw(st.lists(st.floats(allow_nan=False), min_size=target.size, max_size=target.size))
    target[...] = np.reshape(values, target.shape)
    # any text: non-ASCII, line breaks and " = " must survive the config line
    text = st.text(max_size=10) | st.sampled_from(["out_dir", "/tmp/ré", "a = b", "two\nlines"])
    run_config = draw(st.none() | st.dictionaries(text, text))
    return model, run_config


@settings(max_examples=30, deadline=None)
@given(checkpointed_models())
def test_checkpoint_save_load_save_is_byte_identical(case):
    model, run_config = case
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.ckpt"), Path(tmp, "b.ckpt")
        save_checkpoint(model, first, run_config=run_config)
        loaded, run_kv = load_checkpoint(first)
        assert run_kv == (run_config or {})
        save_checkpoint(loaded, second, run_config=run_kv)
        assert first.read_bytes() == second.read_bytes()
