import hashlib
import math

import numpy as np
import pytest

from oracle_distill.cli import main
from oracle_distill.ctc import ctc_loss_dp, min_frames
from oracle_distill.diagnostics import (
    bound_report_from_logits,
    check_lower_bound,
    dump_alignment,
    dump_attention,
    frame_posteriors,
    fusion_attention,
    kl_discrete,
    repetition_ratio,
)
from oracle_distill.errors import ContractError, ShapeError
from oracle_distill.models import CtcModel, ModelConfig

from helpers import kd_vs_q_gap


def tiny_ctc(seed=0, d_model=8, vocab_size=3, feature_dim=4):
    return CtcModel(
        ModelConfig(task="ctc", vocab_size=vocab_size, feature_dim=feature_dim,
                    d_model=d_model, enc_layers=1, heads=2, ffn_dim=2 * d_model),
        seed=seed,
    )


def random_ctc_instance(rng, max_t=6, max_l=3, max_k=3):
    k = int(rng.integers(2, max_k + 1))
    while True:
        l = int(rng.integers(1, max_l + 1))
        y = tuple(int(t) for t in rng.integers(1, k, size=l))
        if min_frames(y) <= max_t:
            break
    t = int(rng.integers(min_frames(y), max_t + 1))
    u_s = rng.standard_normal((t, k)) * 2.0
    u_t = rng.standard_normal((t, k)) * 2.0
    return u_s, u_t, y


class TestKlDiscrete:
    def test_hand_checked_two_path_instance(self):
        got = kl_discrete([0.9, 0.1], [0.5, 0.5])
        expected = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.3681, abs=5e-5)

    def test_identity_gives_zero(self):
        assert kl_discrete([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_discrete(p, q) >= 0.0

    def test_infinite_when_support_escapes(self):
        assert kl_discrete([1.0, 0.0], [0.0, 1.0]) == math.inf


class TestBoundReport:
    def test_slack_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u_s, u_t, y = random_ctc_instance(rng)
            r = bound_report_from_logits(u_s, u_t, y)
            assert r.slack >= -1e-9

    def test_slack_equals_conditional_kl(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            u_s, u_t, y = random_ctc_instance(rng)
            r = bound_report_from_logits(u_s, u_t, y)
            assert r.slack == pytest.approx(r.conditional_kl, abs=1e-9)

    def test_jensen_equality_when_teacher_matches_student_conditional(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u_s, _, y = random_ctc_instance(rng)
            r = bound_report_from_logits(u_s, u_s, y)
            assert abs(r.slack) <= 1e-9

    def test_q_identities(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            u_s, u_t, y = random_ctc_instance(rng)
            r = bound_report_from_logits(u_s, u_t, y)
            assert r.q_value <= 1e-12
            assert r.q_value == pytest.approx(r.neg_kl_bound - r.teacher_entropy, abs=1e-9)
            assert r.q_value == pytest.approx(
                -r.conditional_kl - r.teacher_entropy + r.log_likelihood_student, abs=1e-9
            )

    def test_every_field_is_a_plain_float(self):
        u_s, u_t, y = random_ctc_instance(np.random.default_rng(6))
        r = bound_report_from_logits(u_s, u_t, y)
        assert all(type(v) is float for v in vars(r).values()), vars(r)

    def test_loglik_agrees_with_dp_loss(self):
        rng = np.random.default_rng(5)
        u_s, u_t, y = random_ctc_instance(rng)
        r = bound_report_from_logits(u_s, u_t, y)
        assert r.log_likelihood_student == pytest.approx(
            -ctc_loss_dp(u_s, y).item(), abs=1e-9
        )

    def test_deterministic_teacher_reads_student_path_logprob(self):
        y = (1,)
        rng = np.random.default_rng(6)
        u_s = rng.standard_normal((2, 2))
        star = (1, 0)
        u_t = np.full((2, 2), -30.0)
        for t, k in enumerate(star):
            u_t[t, k] = 30.0
        r = bound_report_from_logits(u_s, u_t, y)
        lp = u_s - np.log(np.exp(u_s).sum(axis=1, keepdims=True))
        expected = lp[0, 1] + lp[1, 0]
        assert r.q_value == pytest.approx(expected, abs=1e-9)

    def test_model_level_wrappers(self):
        model = tiny_ctc(seed=7)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 4))
        y = (1, 2)
        r = check_lower_bound(model, x, y)
        assert r.slack >= -1e-9

    def test_kd_vs_q_gap_is_reported_not_asserted(self):
        model = tiny_ctc(seed=8)
        rng = np.random.default_rng(8)
        out = kd_vs_q_gap(model, rng.standard_normal((4, 4)), (1, 2))
        assert set(out) == {"kd_l2", "neg_q", "gap"}
        assert all(np.isfinite(v) for v in out.values())

    def test_logits_of_the_wrong_width_are_rejected(self):
        # the alphabet is the student's width, and the teacher's must match
        rng = np.random.default_rng(12)
        u = rng.standard_normal((3, 5))
        with pytest.raises(ShapeError):
            bound_report_from_logits(u[:, :3], u, (1,))

    def test_non_finite_logits_are_rejected(self):
        good = np.random.default_rng(13).standard_normal((3, 3))
        for bad in (np.full((3, 3), np.nan), np.where(np.eye(3) > 0, np.inf, good)):
            with pytest.raises(ContractError):
                bound_report_from_logits(bad, good, (1,))
            with pytest.raises(ContractError):
                bound_report_from_logits(good, bad, (1,))


class TestDumps:
    def test_alignment_dump_rows_are_distributions(self, tmp_path):
        model = tiny_ctc(seed=11)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 4))
        path = tmp_path / "align.csv"
        dump_alignment(model, x, (1, 2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,label,prob,mode"
        by_mode_frame = {}
        for line in lines[1:]:
            t, k, p, mode = line.split(",")
            by_mode_frame.setdefault((mode, int(t)), 0.0)
            by_mode_frame[(mode, int(t))] += float(p)
        modes = {m for m, _ in by_mode_frame}
        assert modes == {"student", "teacher"}
        for total in by_mode_frame.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_student_grid_ignores_the_target(self):
        model = tiny_ctc(seed=12)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 4))
        a = frame_posteriors(model, x)["student"]
        b = frame_posteriors(model, x, (1, 2))["student"]
        np.testing.assert_array_equal(a, b)

    def test_attention_rows_stochastic_and_shaped(self, tmp_path):
        model = tiny_ctc(seed=13)
        rng = np.random.default_rng(13)
        for t, l in ((3, 2), (6, 4), (2, 5)):
            x = rng.standard_normal((t, 4))
            y = tuple(1 + (i % 3) for i in range(l))
            mats = fusion_attention(model, x, y)
            assert len(mats) == model.cfg.fusion_layers
            assert mats[0].shape == (t, l)
            np.testing.assert_allclose(mats[0].sum(axis=1), 1.0, atol=1e-9)
        path = tmp_path / "attn.csv"
        dump_attention(model, rng.standard_normal((3, 4)), (1, 2), path)
        assert path.read_text().splitlines()[0] == "frame,token,score,layer"

    def test_fresh_model_attention_is_high_entropy(self):
        # measured over seeds at init: max row entry stays below 0.6 and
        # rows keep >= 85% of the uniform entropy over 8 keys
        model = CtcModel(
            ModelConfig(task="ctc", vocab_size=6, feature_dim=8, d_model=32,
                        enc_layers=2, heads=2, ffn_dim=64),
            seed=0,
        )
        rng = np.random.default_rng(14)
        x = rng.standard_normal((10, 8))
        y = (1, 3, 5, 6, 2, 4, 1, 5)
        mat = fusion_attention(model, x, y)[0]
        assert mat.max() < 0.6
        entropy = -(mat * np.log(mat)).sum(axis=1).mean()
        assert entropy >= 0.85 * math.log(len(y))


def test_attention_dump_of_a_short_aed_run_is_pinned(tmp_path):
    # A 20-step student-only run: the checkpoint depends on no teacher-side
    # gradient, so the digest pins the dump and its capture of the fusion
    # attention weights, not how the teacher trains.
    (tmp_path / "run.cfg").write_text("task = aed\nsteps = 20\nn_examples = 80\nuse_teacher = false\n")
    assert main(["train", "--config", str(tmp_path / "run.cfg"), "--seed", "2",
                 "--out", str(tmp_path / "run")]) == 0
    assert main(["dump", "--checkpoint", str(tmp_path / "run" / "checkpoint_final.txt"),
                 "--example-id", "1", "--what", "attention", "--out", str(tmp_path / "dump")]) == 0
    csv = (tmp_path / "dump" / "attention_1.csv").read_bytes()
    assert len(csv.splitlines()) == 50
    assert hashlib.sha256(csv).hexdigest() == (
        "8ac7cf5b188320fb27eed07d6cc80155ef443ed3346ef2a0419f183e9fe32f76"
    )


class TestRepetitionRatio:
    def test_hand_counts(self):
        assert repetition_ratio([("a", "b", "b", "c")]) == pytest.approx(0.25)
        assert repetition_ratio([("a", "a", "a")]) == pytest.approx(2 / 3)

    def test_distinct_tokens_give_zero(self):
        assert repetition_ratio([(1, 2, 3), (4, 5)]) == 0.0

    def test_pooled_over_sequences(self):
        assert repetition_ratio([(1, 1), (2, 3)]) == pytest.approx(0.25)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            repetition_ratio([])
        with pytest.raises(ContractError):
            repetition_ratio([(), ()])
