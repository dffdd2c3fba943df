import pytest

from oracle_distill.errors import ContractError
from oracle_distill.metrics import edit_distance, exact_match_rate, token_error_rate


class TestEditDistance:
    def test_identity_is_zero(self):
        assert edit_distance((1, 2, 3), (1, 2, 3)) == 0

    def test_known_values(self):
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance((), (1, 2)) == 2
        assert edit_distance((1, 2), ()) == 2
        assert edit_distance((1, 3), (1, 2)) == 1

    def test_symmetry(self):
        assert edit_distance((1, 2, 2, 4), (2, 4, 1)) == edit_distance((2, 4, 1), (1, 2, 2, 4))

    def test_triangle_inequality_spot_check(self):
        a, b, c = (1, 2, 3), (2, 3), (2, 2, 3, 1)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class TestTokenErrorRate:
    def test_perfect_predictions_give_zero(self):
        refs = [(1, 2), (3,)]
        assert token_error_rate(refs, refs) == 0.0

    def test_all_deletions_give_one(self):
        refs = [(1, 2, 3), (4, 5)]
        preds = [(), ()]
        assert token_error_rate(preds, refs) == 1.0

    def test_corpus_weighting(self):
        # 1 error over 4 reference tokens
        assert token_error_rate([(1, 2, 9), (4,)], [(1, 2, 3), (4,)]) == 0.25

    def test_empty_reference_rejected(self):
        with pytest.raises(ContractError):
            token_error_rate([(1,)], [()])

    def test_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            token_error_rate([(1,)], [(1,), (2,)])


def test_exact_match_rate():
    assert exact_match_rate([(1, 2), (3,)], [(1, 2), (4,)]) == 0.5
    with pytest.raises(ContractError):
        exact_match_rate([], [])


@pytest.mark.parametrize("predictions", [[(1,), (2,)], []], ids=["one too many", "none"])
def test_exact_match_rate_refuses_mismatched_counts(predictions):
    with pytest.raises(ContractError, match="^prediction and reference counts differ$"):
        exact_match_rate(predictions, [(1,)])
