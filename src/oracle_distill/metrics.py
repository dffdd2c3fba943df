"""Sequence evaluation metrics."""

from __future__ import annotations

from .errors import ContractError


def edit_distance(a, b) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    for i, ta in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tb in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ta != tb),
            )
        prev = cur
    return prev[len(b)]


def token_error_rate(predictions, references) -> float:
    """Corpus edit distance divided by total reference length."""
    predictions, references = list(predictions), list(references)
    if not references or any(len(r) == 0 for r in references):
        raise ContractError("references must be non-empty")
    if len(predictions) != len(references):
        raise ContractError("prediction and reference counts differ")
    errors = sum(edit_distance(p, r) for p, r in zip(predictions, references))
    return errors / sum(len(r) for r in references)


def exact_match_rate(predictions, references) -> float:
    predictions, references = list(predictions), list(references)
    if not references:
        raise ContractError("references must be non-empty")
    if len(predictions) != len(references):
        raise ContractError("prediction and reference counts differ")
    hits = sum(tuple(p) == tuple(r) for p, r in zip(predictions, references))
    return hits / len(references)
