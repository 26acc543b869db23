"""Property tests for the string similarity functions."""

from hypothesis import given
from hypothesis import strategies as st

from repro.util.text import (
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    ngram_similarity,
    normalise_label,
    token_set_similarity,
)

words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=0,
    max_size=12,
)


@given(words, words)
def test_levenshtein_symmetric(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(words, words)
def test_levenshtein_identity(a, b):
    assert (levenshtein(a, b) == 0) == (a == b)


@given(words, words, words)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(words, words)
def test_levenshtein_bounded_by_longer_string(a, b):
    assert levenshtein(a, b) <= max(len(a), len(b))


@given(words, words)
def test_levenshtein_at_least_length_difference(a, b):
    assert levenshtein(a, b) >= abs(len(a) - len(b))


@given(words, words)
def test_similarity_functions_in_unit_interval(a, b):
    for fn in (
        levenshtein_similarity,
        jaro,
        jaro_winkler,
        ngram_similarity,
        token_set_similarity,
    ):
        value = fn(a, b)
        assert 0.0 <= value <= 1.0, fn.__name__


@given(words, words)
def test_jaro_symmetric(a, b):
    assert jaro(a, b) == jaro(b, a)


@given(words)
def test_jaro_identity_is_one(a):
    assert jaro(a, a) == 1.0 or a == ""


@given(words, words)
def test_jaro_winkler_dominates_jaro(a, b):
    assert jaro_winkler(a, b) >= jaro(a, b)


@given(words, words)
def test_ngram_symmetric(a, b):
    assert ngram_similarity(a, b) == ngram_similarity(b, a)


@given(words)
def test_ngram_identity(a):
    assert ngram_similarity(a, a) == 1.0


@given(st.text(max_size=24))
def test_normalise_label_idempotent(label):
    """Normalised labels are fixed points, so they score as they are."""
    once = normalise_label(label)
    assert normalise_label(once) == once
    assert token_set_similarity(once, "x") == token_set_similarity(label, "x")
