"""Property tests for the string similarity functions.

Besides the metric laws, the production scorers are diffed float for
float (``float.hex``) against the specs they replaced
(``helpers.oracles``): the window-scan Jaro, the ``Counter &`` Dice and
the per-pair ``NameSimilarity._compute`` blend.
"""

from collections import Counter
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from helpers import oracles
from repro.evaluation import build_workload
from repro.matching.similarity.name import NameSimilarity, Thesaurus
from repro.util.text import (
    char_positions,
    dice_coefficient,
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
#: few letters, so characters repeat and several compete for one match
repetitive = st.text(alphabet="abc", min_size=0, max_size=10)
#: lengths <= 3 give a match window of 0
short = st.text(alphabet="ab", min_size=0, max_size=3)
#: normalised multi-token labels, one-character tokens included
labels = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=5), min_size=1, max_size=3
).map(" ".join)
strings = st.one_of(words, repetitive, short, labels)
#: a string and a reordering of it: matches out of order, transpositions
shuffled = repetitive.flatmap(
    lambda a: st.tuples(st.just(a), st.permutations(a).map("".join))
)
pairs = st.one_of(st.tuples(strings, strings), shuffled)


def same_float(x: float, y: float) -> bool:
    return x.hex() == y.hex()


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


@given(pairs)
def test_jaro_matches_window_scan(pair):
    a, b = pair
    expected = oracles.scan_jaro(a, b)
    assert same_float(jaro(a, b), expected)
    assert same_float(jaro(a, b, char_positions(b)), expected)


@given(pairs)
def test_jaro_winkler_matches_window_scan(pair):
    a, b = pair
    assert same_float(jaro_winkler(a, b), oracles.scan_jaro_winkler(a, b))
    assert same_float(
        jaro_winkler(a, b, b_positions=char_positions(b)),
        oracles.scan_jaro_winkler(a, b),
    )


@given(pairs)
def test_ngram_similarity_matches_counter_dice(pair):
    a, b = pair
    assert same_float(
        ngram_similarity(a, b), oracles.counter_ngram_similarity(a, b)
    )


multisets = st.dictionaries(
    st.sampled_from("abcdef"), st.integers(min_value=0, max_value=4)
).map(Counter)


@given(multisets, multisets)
def test_dice_coefficient_matches_counter_and(profile_a, profile_b):
    """Also on zero counts, which ``Counter &`` drops."""
    assert same_float(
        dice_coefficient(profile_a, profile_b),
        oracles.counter_dice(profile_a, profile_b),
    )


@given(
    st.lists(st.one_of(labels, repetitive, short), min_size=2, max_size=6),
    st.booleans(),
    st.sampled_from([1, 2, 262_144]),
)
def test_compute_matches_pairwise_spec(names, with_thesaurus, memo_limit):
    """One scorer over many pairs: features are reused, and evicted.

    With a thesaurus, the first two labels are synonyms, so the floor
    applies; ``memo_limit`` 1 and 2 evict feature records between the
    pairs that read them.
    """
    thesaurus = Thesaurus([(names[0], names[1])]) if with_thesaurus else None
    similarity = NameSimilarity(thesaurus, memo_limit=memo_limit)
    spec = NameSimilarity(thesaurus)
    for na in names:
        for nb in names:
            assert same_float(
                similarity._compute(na, nb),
                oracles.pairwise_compute(spec, na, nb),
            ), (na, nb)


def test_compute_matches_spec_on_every_default_workload_pair():
    """Every distinct normalised label pair of the default workload."""
    workload = build_workload()
    names = {handle.name for handle in workload.repository.all_elements()}
    for scenario in workload.suite.scenarios:
        names.update(element.name for element in scenario.query.elements())
    distinct = sorted({normalise_label(name) for name in names})
    thesaurus = workload.objective.name_similarity.thesaurus
    assert thesaurus is not None
    similarity = NameSimilarity(thesaurus)
    spec = NameSimilarity(thesaurus)
    mismatched = [
        (na, nb)
        for na, nb in combinations(distinct, 2)
        if not same_float(
            similarity._compute(na, nb), oracles.pairwise_compute(spec, na, nb)
        )
    ]
    assert len(distinct) > 200
    assert mismatched == []
