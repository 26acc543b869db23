"""Column answer sets against the eager spec (:mod:`helpers.oracles`).

``Matcher.assemble`` files a query's search results as one
``{target_ids: score}`` group per repository schema and builds no
mapping until a caller reads one; pooling, judged counts and the subset
and score checks work on the groups.  Each property builds random pair
results across several queries — score ties, empty pairs, repeated
scores, one-answer sets — and diffs every read of
``assemble`` + ``AnswerSet.disjoint_union`` against
:func:`~helpers.oracles.eager_assemble` + :func:`~helpers.oracles
.fold_union`, the code the column form replaced.
"""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import oracles
from repro.core.answers import AnswerSet
from repro.core.incremental import (
    SizeProfile,
    SystemProfile,
    compute_incremental_bounds,
)
from repro.core.thresholds import ThresholdSchedule
from repro.errors import AnswerSetError, MatchingError, NotASubsetError
from repro.matching import ExhaustiveMatcher, canonical_answers
from repro.matching.mapping import Mapping
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity.name import NameSimilarity
from repro.schema.parser import parse_schema
from repro.schema.repository import SchemaRepository

DELTA = 0.5
REPOSITORY = SchemaRepository(
    "columns",
    [parse_schema("root\n  a\n  b\n  c\n  d\n", f"s{i}") for i in range(4)],
)
QUERIES = [parse_schema("query\n  x\n", f"q{i}") for i in range(3)]
#: every injective two-element assignment into a five-element schema
TARGETS = [(i, j) for i in range(5) for j in range(5) if i != j]
#: few distinct scores, so most answers tie with others
SCORES = st.sampled_from([0.0, 0.1, 0.25, 0.5])


def matcher(max_answers=500_000):
    return ExhaustiveMatcher(
        ObjectiveFunction(NameSimilarity()), max_answers=max_answers
    )


pair_results = st.lists(
    st.tuples(st.sampled_from(TARGETS), SCORES),
    max_size=5,
    unique_by=lambda result: result[0],
)
query_results = st.fixed_dictionaries(
    {schema.schema_id: pair_results for schema in REPOSITORY}
)
suites = st.lists(query_results, min_size=1, max_size=len(QUERIES))


def column_sets(suite, system=None):
    system = system or matcher()
    return [
        system.assemble(query, REPOSITORY, results, DELTA)
        for query, results in zip(QUERIES, suite)
    ]


def eager_sets(suite, system=None):
    system = system or matcher()
    return [
        oracles.eager_assemble(system, query, REPOSITORY, results, DELTA)
        for query, results in zip(QUERIES, suite)
    ]


def pooled(suite, system=None):
    """(column pool, eager pool) of one suite."""
    return (
        AnswerSet.disjoint_union(column_sets(suite, system)),
        oracles.fold_union(eager_sets(suite, system)),
    )


def read(answers):
    """Items, scores and order, through the materialised answers."""
    return [(answer.item.key, answer.score) for answer in answers]


def subset_of(suite, data):
    """Each pair result filtered by a drawn mask: an S2 of the same objective."""
    return [
        {
            schema_id: [r for r in results if data.draw(st.booleans())]
            for schema_id, results in by_schema.items()
        }
        for by_schema in suite
    ]


def mappings(suite):
    return [
        Mapping._from_search(query.schema_id, REPOSITORY.schema(sid), ids)
        for query, by_schema in zip(QUERIES, suite)
        for sid, results in by_schema.items()
        for ids, _ in results
    ]


def thresholds(data):
    deltas = data.draw(
        st.lists(
            st.sampled_from([-0.1, 0.0, 0.05, 0.1, 0.2, 0.25, 0.5, 0.7]),
            min_size=1, max_size=5, unique=True,
        )
    )
    return ThresholdSchedule(sorted(deltas))


@given(suites, st.data())
def test_reads_match_eager(suite, data):
    # counts and scores first: they must come from the groups, unmaterialised
    per_query = column_sets(suite)
    column, eager = pooled(suite)
    assert len(column) == len(eager)
    assert column.scores() == eager.scores()
    assert column._answers is None  # nothing above built an answer
    assert canonical_answers(per_query) == canonical_answers(eager_sets(suite))
    assert canonical_answers([column]) == canonical_answers([eager])
    for answer in eager:
        assert answer.item in column
        assert column.score_of(answer.item) == answer.score
    outsider = Mapping._from_search("q-none", REPOSITORY.schema("s0"), (0, 1))
    assert outsider not in column
    assert "not a mapping" not in column
    with pytest.raises(AnswerSetError):
        column.score_of(outsider)
    assert read(column) == read(eager)
    assert column.items() == eager.items()
    cuts = st.sampled_from([-0.1, 0.0, 0.1, 0.25, 0.6])
    low, high = sorted((data.draw(cuts), data.draw(cuts)))
    n = data.draw(st.integers(min_value=0, max_value=len(eager) + 1))
    fresh = pooled(suite)[0]  # slice an unmaterialised set too
    for source in (column, fresh):
        for piece, reference in (
            (source.at_threshold(high), eager.at_threshold(high)),
            (source.increment(low, high), eager.increment(low, high)),
            (source.increment(None, low), eager.increment(None, low)),
            (source.top_n(n), eager.top_n(n)),
        ):
            assert read(piece) == read(reference)
            assert piece.scores() == reference.scores()


@given(suites, st.data())
def test_profiles_and_bounds_match_eager(suite, data):
    improved = subset_of(suite, data)
    everything = mappings(suite)
    truth = frozenset(data.draw(st.lists(st.sampled_from(everything))) if everything else ())
    truth |= {Mapping._from_search("q0", REPOSITORY.schema("s1"), (4, 3))}
    schedule = thresholds(data)
    (s1, s1_eager), (s2, s2_eager) = pooled(suite), pooled(improved)
    profile = SystemProfile.from_answer_set(schedule, s1, truth)
    assert profile.counts == SystemProfile.from_answer_set(
        schedule, s1_eager, truth
    ).counts
    assert profile.counts == oracles.profile_by_threshold(schedule, s1_eager, truth)
    assert SystemProfile.from_answer_set(schedule, s2, truth).counts == (
        SystemProfile.from_answer_set(schedule, s2_eager, truth).counts
    )
    sizes = SizeProfile.from_answer_set(schedule, s2)
    assert sizes == SizeProfile.from_answer_set(schedule, s2_eager)
    assert compute_incremental_bounds(profile, sizes).entries == (
        compute_incremental_bounds(
            SystemProfile.from_answer_set(schedule, s1_eager, truth),
            SizeProfile.from_answer_set(schedule, s2_eager),
        ).entries
    )
    for original, kept in ((s1, s2), (s1_eager, s2_eager)):
        assert kept.is_subset_of(original)
        kept.check_subset_of(original)
        kept.check_scores_match(original)
    assert s1._answers is None and s2._answers is None  # the bounds path
    s1.check_scores_match(s2)  # not a subset: the item loop decides
    s1_eager.check_scores_match(s2_eager)


def outcome(action):
    """The exception type ``action`` raises, or ``None``."""
    try:
        action()
    except Exception as exc:  # the type is the verdict
        return type(exc)
    return None


def nonempty(suite):
    """(query index, schema id, result index) of every search result."""
    return [
        (q, sid, i)
        for q, by_schema in enumerate(suite)
        for sid, results in by_schema.items()
        for i in range(len(results))
    ]


def edited(suite, where, change):
    """A copy of ``suite`` whose pair result at ``where`` is ``change``d."""
    q, sid, i = where
    copy = [dict(by_schema) for by_schema in suite]
    results = list(copy[q][sid])
    results[i:i + 1] = change(results[i])
    copy[q][sid] = results
    return copy


def unused_targets(results):
    used = {ids for ids, _ in results}
    return [ids for ids in TARGETS if ids not in used]


@given(suites, st.data())
def test_subset_failures_match_eager(suite, data):
    places = nonempty(suite)
    assume(places)
    where = data.draw(st.sampled_from(places))
    q, sid, _ = where
    spare = unused_targets(suite[q][sid])
    extra = [dict(by_schema) for by_schema in suite]
    extra[q] = dict(extra[q], **{sid: suite[q][sid] + [(spare[0], 0.1)]})
    rescored = edited(suite, where, lambda r: [(r[0], r[1] + 0.05)])
    for improved, subset_error, score_error in (
        (extra, NotASubsetError, None),
        (rescored, None, NotASubsetError),
    ):
        (s1, s1_eager), (s2, s2_eager) = pooled(suite), pooled(improved)
        assert s2.is_subset_of(s1) is s2_eager.is_subset_of(s1_eager)
        assert outcome(lambda: s2.check_subset_of(s1)) is subset_error
        assert outcome(lambda: s2_eager.check_subset_of(s1_eager)) is subset_error
        assert outcome(lambda: s2.check_scores_match(s1)) is score_error
        assert outcome(lambda: s2_eager.check_scores_match(s1_eager)) is score_error


@given(suites, st.data())
def test_construction_failures_match_eager(suite, data):
    places = nonempty(suite)
    assume(places)
    where = data.draw(st.sampled_from(places))
    most = max(sum(map(len, by_schema.values())) for by_schema in suite)
    repeated = edited(suite, where, lambda r: [r, (r[0], 0.25)])
    nan = edited(suite, where, lambda r: [(r[0], float("nan"))])
    for broken, system, error in (
        (repeated, matcher(), AnswerSetError),
        (nan, matcher(), AnswerSetError),
        (suite, matcher(max_answers=most - 1), MatchingError),
        (suite, matcher(max_answers=most), None),
    ):
        assert outcome(lambda: column_sets(broken, system)) is error
        assert outcome(lambda: eager_sets(broken, system)) is error


@given(suites)
def test_pooling_refuses_a_repeated_group(suite):
    assume(any(suite[0].values()))
    again = column_sets(suite)[0], column_sets(suite)[0]
    with pytest.raises(AnswerSetError, match="occurs in two"):
        AnswerSet.disjoint_union(again)
    eager_again = eager_sets(suite)[0], eager_sets(suite)[0]
    with pytest.raises(AnswerSetError, match="duplicate"):
        AnswerSet.disjoint_union(eager_again)
