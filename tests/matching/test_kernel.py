"""Unit tests of the repository scoring kernel (and its satellites).

The kernel's contract is the substrate's, taken one level up: each
distinct (normalised label, datatype) cost is computed once per
*repository*, matrices gather from interned rows with bit-identical
floats and candidate orders, a kernel derived across a repository
delta or a snapshot restore equals a cold build without recomputing
what the delta left alone, and the kernel oracle
(:func:`helpers.oracles.kernel_off`) runs the PR-4 path cleanly.
Answer-set identity under the kernel is covered by
``tests/properties/test_prop_kernel.py``.
"""

import json
from contextlib import nullcontext

import pytest

from helpers import oracles
from helpers.differential import assert_kernel_equals_cold, warm_kernel
from repro.errors import MatchingError, SnapshotError
from repro.evaluation import build_workload
from repro.matching import ExhaustiveMatcher, HybridMatcher
from repro.matching.clustering import ClusteringMatcher, ElementClusterer
from repro.matching.objective import ObjectiveFunction
from repro.matching.similarity import kernel as kernel_module
from repro.matching.similarity.backends import SparseBM25Backend
from repro.matching.similarity.kernel import CostKernel
from repro.matching.similarity.matrix import ScoreMatrix
from repro.matching.similarity.name import NameSimilarity, Thesaurus
from repro.schema import churn_delta
from repro.schema.generator import GeneratorConfig, generate_repository
from repro.schema.model import Datatype, Schema, SchemaElement
from repro.schema.mutations import extract_personal_schema
from repro.schema.repository import SchemaRepository
from repro.schema.vocabulary import builtin_domains
from repro.util import rng


@pytest.fixture(scope="module")
def setup():
    repo = generate_repository(
        GeneratorConfig(num_schemas=6, min_size=6, max_size=11, seed=31)
    )
    thesaurus = Thesaurus.from_vocabularies(
        builtin_domains().values(), coverage=0.7, seed=5
    )
    objective = ObjectiveFunction(NameSimilarity(thesaurus))
    query = extract_personal_schema(
        rng.make_tagged(55),
        repo.schemas()[1],
        None,
        target_size=4,
        schema_id="kernel-query",
    )
    return repo, objective, query


def _handmade_repository():
    root = SchemaElement("order", Datatype.COMPLEX)
    root.add_child(SchemaElement("orderNumber", Datatype.IDENTIFIER))
    root.add_child(SchemaElement("Order_Number", Datatype.IDENTIFIER))
    root.add_child(SchemaElement("shipDate", Datatype.DATE))
    other = SchemaElement("customer", Datatype.COMPLEX)
    other.add_child(SchemaElement("order number", Datatype.IDENTIFIER))
    other.add_child(SchemaElement("customerName", Datatype.STRING))
    return SchemaRepository(
        "handmade", [Schema("orders", root), Schema("customers", other)]
    )


def _schema(schema_id, names, datatype=Datatype.STRING):
    root = SchemaElement(names[0], datatype)
    for name in names[1:]:
        root.add_child(SchemaElement(name, datatype))
    return Schema(schema_id, root)


def _cached_gathers(kernel):
    """Every cached gather key, as (label, datatype, schema digest)."""
    return {
        (label, datatype, digest)
        for (label, datatype), bucket in kernel._gathers.items()
        for digest in bucket
    }


@pytest.fixture
def normalised(monkeypatch):
    """Every label the kernel module normalises, in call order."""
    calls = []
    original = kernel_module.normalise_label
    monkeypatch.setattr(
        kernel_module,
        "normalise_label",
        lambda label: (calls.append(label), original(label))[1],
    )
    return calls


def _elements(query):
    return [(element.name, element.datatype) for element in query.elements()]


class TestCostKernel:
    def test_universe_interns_normalised_labels(self):
        repo = _handmade_repository()
        kernel = CostKernel(ObjectiveFunction(NameSimilarity()), repo)
        # "orderNumber", "Order_Number" and "order number" all intern to
        # one ("order number", IDENTIFIER) entry
        assert kernel.distinct_labels == 5
        lids_orders = kernel.schema_label_ids(repo.schemas()[0])
        lids_customers = kernel.schema_label_ids(repo.schemas()[1])
        assert lids_orders[1] == lids_orders[2] == lids_customers[1]

    def test_each_distinct_cost_computed_once(self, setup):
        repo, _, query = setup
        objective = ObjectiveFunction(NameSimilarity())
        calls = []
        original = objective.label_cost
        objective.label_cost = lambda *args: (calls.append(args), original(*args))[1]
        kernel = CostKernel(objective, repo)
        for schema in repo:
            ScoreMatrix.build(objective, query, schema, kernel=kernel)
            ScoreMatrix.build(objective, query, schema, kernel=kernel)
        distinct_query = {
            (args[0], args[1]) for args in calls
        }
        assert len(calls) == len(distinct_query) * kernel.distinct_labels
        assert kernel.rows_built == len(distinct_query)

    def test_gather_matches_direct_build(self, setup):
        repo, objective, query = setup
        kernel = CostKernel(objective, repo)
        for schema in repo:
            direct = ScoreMatrix.build(objective, query, schema)
            gathered = ScoreMatrix.build(objective, query, schema, kernel=kernel)
            assert gathered.costs == direct.costs
            assert gathered.candidate_order == direct.candidate_order
            assert gathered.row_min == direct.row_min
            assert gathered.min_rest == direct.min_rest

    def test_gather_aliases_across_matrices(self, setup):
        repo, objective, query = setup
        kernel = CostKernel(objective, repo)
        schema = repo.schemas()[0]
        first = ScoreMatrix.build(objective, query, schema, kernel=kernel)
        second = ScoreMatrix.build(objective, query, schema, kernel=kernel)
        assert first.costs[0] is second.costs[0]  # shared gather tuples
        assert first.candidate_order[0] is second.candidate_order[0]

    @pytest.mark.parametrize("numpy_on", [True, False])
    def test_one_gather_cache_on_both_paths(
        self, setup, monkeypatch, numpy_on
    ):
        """Both gathers fill one bucket per query label, capped whole.

        A batched gather fills a new bucket for every schema at once,
        the python gather one schema at a time; past ``MAX_GATHERS``
        (buckets times schemas) the oldest bucket goes.
        """
        if numpy_on and not kernel_module.numpy_available():
            pytest.skip("numpy not installed")
        repo, objective, _ = setup
        kernel = CostKernel(objective, repo)
        schemas = len(kernel._schema_lids)
        monkeypatch.setattr(CostKernel, "MAX_GATHERS", 2 * schemas)
        labels = ["order id", "customer name", "ship date"]
        with nullcontext() if numpy_on else oracles.numpy_off():
            for label in labels:
                kernel.gather(label, Datatype.STRING, repo.schemas()[0])
        assert list(kernel._gathers) == [
            (kernel_module.normalise_label(label), Datatype.STRING)
            for label in labels[1:]
        ]
        filled = {len(bucket) for bucket in kernel._gathers.values()}
        assert filled == ({schemas} if numpy_on else {1})

    def test_unknown_schema_falls_back(self, setup):
        repo, objective, query = setup
        kernel = CostKernel(objective, repo)
        foreign = Schema("foreign", SchemaElement("whole other", Datatype.COMPLEX))
        assert kernel.schema_label_ids(foreign) is None
        assert kernel.gather("anything", Datatype.STRING, foreign) is None
        # build() silently takes the direct path
        matrix = ScoreMatrix.build(objective, query, foreign, kernel=kernel)
        assert matrix.costs == ScoreMatrix.build(objective, query, foreign).costs

    def test_rows_migrate_across_delta(self, setup):
        repo, objective, query = setup
        kernel = CostKernel(objective, repo)
        for schema in repo:
            ScoreMatrix.build(objective, query, schema, kernel=kernel)
        rows_before = kernel.rows_cached
        evolved, _ = repo.apply(churn_delta(repo, churn=0.3, seed=3))
        migrated = CostKernel(objective, evolved, previous=kernel)
        assert migrated.rows_migrated == rows_before
        fresh = CostKernel(objective, evolved)
        for schema in evolved:
            via_migrated = ScoreMatrix.build(
                objective, query, schema, kernel=migrated
            )
            via_fresh = ScoreMatrix.build(objective, query, schema, kernel=fresh)
            assert via_migrated.costs == via_fresh.costs
            assert via_migrated.candidate_order == via_fresh.candidate_order

    def test_foreign_objective_rows_not_migrated(self, setup, normalised):
        """Lid maps carry (pure structure); rows and gathers do not."""
        repo, objective, query = setup
        elements = _elements(query)
        other = ObjectiveFunction(NameSimilarity(), objective.weights)
        assert other.fingerprint() != objective.fingerprint()
        kernel = CostKernel(objective, repo)
        kernel.row("anything", Datatype.STRING)
        warm_kernel(kernel, elements, repo)
        normalised.clear()
        migrated = CostKernel(other, repo, previous=kernel)
        assert normalised == []  # every schema translated its lids
        assert migrated.rows_migrated == 0
        assert migrated.rows_cached == 0
        assert _cached_gathers(migrated) == set() and migrated._norms == {}
        assert_kernel_equals_cold(migrated, repo, elements)

    def test_state_round_trip(self, setup):
        repo, objective, query = setup
        kernel = CostKernel(objective, repo)
        for schema in repo:
            ScoreMatrix.build(objective, query, schema, kernel=kernel)
        state = json.loads(json.dumps(kernel.export_state()))
        restored = CostKernel.from_state(objective, repo, state)
        assert restored.rows_migrated == kernel.rows_cached
        assert restored._rows == kernel._rows
        assert restored._labels == kernel._labels

    def test_state_row_length_mismatch_rejected(self, setup):
        repo, objective, _ = setup
        kernel = CostKernel(objective, repo)
        kernel.row("order", Datatype.STRING)
        state = kernel.export_state()
        state["rows"][0][2].append(0.5)
        with pytest.raises(SnapshotError, match="universe"):
            CostKernel.from_state(objective, repo, state)

    @pytest.mark.parametrize("section", ["labels", "rows"])
    def test_state_unknown_datatype_rejected(self, setup, section):
        repo, objective, _ = setup
        kernel = CostKernel(objective, repo)
        kernel.row("order", Datatype.STRING)
        state = kernel.export_state()
        entry = state[section][0]
        entry[1] = "strnig"
        with pytest.raises(SnapshotError, match=f"{entry[0]!r}.*'strnig'"):
            CostKernel.from_state(objective, repo, state)

    def test_state_non_numeric_cost_rejected(self, setup):
        repo, objective, _ = setup
        kernel = CostKernel(objective, repo)
        kernel.row("order", Datatype.STRING)
        state = kernel.export_state()
        state["rows"][0][2][3] = "0.5"
        with pytest.raises(SnapshotError, match="'order'.*non-numeric"):
            CostKernel.from_state(objective, repo, state)

    def test_state_saved_mid_evolution_still_restores(self, setup):
        """Digest drift migrates the overlap instead of refusing.

        The payload comes from a kernel that was itself derived across a
        delta, and restores onto a later version: the result equals both
        a cold build and the kernel derived in memory.
        """
        repo, objective, query = setup
        elements = _elements(query)
        kernel = CostKernel(objective, repo)
        kernel.row("order", Datatype.STRING)
        warm_kernel(kernel, elements, repo)
        middle, _ = repo.apply(churn_delta(repo, churn=0.3, seed=7))
        evolved, _ = middle.apply(churn_delta(middle, churn=0.3, seed=9))
        saved = CostKernel(objective, middle, previous=kernel)
        warm_kernel(saved, elements, middle)
        state = json.loads(json.dumps(saved.export_state()))
        restored = CostKernel.from_state(objective, evolved, state)
        assert restored.repository_digest == evolved.content_digest()
        assert restored.rows_migrated == saved.rows_cached
        derived = CostKernel(objective, evolved, previous=saved)
        assert restored.export_state() == derived.export_state()
        fresh = assert_kernel_equals_cold(restored, evolved, elements)
        assert restored._rows[("order", Datatype.STRING)] == fresh._rows[
            ("order", Datatype.STRING)
        ]
        assert restored.rows_built == 0

    def test_substrate_builds_kernel_on_prepare(self, setup):
        repo, _, _ = setup
        objective = ObjectiveFunction(NameSimilarity())
        substrate = objective.substrate()
        substrate.prepare(repo)
        assert substrate.kernel() is not None
        assert substrate.stats.kernel_builds == 1
        substrate.prepare(repo)  # idempotent per content
        assert substrate.stats.kernel_builds == 1

    def test_substrate_skips_kernel_when_disabled(self, setup):
        """Under the kernel oracle, prepare builds no kernel at all."""
        repo, _, _ = setup
        objective = ObjectiveFunction(NameSimilarity())
        substrate = objective.substrate()
        with oracles.kernel_off():
            substrate.prepare(repo)
        assert substrate.stats.kernel_builds == 0
        assert substrate.kernel() is None  # never built

    def test_kernel_rebuilds_after_evolution(self, setup):
        repo, _, _ = setup
        objective = ObjectiveFunction(NameSimilarity())
        substrate = objective.substrate()
        substrate.prepare(repo)
        substrate.kernel().row("order", Datatype.STRING)
        evolved, _ = repo.apply(churn_delta(repo, churn=0.2, seed=11))
        substrate.prepare(evolved)
        assert substrate.stats.kernel_builds == 2
        assert substrate.stats.kernel_rows_migrated == 1
        assert substrate.kernel().repository_digest == evolved.content_digest()


class TestDerivation:
    """A kernel derived across a delta: what carries, and that it is exact.

    ``assert_kernel_equals_cold`` checks equality with a cold build; the
    counters here check the derivation did not get there by recomputing
    what the delta left alone.
    """

    def test_one_label_universe_survivor_not_first(self):
        objective = ObjectiveFunction(NameSimilarity())
        before = SchemaRepository(
            "edge", [_schema("s1", ["alpha", "beta", "gamma"])]
        )
        after = SchemaRepository("edge", [_schema("s2", ["gamma"])])
        elements = [("gamma", Datatype.STRING), ("delta", Datatype.STRING)]
        kernel = CostKernel(objective, before)
        warm_kernel(kernel, elements, before)
        derived = CostKernel(objective, after, previous=kernel)
        assert derived.distinct_labels == 1
        assert derived.rows_migrated == 2
        assert_kernel_equals_cold(derived, after, elements)

    def test_one_label_universe_nothing_survives(self):
        objective = ObjectiveFunction(NameSimilarity())
        before = SchemaRepository("edge", [_schema("s1", ["alpha"])])
        after = SchemaRepository("edge", [_schema("s2", ["omega"])])
        elements = [("alpha", Datatype.STRING)]
        kernel = CostKernel(objective, before)
        warm_kernel(kernel, elements, before)
        derived = CostKernel(objective, after, previous=kernel)
        assert derived.rows_migrated == 1
        assert_kernel_equals_cold(derived, after, elements)

    def test_zero_label_saved_universe(self):
        """A saved kernel with an empty universe: every entry is scored."""
        objective = ObjectiveFunction(NameSimilarity())
        repository = SchemaRepository("edge", [_schema("s1", ["gamma"])])
        state = {"labels": [], "rows": [["gamma", "string", []]]}
        restored = CostKernel.from_state(objective, repository, state)
        assert restored.rows_migrated == 1
        assert_kernel_equals_cold(
            restored, repository, [("gamma", Datatype.STRING)]
        )

    def test_add_only_delta(self, setup, normalised):
        repo, objective, query = setup
        elements = _elements(query)
        kernel = CostKernel(objective, repo)
        warm_kernel(kernel, elements, repo)
        delta = churn_delta(
            repo, 0.35, seed=2,
            replace_weight=0.0, add_weight=1.0, remove_weight=0.0,
        )
        evolved, _ = repo.apply(delta)
        normalised.clear()
        derived = CostKernel(objective, evolved, previous=kernel)
        # only the added schemas intern; every surviving gather carries
        assert len(normalised) == sum(len(schema) for schema in delta.adds)
        assert _cached_gathers(derived) == _cached_gathers(kernel)
        assert_kernel_equals_cold(derived, evolved, elements)
        assert derived.rows_built == 0

    def test_remove_only_delta(self, setup, normalised):
        repo, objective, query = setup
        elements = _elements(query)
        kernel = CostKernel(objective, repo)
        warm_kernel(kernel, elements, repo)
        delta = churn_delta(
            repo, 0.35, seed=4,
            replace_weight=0.0, add_weight=0.0, remove_weight=1.0,
        )
        evolved, _ = repo.apply(delta)
        scored = []
        original = objective.label_cost
        objective.label_cost = lambda *args: (scored.append(args), original(*args))[1]
        try:
            normalised.clear()
            derived = CostKernel(objective, evolved, previous=kernel)
        finally:
            del objective.label_cost
        assert normalised == [] and scored == []  # no new label, no work
        removed = {repo.schema(sid).content_digest() for sid in delta.removes}
        assert _cached_gathers(derived) == {
            key for key in _cached_gathers(kernel) if key[2] not in removed
        }
        assert_kernel_equals_cold(derived, evolved, elements)

    #: (before, after) schema label lists, one case per shape of the
    #: old→new label-id map the row copy walks
    RUN_CASES = {
        # the universe is unchanged: the inverse map is one run
        "one-run": (
            [["alpha", "beta", "gamma", "delta"]],
            [["alpha", "beta"], ["gamma", "delta", "beta"]],
        ),
        # every label is new: no run, every entry scored
        "no-run": (
            [["alpha", "beta"], ["gamma"]],
            [["omega", "sigma"], ["theta"]],
        ),
        "fresh-first": (
            [["alpha", "beta", "gamma"]],
            [["omega"], ["alpha", "beta", "gamma"]],
        ),
        "fresh-middle": (
            [["alpha", "beta", "gamma", "delta"]],
            [["alpha", "beta", "omega", "gamma", "delta"]],
        ),
        "fresh-last": (
            [["alpha", "beta", "gamma"]],
            [["alpha", "beta", "gamma"], ["omega", "sigma"]],
        ),
        # "gamma" leaves, so the one old run splits in two
        "removed-splits-run": (
            [["alpha", "beta", "gamma", "delta", "epsilon"]],
            [["alpha", "beta", "delta", "epsilon"]],
        ),
        # shifted runs in a new order, fresh labels between them
        "reordered": (
            [["alpha", "beta"], ["gamma", "delta"], ["epsilon"]],
            [["gamma", "delta", "omega"], ["alpha", "beta", "sigma"],
             ["epsilon", "gamma"]],
        ),
    }

    @staticmethod
    def _repository(label_lists):
        return SchemaRepository(
            "runs",
            [
                _schema(f"s{index}", names)
                for index, names in enumerate(label_lists)
            ],
        )

    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_rows_copy_by_runs(self, case):
        """Carried rows equal the cold build's and the per-entry copy's.

        Rows are compared by ``tobytes()``: a slice assignment of the
        wrong length resizes the row instead of failing, so length
        counts as much as content.  ``label_cost`` runs exactly once per
        (carried row, label new to the universe).
        """
        before, after = (
            self._repository(lists) for lists in self.RUN_CASES[case]
        )
        objective = ObjectiveFunction(NameSimilarity())
        # rows for every label of both universes plus one outside them
        elements = [
            (name, Datatype.STRING)
            for name in dict.fromkeys(
                name
                for repository in (before, after)
                for schema in repository
                for name, _ in _elements(schema)
            )
        ] + [("customer", Datatype.STRING)]
        kernel = warm_kernel(CostKernel(objective, before), elements, before)
        fresh = [
            key for key in CostKernel(objective, after)._labels
            if key not in kernel._intern
        ]
        scored = []
        original = objective.label_cost
        objective.label_cost = lambda *args: (
            scored.append(args), original(*args)
        )[1]
        try:
            derived = CostKernel(objective, after, previous=kernel)
        finally:
            del objective.label_cost
        assert sorted(scored) == sorted(
            (*row_key, *label_key)
            for row_key in kernel._rows
            for label_key in fresh
        )
        with oracles.picked_migration():
            picked = CostKernel(objective, after, previous=kernel)
        assert derived.rows_migrated == picked.rows_migrated == len(elements)
        assert list(derived._rows) == list(picked._rows)
        for key, row in derived._rows.items():
            assert row.tobytes() == picked._rows[key].tobytes(), key
        assert_kernel_equals_cold(derived, after, elements)

    def test_state_same_universe_scores_nothing(self, setup):
        """A payload saved for the live universe carries every row whole."""
        repo, objective, query = setup
        elements = _elements(query)
        kernel = warm_kernel(CostKernel(objective, repo), elements, repo)
        state = json.loads(json.dumps(kernel.export_state()))
        scored = []
        original = objective.label_cost
        objective.label_cost = lambda *args: (
            scored.append(args), original(*args)
        )[1]
        try:
            restored = CostKernel.from_state(objective, repo, state)
        finally:
            del objective.label_cost
        assert scored == []
        for key, row in kernel._rows.items():
            assert restored._rows[key].tobytes() == row.tobytes(), key

    def test_churn_script_matches_cold_and_oracle(self):
        """Replica-serve's first ten churn deltas, derived step by step.

        The default workload's kernel, warm for every query label
        against every schema as a serving replica's is, derives along
        the workload's one-schema partial renames (``churn=0.025``,
        replace-only, seeds 4242 onwards); every step equals a cold
        build and, row for row, the per-entry copy.
        """
        workload = build_workload()
        objective = workload.objective
        repository = workload.repository
        elements = [
            (element.name, element.datatype)
            for scenario in workload.suite.scenarios
            for element in scenario.query.elements()
        ]
        kernel = warm_kernel(
            CostKernel(objective, repository), elements, repository
        )
        for index in range(10):
            delta = churn_delta(
                repository, 0.025, seed=4242 + index,
                replace_weight=1.0, add_weight=0.0, remove_weight=0.0,
            )
            repository, _ = repository.apply(delta)
            with oracles.picked_migration():
                picked = CostKernel(objective, repository, previous=kernel)
            derived = CostKernel(objective, repository, previous=kernel)
            assert list(derived._rows) == list(picked._rows)
            for key, row in derived._rows.items():
                assert row.tobytes() == picked._rows[key].tobytes(), (
                    index, key,
                )
            assert_kernel_equals_cold(derived, repository, elements)
            assert derived.rows_built == 0
            kernel = derived

    def test_moved_corpus_token_carries_no_rows_or_gathers(self, setup):
        repo, _, query = setup
        elements = _elements(query)
        objective = ObjectiveFunction(
            NameSimilarity(), backend=SparseBM25Backend()
        )
        objective.prepare_corpus(repo)
        kernel = CostKernel(objective, repo)
        warm_kernel(kernel, elements, repo)
        evolved, _ = repo.apply(churn_delta(repo, 0.35, seed=6))
        objective.prepare_corpus(evolved)
        assert objective.corpus_token() != kernel.corpus_token
        derived = CostKernel(objective, evolved, previous=kernel)
        assert derived.rows_migrated == 0 and derived.rows_cached == 0
        assert _cached_gathers(derived) == set()
        assert_kernel_equals_cold(derived, evolved, elements)


class TestNameSimilarityMemo:
    def test_memo_shared_across_spellings(self):
        sim = NameSimilarity()
        value = sim.similarity("Order ID", "Customer Name")
        entries = len(sim._memo)
        assert sim.similarity("order_id", "customerName") == value
        assert len(sim._memo) == entries  # same normalised key

    def test_identical_normalisation_scores_one(self):
        sim = NameSimilarity()
        assert sim.similarity("Order ID", "order_id") == 1.0

    def test_memo_bounded(self):
        sim = NameSimilarity(memo_limit=4)
        for i in range(10):
            sim.similarity(f"label{i}", f"other{i}")
        assert len(sim._memo) <= 4
        assert len(sim._norm_cache) <= 4

    def test_eviction_recomputes_identically(self):
        sim = NameSimilarity(memo_limit=2)
        first = sim.similarity("author", "writer")
        for i in range(5):  # evict the entry
            sim.similarity(f"label{i}", f"other{i}")
        assert sim.similarity("author", "writer") == first

    def test_invalid_memo_limit_rejected(self):
        with pytest.raises(MatchingError):
            NameSimilarity(memo_limit=0)


class TestInternedClustering:
    def _canonical(self, clusters):
        return [(c.leader_name, sorted(c.members)) for c in clusters]

    @pytest.mark.parametrize("threshold", [0.4, 0.55, 0.7])
    def test_interned_equals_scan(self, setup, threshold):
        repo, objective, _ = setup
        clusterer = ElementClusterer(
            objective.name_similarity, join_threshold=threshold
        )
        assert self._canonical(
            clusterer._cluster_interned(repo)
        ) == self._canonical(oracles.cluster_scan(clusterer, repo))

    def test_interned_equals_scan_adversarial(self):
        """Duplicate labels, empty normalisations, a 1.0 thesaurus."""

        def schema(schema_id, names):
            root = SchemaElement(names[0], Datatype.COMPLEX)
            for name in names[1:]:
                root.add_child(SchemaElement(name))
            return Schema(schema_id, root)

        repo = SchemaRepository(
            "adv",
            [
                schema("s1", ["order", "-", "__", "Order ID", "order_id"]),
                schema("s2", ["orderId", "-", "price", "cost", "order id"]),
                schema("s3", ["zz9", "price", "-", "..."]),
            ],
        )
        for threshold in (0.3, 0.55, 0.9):
            for score in (0.95, 1.0):
                sim = NameSimilarity(
                    Thesaurus([("price", "cost")]), thesaurus_score=score
                )
                clusterer = ElementClusterer(sim, join_threshold=threshold)
                assert self._canonical(
                    clusterer._cluster_interned(repo)
                ) == self._canonical(oracles.cluster_scan(clusterer, repo))

    def test_cluster_build_shared_across_matchers(self, setup, monkeypatch):
        repo, _, _ = setup
        objective = ObjectiveFunction(NameSimilarity())
        clustering = ClusteringMatcher(objective, clusters_per_element=2)
        hybrid = HybridMatcher(objective, clusters_per_element=3)
        builds = []
        original = ElementClusterer._cluster_interned
        monkeypatch.setattr(
            ElementClusterer,
            "_cluster_interned",
            lambda self, repository: (builds.append(1), original(self, repository))[1],
        )
        clustering.prepare(repo)
        hybrid.prepare(repo)
        # same similarity + threshold + repository -> one interned build
        assert len(builds) == 1
        assert self._canonical(clustering._clusters) == self._canonical(
            hybrid._clusters
        )

    def test_cached_clusters_are_private_copies(self, setup):
        repo, _, _ = setup
        objective = ObjectiveFunction(NameSimilarity())
        clustering = ClusteringMatcher(objective, clusters_per_element=2)
        hybrid = HybridMatcher(objective, clusters_per_element=3)
        clustering.prepare(repo)
        hybrid.prepare(repo)
        # mutating one matcher's view must not leak into the other's
        clustering._clusters[0].members.add(("poison", 0))
        assert ("poison", 0) not in hybrid._clusters[0].members

    def test_clusters_not_shared_when_kernel_disabled(self, setup, monkeypatch):
        repo, _, _ = setup
        objective = ObjectiveFunction(NameSimilarity())
        clustering = ClusteringMatcher(objective, clusters_per_element=2)
        hybrid = HybridMatcher(objective, clusters_per_element=3)
        scans = []
        original = oracles.cluster_scan
        monkeypatch.setattr(
            oracles,
            "cluster_scan",
            lambda self, repository: (scans.append(1), original(self, repository))[1],
        )
        with oracles.kernel_off():
            clustering.prepare(repo)
            hybrid.prepare(repo)
        assert len(scans) == 2  # the PR-4 per-matcher behavior

    def test_matcher_output_unchanged_by_sharing(self, setup):
        repo, objective, query = setup
        matcher = ClusteringMatcher(objective, clusters_per_element=2)
        on = matcher.match(query, repo, 0.3)
        with oracles.kernel_off():
            off = ClusteringMatcher(objective, clusters_per_element=2).match(
                query, repo, 0.3
            )
        assert [
            (answer.item.key, answer.score) for answer in on.answers()
        ] == [(answer.item.key, answer.score) for answer in off.answers()]


class TestAssembleFastPath:
    def test_trusted_mapping_equals_validated(self, setup):
        repo, objective, query = setup
        matcher = ExhaustiveMatcher(objective)
        answers = matcher.match(query, repo, 0.35)
        assert len(answers) > 0
        for answer in answers.answers():
            mapping = answer.item
            from repro.matching.mapping import Mapping

            validated = Mapping(mapping.query_schema_id, mapping.targets)
            assert validated == mapping
            assert hash(validated) == hash(mapping)
            assert validated.target_ids == mapping.target_ids
            assert validated.key == mapping.key
