"""The repository-scoped scoring kernel: interned label-universe costs.

Every system the paper compares — exhaustive or not — scores mappings
through one shared objective, so the per-element cost computation is the
innermost loop under every benchmark (substrate sweeps, evolution
replays, serving).  The :class:`~repro.matching.similarity.matrix
.ScoreMatrix` already collapsed that work to one cost per distinct
(label, datatype) pair **per (query, schema) pair**; this module
collapses it further, to one cost per distinct pair **per repository**:

* the **label universe** — repositories repeat a small distinct-label
  surface (:attr:`CostKernel.distinct_labels` counts it), so the kernel
  interns every distinct ``(normalised label, datatype)`` the repository
  contains into a dense integer id, and records, per schema content
  digest, the label id of each element.  It is the one per-repository
  label structure the substrate keeps, and it follows deltas by
  derivation (below);
* **kernel rows** — for each distinct ``(normalised query label,
  datatype)``, one flat ``array('d')`` of costs against the whole
  universe, computed exactly once via
  :meth:`~repro.matching.objective.ObjectiveFunction.label_cost`;
* **matrix gather** — :meth:`ScoreMatrix.build` then fills a (query,
  schema) matrix by *indexing* kernel rows with the schema's label ids
  instead of evaluating any similarity at all.

Exactness
---------
Kernel entries are produced by the very same
:meth:`~repro.matching.objective.ObjectiveFunction.label_cost`
expression the direct path evaluates, on the normalised labels the name
similarity is memoised on — every component of the similarity score is a
pure, symmetric function of the normalised labels
(:class:`~repro.matching.similarity.name.NameSimilarity`), so a gathered
cost is the bit-identical float of the per-pair computation.  The
property suite (``tests/properties/test_prop_kernel.py``) asserts
byte-identical answer sets against the kernel-less build for every
matcher across threshold sweeps and evolving-repository delta streams.

Evolution and persistence
-------------------------
A kernel for the next repository version is **derived** from the last
one (``CostKernel(objective, repository, previous=kernel)``), at a cost
that follows the delta rather than the repository:

* **universe** — a schema whose content digest the previous kernel
  holds translates its old label ids through one old→new id map, in
  repository order, assigning new ids first-seen; only the schemas the
  delta changed normalise and intern their elements.  That is the cold
  build's first-occurrence order, so labels and every lid array equal a
  cold build's.  The universe is pure structure (normalised label plus
  datatype), so it carries whatever the objective;
* **rows** — both universes number labels first-seen, so the old→new
  map is a few shifted runs of consecutive ids; each carried cost row
  is assembled from one slice copy of the old ``array('d')`` per run,
  and only entries against labels new to the universe are scored.  Cost
  is a pure function of the label pair, so a copied entry is the float
  a cold row would compute;
* **gathers** — the per-(query label, schema) gathers of every schema
  digest that survived carry over; a bucket that lacks a digest (the
  schemas the delta changed) fills that digest alone.  A gather is a
  pure function of (normalised label, datatype, schema content), and
  the batched and one-schema gathers are identical, so a carried or
  singly-filled entry equals a cold kernel's.

Rows and gathers carry only from a kernel of the same objective
fingerprint and corpus token; anything else is recomputed.  A derived
kernel therefore equals a cold ``CostKernel(objective, repository)`` in
everything observable — universe order, lid maps, rows, gathers and
:meth:`~CostKernel.export_state` labels — which
``tests/properties/test_prop_kernel.py`` checks over mixed delta
streams.  The kernel also exports/imports plain-data state
(:meth:`CostKernel.export_state` / :meth:`CostKernel.from_state`), which
the snapshot substrate payload persists so a warm-started service skips
the recompute entirely (:mod:`repro.matching.similarity.persist`).

The kernel-less build — ``ScoreMatrix.build`` without a kernel, one
cost per distinct label pair of one (query, schema) pair — stays in
production for schemas a kernel does not cover, and is the reference
the tests diff the gathers against (``kernel_off`` in
``tests/helpers/oracles.py``).

Batched gathers
---------------
Gathers are cached in one bucket per query label: (normalised label,
datatype) -> {schema digest -> (costs, order)}.  numpy is the one
optional dependency of the package, and this is its one use.  When it
imports (:func:`numpy_available`), the kernel keeps the schema label-id
maps stacked into one padded 2-D ``ndarray``, and the first gather of a
query label fancy-indexes its cost row through that stack and
batch-argsorts **every schema's** candidate order in two vector ops,
filling the label's bucket for the whole repository at once.  Without
numpy a new bucket starts empty and fills one schema at a time through
the python gather (:meth:`CostKernel._gather_one`), the executable
specification.  The batched values are the same python tuples
(``tolist`` round-trips float64 exactly; stable argsort ties break by
ascending id exactly like the ``(cost, id)`` sort), so everything
downstream is byte-identical either way — the property suite
(``tests/properties/test_prop_numpy.py``) pins it down.

``REPRO_NO_NUMPY=1`` in the environment skips the import, which is how
CI runs the whole suite in the numpy-absent configuration without a
second image; the tests hide numpy in-process by setting this module's
``_np`` to ``None`` (``numpy_off`` in ``tests/helpers/oracles.py``).
"""

from __future__ import annotations

import os
from array import array

from repro.errors import SnapshotError
from repro.schema.model import Datatype, Schema
from repro.schema.repository import SchemaRepository
from repro.util.caching import fifo_put
from repro.util.text import normalise_label

if os.environ.get("REPRO_NO_NUMPY") == "1":  # the forced-absent CI mode
    _np = None
else:
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY
        _np = None

__all__ = ["CostKernel", "numpy_available"]

#: one interned universe entry: (normalised label, datatype)
LabelKey = tuple[str, Datatype]


def numpy_available() -> bool:
    """Whether numpy imported at all (``REPRO_NO_NUMPY=1`` forces false)."""
    return _np is not None


class CostKernel:
    """Interned per-repository cost rows for one objective function.

    Built once per repository version (the substrate's
    :meth:`~repro.matching.similarity.matrix.SimilaritySubstrate.prepare`
    does, and shard workers inherit it through the one-shot state
    install).  ``previous`` derives this version from the prior one
    across a repository delta: unchanged schemas' label ids translate
    through one id map, cost rows are copied through it and scored only
    against new labels, and the gathers of surviving schemas carry over
    (module docstring, "Evolution and persistence").

    The kernel never hands out costs directly; its consumer is
    :meth:`~repro.matching.similarity.matrix.ScoreMatrix.build`, which
    gathers :meth:`row` buffers through :meth:`schema_label_ids`.
    """

    __slots__ = (
        "objective",
        "repository_digest",
        "corpus_token",
        "_labels",
        "_intern",
        "_schema_lids",
        "_rows",
        "_norms",
        "_gathers",
        "_vindex",
        "rows_built",
        "rows_migrated",
    )

    #: bound on the derived (query label, schema) gather cache, counted
    #: as buckets times schemas; entries re-derive from the rows in
    #: microseconds, so eviction only caps memory in long-lived services
    MAX_GATHERS = 65_536
    #: bound on materialised cost rows (one per distinct query label);
    #: evicted rows re-derive exactly on next use, and the cap also
    #: bounds what a repository delta migrates and a snapshot persists,
    #: so query-label churn cannot grow a long-lived service unboundedly
    MAX_ROWS = 4_096

    def __init__(
        self,
        objective,
        repository: SchemaRepository,
        previous: "CostKernel | None" = None,
    ):
        """Intern ``repository``'s label universe, deriving from ``previous``.

        Walks the repository in order.  A schema whose content digest
        ``previous`` holds translates its old label ids through
        ``remap`` (old lid -> new lid, assigned the first time an old
        lid is seen); only the other schemas normalise and intern their
        elements, and a key the old universe held sets ``remap`` for its
        old lid too.  Old lid arrays are the interning of the same
        elements, so either path assigns new ids in the cold build's
        first-occurrence order: labels and lid arrays equal a cold
        build's.  Without ``previous`` every schema interns.
        """
        self.objective = objective
        self.repository_digest = repository.content_digest()
        # Corpus-sensitive backends (docs/backends.md) make label costs
        # depend on repository-wide statistics; the token identifies the
        # statistics these rows were scored under ("" for corpus-free
        # objectives), and migration refuses rows from another corpus.
        token = getattr(objective, "corpus_token", None)
        self.corpus_token = token() if callable(token) else ""
        if previous is None:
            prior_lids: dict[str, array] = {}
            prior_labels: list[LabelKey] = []
            prior_intern: dict[LabelKey, int] = {}
        else:
            prior_lids = previous._schema_lids
            prior_labels = previous._labels
            prior_intern = previous._intern
        remap = [-1] * len(prior_labels)
        labels: list[LabelKey] = []
        intern: dict[LabelKey, int] = {}
        schema_lids: dict[str, array] = {}
        for schema in repository:
            digest = schema.content_digest()
            if digest in schema_lids:  # duplicated content, one gather map
                continue
            lids = array("L")
            old_lids = prior_lids.get(digest)
            if old_lids is not None:  # unchanged content: translate
                for old_lid in old_lids:
                    lid = remap[old_lid]
                    if lid < 0:
                        lid = remap[old_lid] = len(labels)
                        key = prior_labels[old_lid]
                        intern[key] = lid
                        labels.append(key)
                    lids.append(lid)
            else:
                for element in schema.elements():
                    key = (normalise_label(element.name), element.datatype)
                    lid = intern.get(key)
                    if lid is None:
                        lid = len(labels)
                        intern[key] = lid
                        labels.append(key)
                        old_lid = prior_intern.get(key)
                        if old_lid is not None:
                            remap[old_lid] = lid
                    lids.append(lid)
            schema_lids[digest] = lids
        self._labels = labels
        self._intern = intern
        self._schema_lids = schema_lids
        self._rows: dict[LabelKey, array] = {}
        self._norms: dict[str, str] = {}  # raw label -> normalised
        #: the gather cache: (normalised label, datatype) -> {schema
        #: digest -> (costs, order)}, each the per-(query label, schema)
        #: gather with its (cost, id)-sorted candidate order — pure
        #: functions of the key.  One bucket per query label, looked up
        #: by interned-string digest (no per-call tuple keys, whose enum
        #: hashing is a python-level call on the hot path)
        self._gathers: dict[LabelKey, dict[str, tuple[tuple, tuple]]] = {}
        #: lazy stacked schema-lids index of the batched gather
        #: (:meth:`_vector_index`); None until the first batched gather
        self._vindex = None
        self.rows_built = 0
        self.rows_migrated = 0
        if previous is not None:
            self._migrate(previous, remap)

    def _migrate(self, previous: "CostKernel", remap: list[int]) -> None:
        """Carry the previous version's rows and gathers into this universe.

        ``remap`` maps each old label id to its new one (-1: the label
        left the universe); :meth:`_carry_rows` copies the cost rows
        through it.  The gathers of every schema digest still in the
        universe carry too (each is a pure function of the query label
        and the schema content); :meth:`gather` fills a carried bucket's
        missing digests one at a time.  Rows and gathers carry only from
        a kernel of the same objective fingerprint and corpus token.
        """
        if previous.objective.fingerprint() != self.objective.fingerprint():
            return  # foreign kernel; nothing it holds is trustworthy
        if previous.corpus_token != self.corpus_token:
            # same configuration, different corpus statistics: every
            # carried cost would embed the old repository's frequencies
            return
        schema_lids = self._schema_lids
        # every cached gather is keyed by a digest of previous's universe,
        # so dropping the digests the delta removed leaves the survivors
        gone = {
            digest for digest in previous._schema_lids
            if digest not in schema_lids
        }
        self._norms = dict(previous._norms)
        # whole buckets, newest last, within the gather cache's memory cap
        buckets = max(1, self.MAX_GATHERS // max(1, len(schema_lids)))
        for key, bucket in list(previous._gathers.items())[-buckets:]:
            bucket = bucket.copy()
            for digest in gone:
                bucket.pop(digest, None)
            self._gathers[key] = bucket
        self._carry_rows(previous, remap)

    def _carry_rows(self, previous: "CostKernel", remap: list[int]) -> None:
        """Copy the previous version's cost rows into this universe.

        Both universes number labels in first-occurrence order, so the
        old→new map is a few shifted stretches: one walk over the new
        lids finds the maximal runs whose old lids are consecutive, and
        every carried row is assembled from one slice copy per run
        (a ``memcpy`` of the old ``array('d')``, no float objects);
        only entries against labels new to the universe — the lids no
        run covers, zero until scored — go through
        :meth:`~repro.matching.objective.ObjectiveFunction.label_cost`.
        Cost is a pure function of the (normalised query label, universe
        label) pair, so a copied entry is the float a cold row computes.
        Rows are keyed by query label, which survives repository
        evolution, so a long-lived session keeps its query-side warmth
        across every delta.  At most :data:`MAX_ROWS` rows carry over —
        the newest insertions, the same bound :meth:`row` enforces — so
        the work per delta is capped regardless of how many labels a
        service has ever seen.
        """
        labels = self._labels
        inverse = [-1] * len(labels)
        for old_lid, lid in enumerate(remap):
            if lid >= 0:
                inverse[lid] = old_lid
        # (start, stop, old start, old stop) of each maximal run
        runs: list[tuple[int, int, int, int]] = []
        fresh_labels: list[tuple[int, LabelKey]] = []
        for lid, old_lid in enumerate(inverse):
            if old_lid < 0:
                fresh_labels.append((lid, labels[lid]))
            elif runs and runs[-1][1] == lid and runs[-1][3] == old_lid:
                start, _, old_start, _ = runs[-1]
                runs[-1] = (start, lid + 1, old_start, old_lid + 1)
            else:
                runs.append((lid, lid + 1, old_lid, old_lid + 1))
        blank = array("d", bytes(8 * len(labels)))
        label_cost = self.objective.label_cost
        for key, old_row in list(previous._rows.items())[-self.MAX_ROWS:]:
            query_label, query_datatype = key
            new_row = blank[:]
            for start, stop, old_start, old_stop in runs:
                new_row[start:stop] = old_row[old_start:old_stop]
            for lid, (target_label, target_datatype) in fresh_labels:
                new_row[lid] = label_cost(
                    query_label, query_datatype, target_label, target_datatype
                )
            self._rows[key] = new_row
            self.rows_migrated += 1

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def distinct_labels(self) -> int:
        """Size of the interned repository label universe."""
        return len(self._labels)

    @property
    def rows_cached(self) -> int:
        """Distinct query labels with a materialised cost row."""
        return len(self._rows)

    def schema_label_ids(self, schema: Schema) -> array | None:
        """Per-element universe label ids of ``schema``, or ``None``.

        Keyed by schema *content* digest, so any schema object whose
        content the kernel's repository version contains gathers —
        including equal-content schemas from other repository handles —
        and content the kernel has never seen falls back to the direct
        build path rather than indexing a wrong row.
        """
        return self._schema_lids.get(schema.content_digest())

    def _normalise(self, name: str) -> str:
        normalised = self._norms.get(name)
        if normalised is None:
            normalised = normalise_label(name)
            fifo_put(self._norms, name, normalised, self.MAX_GATHERS)
        return normalised

    def row(self, name: str, datatype: Datatype) -> array:
        """The cost row of one query label against the whole universe.

        Computed on first use — once per distinct (normalised label,
        datatype) per repository version — through
        :meth:`ObjectiveFunction.label_cost` on normalised labels, which
        the name similarity memoises on; entries are bit-identical to
        the per-pair path's floats (module docstring).
        """
        key = (self._normalise(name), datatype)
        row = self._rows.get(key)
        if row is None:
            query_label, query_datatype = key
            row = array(
                "d",
                self.objective.label_cost_row(
                    query_label, query_datatype, self._labels
                ),
            )
            fifo_put(self._rows, key, row, self.MAX_ROWS)
            self.rows_built += 1
        return row

    def gather(
        self, name: str, datatype: Datatype, schema: Schema
    ) -> tuple[tuple[float, ...], tuple[int, ...]] | None:
        """One matrix row for ``schema`` plus its candidate order.

        ``None`` when the schema's content is not in this repository
        version (the caller falls back to the direct build).  Both
        halves are pure functions of (normalised label, datatype, schema
        content): costs gather the kernel row through the schema's label
        ids, the order sorts ``(cost, id)`` pairs — the engine's exact
        tie-break — so results are cached per that key and *aliased*
        across every query and matrix that shares the label.  The cache
        holds one bucket per query label: with numpy a new bucket is
        filled for the whole repository by one batched gather
        (:meth:`_gather_all`), without it a bucket fills one schema at a
        time; whole buckets are evicted oldest first past
        :data:`MAX_GATHERS` (entries re-derive exactly).
        """
        digest = schema.content_digest()
        lids = self._schema_lids.get(digest)
        if lids is None:
            return None
        # inline the norm-cache hit: gather is called once per query
        # element per schema, so the extra call would be pure overhead
        normalised = self._norms.get(name)
        if normalised is None:
            normalised = self._normalise(name)
        bucket = self._gathers.get((normalised, datatype))
        if bucket is None:
            bucket = self._new_bucket(name, normalised, datatype)
        cached = bucket.get(digest)
        if cached is None:
            # a python-path bucket, or a bucket carried across a delta
            # that lacks the schemas the delta changed: fill this one
            # alone (batched and one-schema gathers are identical)
            cached = bucket[digest] = self._gather_one(name, datatype, lids)
        return cached

    def _new_bucket(self, name, normalised, datatype):
        """Start the gather bucket of one query label, evicting old ones.

        Batched over the whole repository when numpy imported, else
        empty.  Whole buckets go oldest first while buckets times
        schemas exceed :data:`MAX_GATHERS`; the new one always stays.
        """
        bucket = self._gather_all(name, datatype) if _np is not None else {}
        gathers = self._gathers
        gathers[(normalised, datatype)] = bucket
        while (
            len(gathers) > 1
            and len(gathers) * len(self._schema_lids) > self.MAX_GATHERS
        ):
            del gathers[next(iter(gathers))]
        return bucket

    def _gather_one(self, name, datatype, lids):
        """The spec gather of one schema: costs and ``(cost, id)`` order."""
        row = self.row(name, datatype)
        costs = tuple(map(row.__getitem__, lids))
        order = tuple(j for _, j in sorted(zip(costs, range(len(costs)))))
        return costs, order

    def _vector_index(self):
        """The stacked schema label-id index of the batched gather.

        One padded 2-D integer matrix holding every schema's label ids
        (row per schema content digest, padded to the widest schema)
        plus the real lengths — built lazily on the first batched gather
        and shared by every query label thereafter.  Pure structure, no
        costs: it never goes stale within one kernel (the lid maps are
        fixed at construction).
        """
        if self._vindex is None:
            np = _np
            digests = list(self._schema_lids)
            lid_rows = list(self._schema_lids.values())
            lengths = [len(lids) for lids in lid_rows]
            width = max(lengths, default=0)
            stacked = np.zeros((len(digests), width), dtype=np.intp)
            for position, lids in enumerate(lid_rows):
                stacked[position, : len(lids)] = lids
            padding = np.arange(width) >= np.asarray(
                lengths, dtype=np.intp
            ).reshape(-1, 1)
            self._vindex = (digests, lengths, stacked, padding)
        return self._vindex

    def _gather_all(self, name, datatype):
        """Batched gather: one query label's bucket for **every** schema.

        Fancy-indexes the label's cost row through the stacked lid
        matrix (one copy) and batch-argsorts all candidate orders (one
        stable sort over the padded matrix, with ``inf`` in the padding
        lanes so they rank strictly last — real costs are finite, and
        even a hypothetical ``inf`` cost would still win its tie against
        padding because stable sort keeps the lower column first).
        Results are converted back to the exact python tuples
        :meth:`_gather_one` builds — ``tolist`` round-trips float64
        values exactly, and stable argsort's ascending-position
        tie-break *is* the ``(cost, id)`` order — so every entry equals
        the one-schema gather.
        """
        np = _np
        row = self.row(name, datatype)
        digests, lengths, stacked, padding = self._vector_index()
        gathered = np.frombuffer(row, dtype=np.float64)[stacked]
        # padding lanes hold garbage (row[0], from the zero-padded lid
        # matrix); overwrite them with inf in place so one argsort ranks
        # them strictly last — the cost tuples below never read past
        # ``length``, so the inf never escapes
        gathered[padding] = np.inf
        orders = np.argsort(gathered, axis=1, kind="stable")
        # one tolist per matrix (padding lanes convert too, but at C
        # speed), then a plain digest-keyed dict fill — interned-string
        # hashing only, no per-schema key tuples
        cost_lists = gathered.tolist()
        order_lists = orders.tolist()
        bucket: dict[str, tuple[tuple, tuple]] = {}
        for position, digest in enumerate(digests):
            length = lengths[position]
            bucket[digest] = (
                tuple(cost_lists[position][:length]),
                tuple(order_lists[position][:length]),
            )
        return bucket

    def __getstate__(self):
        """Pickle every slot except the ndarray gather index.

        Worker payloads (the pipeline pickles substrates, kernels
        included, into shard workers) ship the warm row and gather
        caches but not ``_vindex`` — its stacked matrices rebuild in one
        lazy pass on the first batched gather, identically.
        """
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["_vindex"] = None
        return state

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    # -- persistence ---------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-able kernel state, for snapshot persistence.

        The inverse of :meth:`from_state`; see
        :mod:`repro.matching.similarity.persist`.  Floats survive the
        JSON round trip exactly (``repr``-based formatting).  Only the
        saved universe and the cost rows are recorded: the per-schema
        gather maps (and the gather/order cache) re-derive from the live
        repository on restore in pure string/sort work, so persisting
        them would be dead weight.
        """
        return {
            "repository_digest": self.repository_digest,
            "corpus_token": self.corpus_token,
            "labels": [
                [label, datatype.value] for label, datatype in self._labels
            ],
            "rows": [
                [label, datatype.value, list(row)]
                for (label, datatype), row in self._rows.items()
            ],
        }

    @classmethod
    def from_state(
        cls, objective, repository: SchemaRepository, state: dict
    ) -> "CostKernel":
        """Rebuild a kernel from :meth:`export_state` output.

        The universe and gather maps are re-derived from the **live**
        repository (cheap — pure interning, no similarity work), so they
        can never go stale; persisted rows are adopted through the same
        derivation a repository delta uses.  The saved kernel carries
        labels and rows but no lid maps, so every live schema takes the
        intern path, and rows are copied through the one old→new id map
        where a saved universe label matches a live one (one slice per
        row when the saved universe equals the live one); the rest is
        recomputed.  This makes a payload saved against any repository
        version safe: cost is a pure function of the label pair, so
        matching labels carry over exactly and everything else
        re-derives — a kernel saved mid-evolution warm-starts the
        overlap instead of being refused.  Structurally inconsistent
        payloads (malformed entries, a label that is not a string, row
        length disagreeing with the saved universe, an unknown datatype,
        a non-numeric cost) raise :class:`~repro.errors.SnapshotError`.
        """
        if not isinstance(state, dict):
            raise SnapshotError("kernel snapshot state is not a JSON object")
        try:
            labels = [_saved_key(*entry) for entry in state.get("labels", [])]
            rows = [
                (_saved_key(label, value), costs)
                for label, value, costs in state.get("rows", [])
            ]
        except (TypeError, ValueError):
            raise SnapshotError(
                "kernel snapshot labels and rows must be [label, datatype] "
                "and [label, datatype, costs] lists"
            ) from None
        saved = cls.__new__(cls)
        saved.objective = objective
        saved.repository_digest = state.get("repository_digest", "")
        # payloads written before backends existed lack the key; they
        # were all scored corpus-free, which "" states exactly
        saved.corpus_token = state.get("corpus_token", "")
        saved._labels = labels
        saved._intern = {key: lid for lid, key in enumerate(labels)}
        saved._schema_lids = {}
        saved._rows = {}
        saved._norms = {}
        saved._gathers = {}
        saved._vindex = None
        saved.rows_built = 0
        saved.rows_migrated = 0
        for key, costs in rows:
            if not isinstance(costs, list) or len(costs) != len(labels):
                raise SnapshotError(
                    f"kernel snapshot row for label {key[0]!r} does not hold "
                    f"one cost per label of its {len(labels)}-label universe"
                )
            try:
                saved._rows[key] = array("d", costs)
            except (TypeError, OverflowError) as exc:
                raise SnapshotError(
                    f"kernel snapshot row for label {key[0]!r} holds a "
                    f"non-numeric cost ({exc})"
                ) from None
        return cls(objective, repository, previous=saved)


def _saved_key(label, value) -> LabelKey:
    """The (label, datatype) a kernel snapshot names, or a refusal."""
    if not isinstance(label, str):
        raise SnapshotError(f"kernel snapshot label {label!r} is not a string")
    try:
        return label, Datatype(value)
    except ValueError:
        raise SnapshotError(
            f"kernel snapshot label {label!r} names unknown datatype {value!r}"
        ) from None
