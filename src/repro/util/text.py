"""String similarity and distance functions, implemented from scratch.

The matching objective (:mod:`repro.matching.objective`) combines several
of these classic measures, mirroring the name-similarity heuristics the
schema matching literature builds on (Cupid, COMA, iMAP and friends all
layer such lexical measures under their structural logic).

All similarity functions return values in [0, 1] where 1 means identical;
all distance functions return non-negative values where 0 means identical.
Inputs are treated case-insensitively only where documented — callers
normalise via :func:`normalise_label` first.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable

__all__ = [
    "normalise_label",
    "tokenize_label",
    "levenshtein",
    "levenshtein_similarity",
    "char_positions",
    "jaro",
    "jaro_winkler",
    "character_ngrams",
    "ngram_profile",
    "ngram_similarity",
    "dice_coefficient",
    "multiset_overlap",
    "jaccard",
    "token_set_similarity",
    "longest_common_prefix",
    "prefix_similarity",
]

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")


def normalise_label(label: str) -> str:
    """Normalise a schema-element label for lexical comparison.

    Splits camelCase, replaces punctuation with spaces, lower-cases and
    collapses whitespace, e.g. ``"AuthorLast_Name "`` -> ``"author last name"``.
    """
    label = _CAMEL_BOUNDARY.sub(" ", label)
    label = _NON_ALNUM.sub(" ", label)
    return " ".join(label.lower().split())


def tokenize_label(label: str) -> list[str]:
    """Split a label into normalised word tokens."""
    normalised = normalise_label(label)
    return normalised.split() if normalised else []


def levenshtein(a: str, b: str) -> int:
    """Edit distance between two strings (insert/delete/substitute, cost 1).

    Uses the standard two-row dynamic program: O(len(a) * len(b)) time,
    O(min(len)) memory.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance normalised to a [0, 1] similarity."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


def char_positions(text: str) -> dict[str, list[int]]:
    """Each character of ``text`` mapped to its positions, ascending.

    The index :func:`jaro` scans instead of every window position; a
    caller that scores one string many times can keep it and pass it
    as ``b_positions``.
    """
    positions: dict[str, list[int]] = {}
    for j, char in enumerate(text):
        spots = positions.get(char)
        if spots is None:
            positions[char] = [j]
        else:
            spots.append(j)
    return positions


def jaro(
    a: str, b: str, b_positions: dict[str, list[int]] | None = None
) -> float:
    """Jaro similarity in [0, 1].

    Each character of ``a`` matches the first unmatched equal character
    of ``b`` within the match window.  Only the positions of that
    character in ``b`` are visited (``b_positions``, which is
    :func:`char_positions` of ``b``; built here when not given), in
    ascending order, so the matches — and the transpositions between
    the matched characters of ``a`` in ``a``'s order and those of ``b``
    in ``b``'s order — are the ones a scan of every window position
    finds, and the score is the same float.
    """
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    if b_positions is None:
        b_positions = char_positions(b)
    window = max(len_a, len_b) // 2 - 1
    window = max(window, 0)

    matched_b = bytearray(len_b)
    a_chars: list[str] = []  # matched characters of a, in a's order
    b_spots: list[int] = []  # their partners' positions in b
    for i, char_a in enumerate(a):
        spots = b_positions.get(char_a)
        if spots is None:
            continue
        lo = i - window
        hi = i + window
        for j in spots:
            if j > hi:
                break
            if j >= lo and not matched_b[j]:
                matched_b[j] = 1
                a_chars.append(char_a)
                b_spots.append(j)
                break
    matches = len(b_spots)
    if matches == 0:
        return 0.0

    b_spots.sort()
    transpositions = 0
    for char_a, j in zip(a_chars, b_spots):
        if char_a != b[j]:
            transpositions += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(
    a: str,
    b: str,
    prefix_scale: float = 0.1,
    b_positions: dict[str, list[int]] | None = None,
) -> float:
    """Jaro-Winkler similarity: Jaro boosted by a common prefix (<= 4 chars).

    ``prefix_scale`` must lie in [0, 0.25] to keep the result within [0, 1].
    ``b_positions`` is passed on to :func:`jaro`.
    """
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError(f"prefix_scale must be in [0, 0.25], got {prefix_scale!r}")
    base = jaro(a, b, b_positions)
    prefix = longest_common_prefix(a, b)
    prefix = min(prefix, 4)
    return base + prefix * prefix_scale * (1.0 - base)


def character_ngrams(text: str, n: int = 3, pad: bool = True) -> list[str]:
    """Character n-grams of ``text``; padded with ``#`` at both ends.

    Padding makes short strings comparable and weights word boundaries,
    the usual trick in approximate string matching.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if pad:
        text = "#" * (n - 1) + text + "#" * (n - 1)
    if len(text) < n:
        return [text] if text else []
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def ngram_profile(text: str, n: int = 3) -> Counter:
    """Multiset of character n-grams (used for clustering element names)."""
    return Counter(character_ngrams(text, n=n))


def ngram_similarity(a: str, b: str, n: int = 3) -> float:
    """Dice coefficient over character n-gram multisets."""
    return dice_coefficient(ngram_profile(a, n=n), ngram_profile(b, n=n))


def dice_coefficient(profile_a: Counter, profile_b: Counter) -> float:
    """Dice coefficient of two multisets: 2|A∩B| / (|A| + |B|)."""
    size_a = sum(profile_a.values())
    size_b = sum(profile_b.values())
    if size_a == 0 and size_b == 0:
        return 1.0
    if size_a == 0 or size_b == 0:
        return 0.0
    return 2.0 * multiset_overlap(profile_a, profile_b) / (size_a + size_b)


def multiset_overlap(profile_a: Counter, profile_b: Counter) -> int:
    """|A∩B| of two multisets: the sum of each shared element's smaller count.

    Visits only the elements the two profiles share (the key-view
    intersection iterates the smaller dict).  Counts are multiplicities
    (``>= 0``, as in every n-gram profile), so the sum equals
    ``sum((profile_a & profile_b).values())``.
    """
    overlap = 0
    for element in profile_a.keys() & profile_b.keys():
        overlap += min(profile_a[element], profile_b[element])
    return overlap


def jaccard(set_a: Iterable, set_b: Iterable) -> float:
    """Jaccard similarity of two iterables treated as sets."""
    sa, sb = set(set_a), set(set_b)
    if not sa and not sb:
        return 1.0
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def token_set_similarity(a: str, b: str) -> float:
    """Jaccard similarity over normalised word tokens of two labels."""
    return jaccard(tokenize_label(a), tokenize_label(b))


def longest_common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix of two strings."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return i
    return limit


def prefix_similarity(a: str, b: str) -> float:
    """Common-prefix length normalised by the longer string length."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return longest_common_prefix(a, b) / longest
