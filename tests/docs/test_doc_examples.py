"""Documented examples must execute (tools/check_docs.py, as a test).

Every fenced ``python`` block in README.md and docs/*.md runs here, one
parametrized case per document, so documentation cannot silently rot.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TOOL_PATH = Path(__file__).resolve().parents[2] / "tools" / "check_docs.py"
_SPEC = importlib.util.spec_from_file_location("check_docs", _TOOL_PATH)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)

DOCUMENTS = check_docs.documented_files()


def test_documentation_exists():
    names = {path.name for path in DOCUMENTS}
    assert "README.md" in names
    assert "architecture.md" in names
    assert "api.md" in names


@pytest.mark.parametrize(
    "path", DOCUMENTS, ids=[path.name for path in DOCUMENTS]
)
def test_documented_examples_execute(path):
    blocks = check_docs.extract_python_blocks(path.read_text(encoding="utf-8"))
    assert blocks, f"{path.name} documents no executable python example"
    failures = check_docs.run_document(path)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize(
    "path", DOCUMENTS, ids=[path.name for path in DOCUMENTS]
)
def test_documented_references_resolve(path):
    failures = check_docs.lint_references(path)
    assert not failures, "\n".join(failures)


class TestReferenceLinter:
    def test_module_attribute_and_nested_references_resolve(self):
        assert check_docs.resolve_reference("repro.matching")
        assert check_docs.resolve_reference(
            "repro.matching.similarity.backends"
        )
        assert check_docs.resolve_reference("repro.matching.numpy_available")
        assert check_docs.resolve_reference(
            "repro.matching.similarity.backends.SimilarityBackend.similarity"
        )

    def test_unresolvable_references_fail(self):
        assert not check_docs.resolve_reference("repro.no_such_module")
        assert not check_docs.resolve_reference("repro.matching.no_such_name")

    def test_lint_reports_file_and_line(self, tmp_path):
        doc = tmp_path / "stale.md"
        doc.write_text(
            "fine: `repro.matching.make_matcher`\n"
            "rotten: `repro.matching.gone_matcher`\n",
            encoding="utf-8",
        )
        failures = check_docs.lint_references(doc)
        assert failures == [
            "stale.md:2: unresolvable reference 'repro.matching.gone_matcher'"
        ]
