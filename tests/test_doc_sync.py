"""The doc-sync tool: generated doc blocks must track the live code."""

import importlib.util
import os
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "doc_sync.py")


@pytest.fixture(scope="module")
def doc_sync():
    spec = importlib.util.spec_from_file_location("doc_sync", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("doc_sync", module)
    spec.loader.exec_module(module)
    return module


def test_generators_are_deterministic(doc_sync):
    for name, generator in doc_sync.GENERATORS.items():
        assert generator() == generator(), name


def test_stale_block_is_regenerated(doc_sync):
    text = ("intro\n"
            "<!-- doc-sync:begin planning-explain-forced -->\n"
            "OUT OF DATE\n"
            "<!-- doc-sync:end -->\n"
            "outro\n")
    synced = doc_sync.sync_text(text, "docs/example.md")
    assert "OUT OF DATE" not in synced
    assert "(forced plan 'columnar')" in synced
    assert synced.startswith(
        "intro\n<!-- doc-sync:begin planning-explain-forced -->")
    assert synced.endswith("<!-- doc-sync:end -->\noutro\n")
    # Re-syncing the synced text is a fixed point.
    assert doc_sync.sync_text(synced, "docs/example.md") == synced


def test_text_without_markers_passes_through(doc_sync):
    assert doc_sync.sync_text("plain prose\n", "docs/x.md") == "plain prose\n"


def test_unknown_generator_is_an_error(doc_sync):
    text = ("<!-- doc-sync:begin no-such-generator -->\n"
            "body\n"
            "<!-- doc-sync:end -->\n")
    with pytest.raises(SystemExit, match="unknown doc-sync generator"):
        doc_sync.sync_text(text, "docs/x.md")


def test_begin_without_end_is_an_error(doc_sync):
    text = "<!-- doc-sync:begin planning-explain-asof -->\nnever closed\n"
    with pytest.raises(SystemExit, match="without an\\s+end marker"):
        doc_sync.sync_text(text, "docs/x.md")


def test_committed_docs_are_fresh(doc_sync, capsys):
    # The same assertion CI makes: --check on the real docs/ tree.
    assert doc_sync.run(write=False) == 0
    assert "all generated blocks are fresh" in capsys.readouterr().out


def test_transcripts_are_pinned_to_fallback_kernels(doc_sync, monkeypatch):
    # No transcript depends on NumPy: the blocks CI (which has none)
    # checks are the blocks a machine with ndarray kernels writes.
    from repro.core import columnar
    kernels = {name: generator()
               for name, generator in doc_sync.GENERATORS.items()}
    monkeypatch.setattr(columnar, "_np", None)
    assert kernels == {name: generator()
                       for name, generator in doc_sync.GENERATORS.items()}
