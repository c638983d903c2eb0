"""The one file writer: `network.rewrite` behind every file the package writes."""

import json
import os
import stat
import threading

import pytest

from conftest import default_problem
from treeload import (
    emit_csv,
    emit_json,
    harness,
    named_topology,
    pmo,
    save_baseline,
    save_network,
)
from treeload.harness import record_to_doc, run_scenario, scenario_from_doc

_TOPO = named_topology("two_subtree")
_RECORDS = run_scenario(
    scenario_from_doc(
        {
            "scenario_id": "w",
            "network": {"topology": "two_subtree"},
            "repetitions": 0,
            "methods": ["local", "pmo"],
        }
    )
)
_TASK, _WEIGHTS, _B = default_problem("two_subtree")
_BASE = pmo(_TOPO.tree, _TASK, _WEIGHTS, b=_B)

WRITERS = {
    "emit_json": lambda path: emit_json(_RECORDS, path),
    "emit_csv": lambda path: emit_csv(_RECORDS, path),
    "save_network": lambda path: save_network(_TOPO.network, path),
    "save_baseline": lambda path: save_baseline(path, _BASE),
}

writer_names = pytest.mark.parametrize("name", sorted(WRITERS))


def _fresh(name, tmp_path) -> bytes:
    """What the writer puts in a file that did not exist."""
    path = tmp_path / f"fresh-{name}"
    WRITERS[name](path)
    return path.read_bytes()


@writer_names
def test_rewrite_leaves_no_stale_tail(name, tmp_path):
    want = _fresh(name, tmp_path)
    path = tmp_path / "old"
    path.write_bytes(b"Z" * (3 * len(want)) + b"\nold tail\n")
    WRITERS[name](path)
    assert path.read_bytes() == want


def test_emit_json_writes_json_dumps_bytes(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("[" * 10_000)
    emit_json(_RECORDS, path)
    docs = [record_to_doc(r) for r in _RECORDS]
    assert path.read_text() == json.dumps(docs, indent=2) + "\n"


def test_a_failed_encode_leaves_the_old_bytes(tmp_path, monkeypatch):
    def unserialisable(r):
        return {**record_to_doc(r), "solver_tag": object()}

    monkeypatch.setattr(harness, "record_to_doc", unserialisable)
    path = tmp_path / "r.json"
    old = b"Z" * 100_000
    path.write_bytes(old)
    with pytest.raises(TypeError):
        emit_json(_RECORDS, path)
    # the text is encoded before the file is opened
    assert path.read_bytes() == old


@writer_names
def test_rewrite_never_truncates_to_zero(name, tmp_path, monkeypatch):
    flags = []
    real_open = os.open

    def spy(path, f, *args, **kwargs):
        flags.append(f)
        return real_open(path, f, *args, **kwargs)

    path = tmp_path / "old"
    path.write_bytes(b"Z" * 100_000)
    monkeypatch.setattr(os, "open", spy)
    WRITERS[name](path)
    assert flags and not any(f & os.O_TRUNC for f in flags)


@writer_names
def test_a_new_file_gets_the_mode_of_a_truncating_open(name, tmp_path):
    plain = tmp_path / "plain"
    open(plain, "w").close()
    path = tmp_path / "new"
    WRITERS[name](path)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


@writer_names
def test_writer_writes_to_dev_null(name):
    WRITERS[name](os.devnull)
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@writer_names
def test_writer_writes_to_a_fifo(name, tmp_path):
    want = _fresh(name, tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []

    def drain():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    WRITERS[name](fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [want]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@writer_names
def test_writer_writes_through_links(name, tmp_path):
    want = _fresh(name, tmp_path)
    target = tmp_path / "target"
    target.write_bytes(b"Z" * (2 * len(want)))
    link = tmp_path / "link"
    link.symlink_to(target)
    hard = tmp_path / "hard"
    os.link(target, hard)
    WRITERS[name](link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == want
    assert hard.read_bytes() == want  # written in place: one inode
