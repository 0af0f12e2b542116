"""Regression: MOVE and COPY record the copied object's size and etag.

A middleware whose cached NameRing predates a peer's overwrite used to
copy the *current* file object but stamp the destination tuple with the
size and etag of its stale cached tuple, so fsck found the tuple
disagreeing with the object it names (I3).  The tuple now takes both
from the :class:`~repro.simcloud.ObjectInfo` the server-side copy
returns.
"""

import hashlib

import pytest

from repro.core import H2CloudFS
from repro.simcloud import SwiftCluster
from repro.tools import H2Fsck

NEW = b"nineteen bytes now!"


def stale_peer() -> H2CloudFS:
    """m1 holds /d with a 3-byte /d/f cached; m0 has since overwritten it."""
    fs = H2CloudFS(SwiftCluster.fast(), account="alice", middlewares=2)
    m0, m1 = fs.middlewares
    m0.mkdir("alice", "/d")
    m0.write_file("alice", "/d/f", b"old")
    fs.pump()
    assert m1.list_dir("alice", "/d", detailed=False)[0].size == 3
    m0.write_file("alice", "/d/f", NEW)  # no pump: m1's ring is stale
    return fs


@pytest.mark.parametrize(
    "op, src, dst, copied",
    [
        ("move", "/d/f", "/g", "/g"),
        ("copy", "/d/f", "/g", "/g"),
        ("copy", "/d", "/e", "/e/f"),
    ],
    ids=["move-file", "copy-file", "copy-tree"],
)
def test_stale_cache_records_copied_size_and_etag(op, src, dst, copied):
    fs = stale_peer()
    m0, m1 = fs.middlewares
    getattr(m1, op)("alice", src, dst)
    fs.pump()
    report = H2Fsck(m0).check()
    assert report.clean, report.errors
    child = m0.stat("alice", copied).child
    assert child.size == len(NEW)
    assert child.etag == hashlib.md5(NEW).hexdigest()
    assert m0.read_file("alice", copied) == NEW
