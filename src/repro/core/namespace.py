"""Namespaces and namespace-decorated paths (paper §3.1, Figure 4a).

H2 translates every full directory/file path into a *namespace-decorated
relative path*: ``/home/ubuntu/file1`` becomes ``N02::file1`` where
``N02`` is the universally unique identifier of the parent directory
``/home/ubuntu``.  The UUID records which middleware node created the
directory, that node's creation sequence number, and the timestamp --
the paper's example is ``06.01.1469346604539`` for "the 6th directory
created by the 1st storage node at UNIX timestamp 1469346604539".

This module owns:

* :class:`Namespace` / :class:`NamespaceAllocator` -- UUID issue & parse;
* POSIX-ish path handling (:func:`split_path`, :func:`normalize_path`);
* the object-naming scheme that maps H2 entities onto flat object
  names (``nr:``/``dir:``/``f:``/``patch:`` prefixes), including the
  O(1) relative-path file key the quick access method hashes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simcloud.clock import SimClock
from ..simcloud.errors import InvalidPath

SEPARATOR = "::"  # namespace decoration, as in N02::file1


@dataclass(frozen=True)
class Namespace:
    """A directory's universally unique identifier."""

    uuid: str

    def __str__(self) -> str:
        return self.uuid

    @classmethod
    def root(cls, account: str) -> "Namespace":
        """The well-known namespace of an account's root directory.

        Deterministically derived from the account name so that any
        middleware can locate the root without consulting an index --
        the single bootstrapping hash the whole filesystem hangs off.
        """
        if not account or "/" in account or SEPARATOR in account:
            raise InvalidPath(account, "bad account name")
        return cls(uuid=f"root.{account}")

    @property
    def is_root(self) -> bool:
        return self.uuid.startswith("root.")


class NamespaceAllocator:
    """Issues fresh directory namespaces on one middleware node.

    The UUID is ``<seq>.<node>.<timestamp-us>`` exactly in the paper's
    spirit: sequence numbers are per-node, so two nodes can never mint
    the same namespace without coordination.
    """

    def __init__(self, node_id: int, clock: SimClock):
        self._node_id = node_id
        self._clock = clock
        self._seq = 0

    def next(self) -> Namespace:
        self._seq += 1
        return Namespace(uuid=f"{self._seq}.{self._node_id}.{self._clock.now_us}")

    @property
    def issued(self) -> int:
        return self._seq


def decorate(ns: Namespace, name: str) -> str:
    """Build the namespace-decorated relative path, e.g. ``N02::file1``."""
    return f"{ns.uuid}{SEPARATOR}{name}"


def parse_decorated(rel_path: str) -> tuple[Namespace, str]:
    """Inverse of :func:`decorate`."""
    if SEPARATOR not in rel_path:
        raise InvalidPath(rel_path, "missing namespace decoration")
    uuid, name = rel_path.split(SEPARATOR, 1)
    if not uuid or not name:
        raise InvalidPath(rel_path, "empty namespace or name")
    return Namespace(uuid=uuid), name


# ----------------------------------------------------------------------
# POSIX-ish path handling
# ----------------------------------------------------------------------
def normalize_path(path: str) -> str:
    """Canonical absolute form: leading '/', no trailing '/', no empties."""
    return "/" + "/".join(split_path(path))


def split_path(path: str) -> list[str]:
    """Split an absolute path into components, validating each.

    '/' yields [].  Rejects relative paths, empty components ('//'),
    '.'/'..', and names containing the namespace separator.
    """
    if not path or not path.startswith("/"):
        raise InvalidPath(path, "must be absolute")
    components = [c for c in path.split("/") if c != ""]
    if "//" in path:
        raise InvalidPath(path, "empty component")
    for component in components:
        validate_name(component, context=path)
    return components


def validate_name(name: str, context: str | None = None) -> None:
    """Check a single file/directory name."""
    shown = context if context is not None else name
    if not name:
        raise InvalidPath(shown, "empty name")
    if name in (".", ".."):
        raise InvalidPath(shown, "'.'/'..' not supported")
    if "/" in name:
        raise InvalidPath(shown, "'/' inside a name")
    if SEPARATOR in name:
        raise InvalidPath(shown, f"{SEPARATOR!r} is reserved")
    if "\n" in name or "\x00" in name:
        raise InvalidPath(shown, "control characters in name")


def parent_and_base(path: str) -> tuple[str, str]:
    """('/a/b/c') -> ('/a/b', 'c').  The root has no base."""
    components = split_path(path)
    if not components:
        raise InvalidPath(path, "root has no parent")
    return "/" + "/".join(components[:-1]), components[-1]


def join(parent: str, name: str) -> str:
    validate_name(name)
    return (parent.rstrip("/") or "") + "/" + name


def depth_of(path: str) -> int:
    """Directory depth d as the paper counts it: /home/ubuntu/file1 -> 3."""
    return len(split_path(path))


# ----------------------------------------------------------------------
# object-naming scheme (how H2 entities land on the flat store)
# ----------------------------------------------------------------------
def namering_key(ns: Namespace) -> str:
    """The object holding a directory's NameRing.

    For a directory sharded past the split threshold this object holds
    the small ``H2NRM`` manifest instead of the ring itself; the child
    tuples then live under :func:`ring_shard_key` payloads.
    """
    return f"nr:{ns.uuid}"


def ring_shard_key(ns: Namespace, epoch: int, shard: int) -> str:
    """One shard payload of a sharded NameRing (docs/PROTOCOL.md §14).

    The key keeps the ``nr:`` prefix so GC/fsck prefix walks cover
    shard payloads without a second scan, and carries the manifest
    epoch so resharding is crash-atomic: a new shard set is written
    under a fresh epoch, the manifest flip is the commit point, and
    orphaned old-epoch payloads are swept by GC.
    """
    return f"nr:{ns.uuid}/s{epoch}-{shard:04d}"


def directory_key(ns: Namespace) -> str:
    """The object holding a directory's own metadata."""
    return f"dir:{ns.uuid}"


def file_key(ns: Namespace, name: str) -> str:
    """The object holding a file's content.

    This *is* the quick access method: hashing ``N02::file1`` locates
    the bytes in one step, no directory walk (paper §3.2).
    """
    return f"f:{decorate(ns, name)}"


def patch_key(ns: Namespace, node_id: int, patch_seq: int) -> str:
    """A NameRing patch object, e.g. N97's ``...Node01.Patch03``."""
    return f"patch:{ns.uuid}:Node{node_id:02d}.Patch{patch_seq:06d}"
