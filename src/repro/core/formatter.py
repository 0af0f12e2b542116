"""The Formatter module (paper §4.4): "stringifying" H2 data to objects.

An object storage cloud only hosts byte blobs, so NameRings, patches
and directory records must be serialized to ASCII strings before they
can be PUT.  The paper's Formatter sorts NameRing tuples alphabetically
by name and packs them "one after another"; this implementation does
the same with a line-oriented, versioned, escape-safe format so that
arbitrary (printable *or* hostile) file names round-trip exactly.

Wire formats
------------
NameRing / patch (patches share the NameRing format, §3.3.2)::

    H2NR 1                         | H2PATCH 1
    <name>|<ts>|<kind>|<D or ->|<ns or ->|<size>|<etag>
    ...sorted by name...

Directory record::

    H2DIR 1
    name <escaped-name>
    ns <uuid>
    parent <uuid or ->
    created <ts>

Shard manifest (sharded NameRings, docs/PROTOCOL.md).  A directory
whose ring outgrew the split threshold stores this small object under
its ``nr:`` key instead of the monolithic ring; the child tuples live
in per-shard ``H2NRS`` payloads (same line format as ``H2NR``) keyed
by a hash of the child name::

    H2NRM 1
    shards <count>
    epoch <epoch>
    s <k>|<version>|<crc>|<entries>
    ...one line per shard, k ascending...

Every parser in this module raises :class:`FormatError` -- never a
bare ``ValueError``/``KeyError`` -- on corrupt-but-readable bytes, so
callers can route damage to the quarantine path with one handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import quote as _quote
from urllib.parse import unquote as _unquote

from ..simcloud.clock import Timestamp
from ..simcloud.integrity import crc32c
from .namering import Child, NameRing

NAMERING_MAGIC = "H2NR"
PATCH_MAGIC = "H2PATCH"
DIRECTORY_MAGIC = "H2DIR"
MANIFEST_MAGIC = "H2NRM"
SHARD_MAGIC = "H2NRS"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """The bytes do not parse as the expected H2 wire format."""


# ----------------------------------------------------------------------
# escaping: '|', newlines and non-ASCII are percent-encoded (UTF-8),
# keeping every serialized object pure ASCII as §4.4 requires
# ----------------------------------------------------------------------
_SAFE = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~ ,:;@()[]{}=+!#$&'"


def escape(text: str) -> str:
    if not text.rstrip(_SAFE):
        return text  # nothing to quote: urllib would return it as is
    return _quote(text, safe=_SAFE)


def unescape(text: str) -> str:
    if "%" not in text:
        return text
    try:
        return _unquote(text, errors="strict")
    except UnicodeDecodeError as exc:
        raise FormatError(f"bad escape sequence in {text!r}") from exc


# ----------------------------------------------------------------------
# NameRing / patch payloads
# ----------------------------------------------------------------------
def _memo_of(ring: NameRing) -> dict:
    """Per-instance serialization memo (traffic mechanism 4).

    NameRing is a frozen dataclass without ``__slots__``, so each
    instance still owns a ``__dict__``; writing to it directly bypasses
    the frozen ``__setattr__`` without weakening immutability of the
    *logical* value -- rings are never mutated, so a dump computed once
    is valid for the instance's whole lifetime.  Merge returns ``self``
    on no-op merges, which is what makes the memo pay off: hot rings
    keep their identity (and memo) across gossip/merge churn.
    """
    memo = ring.__dict__.get("_wire_memo")
    if memo is None:
        memo = {}
        ring.__dict__["_wire_memo"] = memo
    return memo


def dumps_ring(ring: NameRing, magic: str = NAMERING_MAGIC) -> bytes:
    memo = _memo_of(ring)
    cached = memo.get(magic)
    if cached is not None:
        return cached
    lines = [f"{magic} {FORMAT_VERSION}"]
    for child in sorted(ring.children.values(), key=lambda c: c.name):
        lines.append(
            "|".join(
                [
                    escape(child.name),
                    str(child.timestamp),
                    child.kind,
                    "D" if child.deleted else "-",
                    child.ns if child.ns is not None else "-",
                    str(child.size),
                    child.etag or "-",
                ]
            )
        )
    data = ("\n".join(lines) + "\n").encode("ascii", errors="strict")
    memo[magic] = data
    return data


def ring_crc(ring: NameRing) -> int:
    """CRC-32C of the ring's canonical NameRing wire form, memoized.

    This is the ``crc`` member of the gossip anti-entropy digest
    ``(ns, version, crc)``: two rings with equal versions *and* equal
    CRCs serialize identically, so shipping one over is pure waste.
    """
    memo = _memo_of(ring)
    cached = memo.get("crc")
    if cached is None:
        cached = crc32c(dumps_ring(ring))
        memo["crc"] = cached
    return cached


def _require_version(token: str) -> None:
    """Reject any header version token other than ``FORMAT_VERSION``.

    ``int("x")`` raises a bare ``ValueError``, which used to escape
    ``loads_ring`` and bypass the quarantine path; a non-numeric token
    is just another flavor of unsupported version.
    """
    try:
        version = int(token)
    except ValueError:
        raise FormatError(f"unsupported format version {token!r}") from None
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {token}")


def loads_ring(data: bytes, magic: str = NAMERING_MAGIC) -> NameRing:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError("NameRing object is not ASCII") from exc
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise FormatError("empty NameRing object")
    header = lines[0].split(" ")
    if len(header) != 2 or header[0] != magic:
        raise FormatError(f"bad magic: {lines[0]!r} (wanted {magic})")
    _require_version(header[1])
    children: dict[str, Child] = {}
    for line in lines[1:]:
        fields = line.split("|")
        if len(fields) != 7:
            raise FormatError(f"bad tuple line: {line!r}")
        raw_name, ts, kind, deleted, ns, size, etag = fields
        name = unescape(raw_name)
        if name in children:
            raise FormatError(f"duplicate tuple for {name!r}")
        try:
            children[name] = Child(
                name=name,
                timestamp=Timestamp.parse(ts),
                kind=kind,
                deleted=deleted == "D",
                ns=None if ns == "-" else ns,
                size=int(size),
                etag="" if etag == "-" else etag,
            )
        except ValueError as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"bad tuple line: {line!r} ({exc})") from exc
    return NameRing(children=children)


def dumps_patch(ring: NameRing) -> bytes:
    """A patch "is in the same format as a NameRing" (paper §3.3.2)."""
    return dumps_ring(ring, magic=PATCH_MAGIC)


def loads_patch(data: bytes) -> NameRing:
    return loads_ring(data, magic=PATCH_MAGIC)


# ----------------------------------------------------------------------
# sharded NameRings: shard payloads + the manifest object
# ----------------------------------------------------------------------
def dumps_shard(ring: NameRing) -> bytes:
    """One shard's tuples, NameRing line format under the shard magic."""
    return dumps_ring(ring, magic=SHARD_MAGIC)


def loads_shard(data: bytes) -> NameRing:
    return loads_ring(data, magic=SHARD_MAGIC)


def shard_crc(ring: NameRing) -> int:
    """CRC-32C of a shard's canonical wire form, memoized per instance."""
    memo = _memo_of(ring)
    cached = memo.get("shard_crc")
    if cached is None:
        cached = crc32c(dumps_shard(ring))
        memo["shard_crc"] = cached
    return cached


@dataclass(frozen=True)
class ShardDigest:
    """One shard's anti-entropy digest: skip the payload if it matches.

    ``entries`` counts every tuple in the shard -- tombstones included
    -- so split/collapse/reshard decisions need the manifest alone,
    never a shard read.
    """

    version: Timestamp
    crc: int
    entries: int


@dataclass(frozen=True)
class ShardManifest:
    """The small object a sharded directory stores under its ``nr:`` key."""

    shard_count: int
    epoch: int
    digests: tuple[ShardDigest, ...]

    def __post_init__(self) -> None:
        if self.shard_count < 1 or len(self.digests) != self.shard_count:
            raise ValueError("manifest digests must cover every shard")
        if self.epoch < 1:
            raise ValueError("shard epochs start at 1")

    @property
    def total_entries(self) -> int:
        return sum(d.entries for d in self.digests)

    @property
    def version(self) -> Timestamp:
        """Max shard version -- the gossip digest version of the ring."""
        return max(
            (d.version for d in self.digests), default=Timestamp.ZERO
        )


def is_manifest(data: bytes) -> bool:
    """Cheap dispatch: does this ``nr:`` object hold a manifest?"""
    return data.startswith(f"{MANIFEST_MAGIC} ".encode("ascii"))


def dumps_manifest(manifest: ShardManifest) -> bytes:
    lines = [
        f"{MANIFEST_MAGIC} {FORMAT_VERSION}",
        f"shards {manifest.shard_count}",
        f"epoch {manifest.epoch}",
    ]
    for k, digest in enumerate(manifest.digests):
        lines.append(f"s {k}|{digest.version}|{digest.crc}|{digest.entries}")
    return ("\n".join(lines) + "\n").encode("ascii")


def loads_manifest(data: bytes) -> ShardManifest:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError("shard manifest is not ASCII") from exc
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise FormatError("empty shard manifest")
    header = lines[0].split(" ")
    if len(header) != 2 or header[0] != MANIFEST_MAGIC:
        raise FormatError(f"bad manifest magic: {lines[0]!r}")
    _require_version(header[1])
    fields: dict[str, str] = {}
    digests: list[ShardDigest] = []
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        if key == "s":
            parts = value.split("|")
            if len(parts) != 4:
                raise FormatError(f"bad shard digest line: {line!r}")
            try:
                k = int(parts[0])
                digest = ShardDigest(
                    version=Timestamp.parse(parts[1]),
                    crc=int(parts[2]),
                    entries=int(parts[3]),
                )
            except ValueError as exc:
                raise FormatError(
                    f"bad shard digest line: {line!r}"
                ) from exc
            if k != len(digests):
                raise FormatError(f"shard digests out of order at {line!r}")
            digests.append(digest)
            continue
        if key in fields:
            raise FormatError(f"duplicate manifest field {key!r}")
        fields[key] = value
    try:
        shard_count = int(fields["shards"])
        epoch = int(fields["epoch"])
    except KeyError as exc:
        raise FormatError(f"manifest missing field {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"bad manifest field ({exc})") from exc
    if shard_count != len(digests):
        raise FormatError(
            f"manifest declares {shard_count} shards, "
            f"lists {len(digests)} digests"
        )
    try:
        return ShardManifest(
            shard_count=shard_count, epoch=epoch, digests=tuple(digests)
        )
    except ValueError as exc:
        raise FormatError(f"invalid manifest ({exc})") from exc


# ----------------------------------------------------------------------
# directory records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DirectoryRecord:
    """A directory's own object: its name, namespace, parent, birth time."""

    name: str
    ns: str
    parent_ns: str | None
    created: Timestamp


def dumps_directory(record: DirectoryRecord) -> bytes:
    lines = [
        f"{DIRECTORY_MAGIC} {FORMAT_VERSION}",
        f"name {escape(record.name)}",
        f"ns {record.ns}",
        f"parent {record.parent_ns if record.parent_ns is not None else '-'}",
        f"created {record.created}",
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def loads_directory(data: bytes) -> DirectoryRecord:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError("directory object is not ASCII") from exc
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise FormatError("empty directory object")
    header = lines[0].split(" ")
    if len(header) != 2 or header[0] != DIRECTORY_MAGIC:
        raise FormatError("bad directory magic")
    _require_version(header[1])
    fields: dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        if key in fields:
            raise FormatError(f"duplicate directory field {key!r}")
        fields[key] = value
    try:
        return DirectoryRecord(
            name=unescape(fields["name"]),
            ns=fields["ns"],
            parent_ns=None if fields["parent"] == "-" else fields["parent"],
            created=Timestamp.parse(fields["created"]),
        )
    except KeyError as exc:
        raise FormatError(f"directory object missing field {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"bad directory field ({exc})") from exc
