"""Parser fuzzing: arbitrary bytes never escape the FormatError taxonomy.

The wire parsers (`loads_ring`, `loads_patch`, `loads_directory`,
`loads_manifest`, `loads_shard`) are fed attacker-ish inputs -- random
bytes, mutated valid payloads, and structured near-misses -- and must
either return a parsed value or raise :class:`FormatError`.  A bare
``ValueError``/``KeyError``/``UnicodeDecodeError`` leaking out is the
bug class the parser-taxonomy sweep fixed: callers catch FormatError to
route corrupt objects into the degraded/repair path, so any other
exception type crashes the middleware instead of healing the object.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Child,
    KIND_DIR,
    KIND_FILE,
    FormatError,
    NameRing,
    ShardDigest,
    ShardManifest,
    dumps_manifest,
    dumps_ring,
    loads_directory,
    loads_manifest,
    loads_patch,
    loads_ring,
)
from repro.core.formatter import dumps_shard, loads_shard
from repro.simcloud import Timestamp

PARSERS = [loads_ring, loads_patch, loads_directory, loads_manifest, loads_shard]

_line = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=0x7F), max_size=40
)

# Fragments biased toward the parsers' own grammar so mutations reach
# deep into field validation, not just the magic check.
_fragments = st.sampled_from(
    [b"H2NR 1\n", b"H2PATCH 1\n", b"H2DIR 1\n", b"H2NRM 1\n", b"H2NRS 1\n",
     b"name|1.1.1|file|-|-|0|-\n", b"shards 2\n", b"epoch 1\n",
     b"s 0|1.1.0|123|4\n", b"name x\n", b"ns 1.1.1\n", b"parent -\n",
     b"created 1.1.1\n", b"|||", b"%0A", b"0", b"-", b"\xff", b"\n"]
)


def _assert_taxonomy(parser, data: bytes) -> None:
    try:
        parser(data)
    except FormatError:
        pass  # the contract: corrupt bytes -> FormatError
    # Any other exception type propagates and fails the test.


class TestArbitraryBytes:
    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_random_bytes(self, data):
        for parser in PARSERS:
            _assert_taxonomy(parser, data)

    @given(st.lists(_fragments, max_size=12))
    @settings(max_examples=300)
    def test_grammar_shaped_bytes(self, parts):
        data = b"".join(parts)
        for parser in PARSERS:
            _assert_taxonomy(parser, data)

    @given(st.text(max_size=120))
    @settings(max_examples=200)
    def test_arbitrary_text(self, text):
        data = text.encode("utf-8")
        for parser in PARSERS:
            _assert_taxonomy(parser, data)


class TestMutatedValidPayloads:
    """Flip one byte of a valid object; parse must stay in-taxonomy."""

    _ring_bytes = dumps_ring(
        NameRing(
            children={
                "cat": Child(
                    name="cat", timestamp=Timestamp(10, 1, 0),
                    kind=KIND_FILE, size=5, etag="e1",
                ),
                "bin": Child(
                    name="bin", timestamp=Timestamp(11, 2, 1),
                    kind=KIND_DIR, ns="5.1.9",
                ),
            }
        )
    )
    _manifest_bytes = dumps_manifest(
        ShardManifest(
            shard_count=2,
            epoch=1,
            digests=(
                ShardDigest(version=Timestamp(5, 1, 0), crc=99, entries=3),
                ShardDigest(version=Timestamp.ZERO, crc=0, entries=0),
            ),
        )
    )

    @given(st.data())
    @settings(max_examples=300)
    def test_single_byte_mutations(self, data):
        base = data.draw(
            st.sampled_from([self._ring_bytes, self._manifest_bytes])
        )
        pos = data.draw(st.integers(0, len(base) - 1))
        byte = data.draw(st.integers(0, 255))
        mutated = base[:pos] + bytes([byte]) + base[pos + 1:]
        for parser in PARSERS:
            _assert_taxonomy(parser, mutated)

    @given(st.data())
    @settings(max_examples=150)
    def test_truncations(self, data):
        base = data.draw(
            st.sampled_from([self._ring_bytes, self._manifest_bytes])
        )
        cut = data.draw(st.integers(0, len(base)))
        for parser in PARSERS:
            _assert_taxonomy(parser, base[:cut])


_ts = st.builds(
    Timestamp, st.integers(0, 10**9), st.integers(0, 10**4), st.integers(0, 64)
)
_digest = st.builds(
    ShardDigest, _ts, st.integers(0, 2**32 - 1), st.integers(0, 10**6)
)


class TestManifestProperty:
    @given(
        st.integers(1, 16).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, 99),
                st.lists(_digest, min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=150)
    def test_any_manifest_round_trips(self, spec):
        count, epoch, digests = spec
        manifest = ShardManifest(
            shard_count=count, epoch=epoch, digests=tuple(digests)
        )
        assert loads_manifest(dumps_manifest(manifest)) == manifest

    def test_shard_crc_matches_zlib_of_payload_lines(self):
        """The digest CRC is pinned to the shard's tuple bytes, so two
        replicas holding the same children always agree on it."""
        from repro.core import formatter

        ring = NameRing(
            children={
                "a": Child(name="a", timestamp=Timestamp(1, 1, 0), kind=KIND_FILE)
            }
        )
        crc = formatter.shard_crc(ring)
        again = formatter.shard_crc(
            NameRing(children=dict(ring.children))
        )
        assert crc == again
        assert 0 <= crc < 2**32

    def test_manifest_requires_full_digest_cover(self):
        with pytest.raises(ValueError):
            ShardManifest(
                shard_count=2,
                epoch=1,
                digests=(ShardDigest(Timestamp.ZERO, 0, 0),),
            )


# Text that reaches every escaper branch: names of safe characters
# only, the wire format's separators, percent signs (valid, truncated
# and bad escapes), non-ASCII and lone surrogates.
_escaper_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("%|\n% 2Aaf~-._"),
        st.characters(exclude_categories=()),
    ),
    max_size=30,
)


def _outcome(fn, text):
    try:
        return "ok", fn(text)
    except Exception as exc:  # noqa: BLE001 -- compared, not swallowed
        return "raised", type(exc)


class TestEscaperMatchesUrllib:
    """``escape``/``unescape`` skip urllib for names that need no work;
    urllib stays the reference for every input."""

    @given(_escaper_text)
    @settings(max_examples=400)
    def test_escape_is_quote(self, text):
        from urllib.parse import quote

        from repro.core.formatter import _SAFE, escape

        ours, ref = _outcome(escape, text), _outcome(
            lambda t: quote(t, safe=_SAFE), text
        )
        assert ours[0] == ref[0]
        if ours[0] == "ok":
            assert ours[1] == ref[1]

    @given(_escaper_text)
    @settings(max_examples=400)
    def test_unescape_is_unquote(self, text):
        from urllib.parse import unquote

        from repro.core.formatter import unescape

        ours = _outcome(unescape, text)
        ref = _outcome(lambda t: unquote(t, errors="strict"), text)
        assert ours[0] == ref[0]
        if ours[0] == "ok":
            assert ours[1] == ref[1]
        else:
            assert ours[1] is FormatError

    def test_fast_paths_return_the_name_itself(self):
        from repro.core.formatter import escape, unescape

        name = "plain-name_01.txt"
        assert escape(name) is name
        assert unescape(name) is name
        assert escape("a|b") == "a%7Cb"
        assert unescape("a%7Cb") == "a|b"
