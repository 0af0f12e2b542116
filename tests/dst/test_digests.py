"""The committed DST digest table and the nightly matrix it mirrors.

``DST_DIGESTS.json`` pins a 12-hex run-digest prefix for seeds 0-199 of
every nightly layer set (``python -m repro dst digests``); the nightly
``corpus-replay`` job re-runs all of them with ``--check``.  Tier-1
re-runs seeds 0-9 of every set, and checks that the nightly
``dst-matrix`` job sweeps exactly those sets.
"""

import json
import re
from pathlib import Path

from repro.dst import cli
from repro.dst.layers import NIGHTLY_LAYERS

REPO_ROOT = Path(__file__).resolve().parents[2]
TABLE = REPO_ROOT / "DST_DIGESTS.json"


def _table() -> dict[str, str]:
    return json.loads(TABLE.read_text())


class TestDigestTable:
    def test_table_pins_every_nightly_set_and_seed(self):
        table = _table()
        assert sorted(table) == sorted(
            f"{layers}/{seed}" for layers in NIGHTLY_LAYERS for seed in range(200)
        )
        assert all(re.fullmatch(r"[0-9a-f]{12}", d) for d in table.values())

    def test_table_is_sorted_one_entry_per_line(self):
        text = TABLE.read_text()
        assert text == json.dumps(_table(), indent=0, sort_keys=True) + "\n"

    def test_first_ten_seeds_of_every_set_match(self):
        table = _table()
        fresh = cli.digest_table(range(10))
        assert len(fresh) == 10 * len(NIGHTLY_LAYERS)
        moved = sorted(key for key, digest in fresh.items() if table[key] != digest)
        assert not moved

    def test_check_names_each_moved_key(self, tmp_path, capsys):
        path = tmp_path / "digests.json"
        pinned = {"none/0": "000000000000", "traffic/1": _table()["traffic/1"]}
        path.write_text(json.dumps(pinned))
        assert cli.main(["digests", "--check", "--file", str(path)]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^moved: none/0 000000000000 -> [0-9a-f]{12}$", out, re.M)
        assert "traffic/1" not in out
        assert "digests: 1/2 unchanged" in out

    def test_write_then_check_round_trips(self, tmp_path, monkeypatch, capsys):
        real = cli.digest_table
        monkeypatch.setattr(cli, "digest_table", lambda: real(range(1)))
        path = tmp_path / "digests.json"
        assert cli.main(["digests", "--file", str(path)]) == 0
        assert cli.main(["digests", "--check", "--file", str(path)]) == 0
        assert "digests: 16/16 unchanged" in capsys.readouterr().out


class TestNightlyMatrix:
    def test_dst_matrix_sweeps_the_nightly_layer_sets(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "nightly.yml").read_text()
        rows = re.findall(r"^ +layers: \[(.*)\]$", workflow, re.M)
        assert len(rows) == 1
        assert [name.strip() for name in rows[0].split(",")] == [
            str(layers) for layers in NIGHTLY_LAYERS
        ]
