"""A damaged, stale or misplaced cache file is rebuilt, never trusted.

Each case writes a census or a kt table through its ``cached_*`` function,
damages the cache directory, and then asks again: the answer must equal a
fresh build, the damaged file must have cost exactly one rebuild, and the
rewritten file must load without another.
"""

import hashlib
import os
import pathlib
import struct

import pytest

from martlab import circuits, kolmogorov
from martlab.machine import MACHINE_VERSION, BudgetPoly

import census_v2

BUDGET = BudgetPoly(4, 1, 16)

# module, builder, cached loader, key parameters, another key's parameters
TABLES = {
    "census": (circuits, "build_census", "cached_census", (2, 4), (2, 3)),
    "kt": (kolmogorov, "build_kt_table", "cached_kt_table", (BUDGET, 5), (BUDGET, 6)),
}


def _cached(table, params, cache_dir):
    module, _, cached, *_ = TABLES[table]
    return getattr(module, cached)(*params, cache_dir)


def _fresh(table):
    module, build, _, params, _ = TABLES[table]
    return getattr(module, build)(*params)


def _v1(table) -> bytes:
    """The file the version-1 writers produced for the table's key."""
    if table == "census":
        n, max_size = TABLES[table][3]
        sizes, witness = census_v2.build(n, max_size)
        basis = circuits.DEFAULT_BASIS.encode()
        return b"".join([b"MLC1", struct.pack("<BBH", n, max_size, len(basis)),
                         basis, struct.pack("<I", len(sizes)),
                         census_v2.encode(sizes, witness)])
    t = _fresh(table)
    rows = "".join(f"{bits},{t.entries[bits]}\r\n"
                   for bits in sorted(t.entries, key=lambda b: (len(b), b)))
    return (f"# martlab kt table v1\n# machine={t.machine_version} "
            f"budget={t.budget.key()} L={t.length_cap}\nstring,kt\r\n{rows}").encode()


def _v2(table, name) -> bytes:
    """The file the version-2 writer produced for the table's key: a census
    as 14-byte records, a kt table in the payload it still has."""
    if table == "census":
        payload = census_v2.encode(*census_v2.build(*TABLES[table][3]))
    else:
        payload = kolmogorov.save_kt_table(_fresh(table))
    digest = hashlib.sha256(payload).hexdigest()
    return f"martlab-cache v2 {name} sha256={digest}\n".encode() + payload


def _damage(case, path, table, scratch):
    data = path.read_bytes()
    lines, mid = data.split(b"\n"), data.count(b"\n") // 2
    if case == "truncated":
        data = data[: len(data) // 2]
    elif case == "flipped-byte":
        # eight bytes from the end lies in the last record in every layout:
        # the CONST witness of the all-ones table, or a bit of a kt string
        data = data[:-8] + bytes([data[-8] ^ 1]) + data[-7:]
    elif case in ("other-key", "other-table"):
        other = OTHER_TABLE[table] if case == "other-table" else table
        params = TABLES[other][3 if case == "other-table" else 4]
        _cached(other, params, scratch)
        [source] = scratch.iterdir()
        data = source.read_bytes()
    elif case == "v1-format":
        data = _v1(table)
    elif case == "v2-format":
        data = _v2(table, path.name)
    elif case == "leftover-tmp":
        # an earlier process with this pid died between writing and renaming
        path.with_name(f"{path.name}.{os.getpid()}.tmp").write_bytes(data[:-8])
        path.unlink()
        return
    elif case == "duplicated-row":
        lines[mid] = lines[mid + 1]
    elif case == "missing-row":
        del lines[mid]
    elif case == "extra-row":
        lines.insert(mid, b"000000,7")
    if case in ROW_CASES:
        data = b"\n".join(lines)
    path.write_bytes(data)


OTHER_TABLE = {"census": "kt", "kt": "census"}
ROW_CASES = ("duplicated-row", "missing-row", "extra-row")
CASES = [(table, case) for table in TABLES
         for case in ("truncated", "flipped-byte", "other-key", "other-table",
                      "v1-format", "v2-format", "leftover-tmp")]
CASES += [("kt", case) for case in ROW_CASES]


@pytest.mark.parametrize("table, case", CASES)
def test_damaged_cache_is_rebuilt_once(tmp_path, monkeypatch, table, case):
    module, build, _, params, _ = TABLES[table]
    cache_dir = tmp_path / "cache"
    _cached(table, params, cache_dir)
    [path] = cache_dir.iterdir()
    _damage(case, path, table, tmp_path / "scratch")
    fresh = _fresh(table)

    builds = []
    original = getattr(module, build)

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(module, build, counted)
    assert _cached(table, params, cache_dir) == fresh
    assert len(builds) == 1
    assert _cached(table, params, cache_dir) == fresh
    assert len(builds) == 1
    assert [p.name for p in cache_dir.iterdir()] == [path.name]


def test_cache_names_spell_out_their_keys(tmp_path):
    for table, (_, _, _, params, other) in TABLES.items():
        _cached(table, params, tmp_path)
        _cached(table, other, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "census_n2_s3_and-or-not.bin",
        "census_n2_s4_and-or-not.bin",
        f"kt_{MACHINE_VERSION}_t{BUDGET.key()}_L5.csv",
        f"kt_{MACHINE_VERSION}_t{BUDGET.key()}_L6.csv",
    ]


@pytest.mark.parametrize("table", TABLES)
def test_interrupted_write_leaves_no_partial_file(tmp_path, monkeypatch, table):
    params = TABLES[table][3]
    real_write = pathlib.Path.write_bytes

    def dies_midway(self, data):
        real_write(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(pathlib.Path, "write_bytes", dies_midway)
    with pytest.raises(OSError):
        _cached(table, params, tmp_path)
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    assert _cached(table, params, tmp_path) == _fresh(table)
