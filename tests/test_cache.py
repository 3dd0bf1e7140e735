"""A damaged, stale or misplaced cache file is rebuilt, never trusted.

Each case writes a census or a kt table through its ``cached_*`` function,
damages the cache directory, and then asks again: the answer must equal a
fresh build, the damaged file must have cost exactly one rebuild, and the
rewritten file must load without another.  Every damage changes the file.
"""

import hashlib
import os
import pathlib
import struct
import tracemalloc

import pytest

from martlab import cache, circuits, kolmogorov
from martlab.cantor import all_strings
from martlab.machine import MACHINE_VERSION, BudgetPoly

import census_v2
import kt_v3

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
    budget, length_cap = TABLES[table][3]
    rows = _kt_csv(table).decode().replace("\n", "\r\n")
    return (f"# martlab kt table v1\n# machine={MACHINE_VERSION} "
            f"budget={budget.key()} L={length_cap}\nstring,kt\r\n{rows}").encode()


def _kt_csv(table) -> bytes:
    """The kt table's ``string,kt`` lines, the payload of versions 1 to 3."""
    return kt_v3.encode(kt_v3.build(*TABLES[table][3]))


def _headed(version, name, payload) -> bytes:
    digest = hashlib.sha256(payload).hexdigest()
    return f"martlab-cache v{version} {name} sha256={digest}\n".encode() + payload


def _v2(table, name) -> bytes:
    """The file the version-2 writer produced for the table's key: a census
    as 14-byte records, a kt table as ``string,kt`` lines."""
    if table == "census":
        payload = census_v2.encode(*census_v2.build(*TABLES[table][3]))
    else:
        payload = _kt_csv(table)
    return _headed(2, name, payload)


def _size_bytes(table) -> bytes:
    """The census's ``T`` size bytes, from the dict oracle: the payload of
    version 5, and what every payload of versions 3 to 6 begins with."""
    n, max_size = TABLES[table][3]
    sizes, _ = census_v2.build(n, max_size)
    return bytes(sizes.get(m, circuits.UNREACHED) for m in range(1 << (1 << n)))


def _dense_census(table) -> bytes:
    """The census payload of versions 3 and 4, from the dict oracle: for all
    ``T`` tables, ``T`` size bytes, ``T`` witness-kind bytes, then the left
    and the right witness fields as ``T`` little-endian u16 each."""
    n, max_size = TABLES[table][3]
    _, witness = census_v2.build(n, max_size)
    rows = [witness.get(m, ("VAR", 0)) for m in range(1 << (1 << n))]
    return b"".join([
        _size_bytes(table),
        bytes(census_v2.KINDS.index(kind) for kind, *_ in rows),
        b"".join(a.to_bytes(2, "little") for _, a, *_ in rows),
        b"".join((b[0] if b else 0).to_bytes(2, "little") for _, _, *b in rows),
    ])


def _dense_kt(table) -> bytes:
    """The kt payload of versions 4 and 5, from the dict oracle: one byte
    per string up to the cap, shortest first, 255 where no program prints it."""
    entries = kt_v3.build(*TABLES[table][3])
    length_cap = TABLES[table][3][1]
    return bytes(entries.get(x.bits(), 255)
                 for k in range(length_cap + 1) for x in all_strings(k))


def _v3(table, name) -> bytes:
    """The file the version-3 writer produced for the table's key: a census
    with its witnesses, a kt table as ``string,kt`` lines."""
    payload = _dense_census(table) if table == "census" else _kt_csv(table)
    return _headed(3, name, payload)


def _v4(table, name) -> bytes:
    """The file the version-4 writer produced for the table's key: a census
    with its witnesses, a kt table in the dense payload it still has."""
    payload = _dense_census(table) if table == "census" else _dense_kt(table)
    return _headed(4, name, payload)


def _v5(table, name) -> bytes:
    """The file the version-5 writer produced for the table's key: a census
    as its size bytes alone, a kt table in the dense payload it still has."""
    payload = _size_bytes(table) if table == "census" else _dense_kt(table)
    return _headed(5, name, payload)


def _damage(case, path, table, scratch):
    data = path.read_bytes()
    start = data.find(b"\n") + 1
    mid = start + (len(data) - start) // 2  # a byte in the middle of the payload
    if case == "truncated":
        data = data[: len(data) // 2]
    elif case == "flipped-byte":
        # eight bytes from the end is in the census trailer, the low byte of
        # its size-3 count, or the kt of a 5-bit string
        data = data[:-8] + bytes([data[-8] ^ 1]) + data[-7:]
    elif case == "flipped-size-byte":
        # the middle size byte of the census, or the middle kt byte
        at = start + len(_size_bytes(table)) // 2 if table == "census" else mid
        data = data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]
    elif case == "cut-last-count":
        # four bytes short: the census loses its last count, the kt table
        # the kts of four 5-bit strings
        data = data[:-4]
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
    elif case == "v3-format":
        data = _v3(table, path.name)
    elif case == "v4-format":
        data = _v4(table, path.name)
    elif case == "v5-format":
        data = _v5(table, path.name)
    elif case == "leftover-tmp":
        # an earlier process with this pid died between writing and renaming
        path.with_name(f"{path.name}.{os.getpid()}.tmp").write_bytes(data[:-8])
        path.unlink()
        return
    elif case == "duplicated-byte":
        data = data[: mid + 1] + data[mid:]
    elif case == "dropped-byte":
        data = data[:mid] + data[mid + 1 :]
    elif case == "inserted-byte":
        data = data[:mid] + b"\x07" + data[mid:]
    path.write_bytes(data)


OTHER_TABLE = {"census": "kt", "kt": "census"}
CASES = [(table, case) for table in TABLES
         for case in ("truncated", "flipped-byte", "flipped-size-byte",
                      "cut-last-count", "other-key", "other-table",
                      "v1-format", "v2-format", "v3-format", "v4-format",
                      "v5-format", "leftover-tmp", "duplicated-byte",
                      "dropped-byte", "inserted-byte")]


def test_v4_and_v5_payloads_begin_with_the_v6_size_bytes():
    # a v6 census is its size bytes, then one u32 count per size; a v5
    # census is those size bytes alone, and a v4 census follows them with
    # its witnesses; a kt table differs across v4 to v6 only in its header
    sizes = _size_bytes("census")
    payload = circuits.save_census(_fresh("census"))
    max_size = TABLES["census"][3][1]
    assert payload[: len(sizes)] == sizes
    assert len(payload) == len(sizes) + 4 * (max_size + 1)
    dense = _dense_census("census")
    assert dense[: len(sizes)] == sizes and len(dense) == 6 * len(sizes)
    assert _dense_kt("kt") == kolmogorov.save_kt_table(_fresh("kt"))


def test_readme_names_the_current_format_version():
    # the README's header line and its list of rebuilt versions follow
    # cache.FORMAT_VERSION, so a format bump cannot leave them stale
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    headers = [line for line in readme.splitlines() if "`martlab-cache v" in line]
    assert headers
    for line in headers:
        assert f"`martlab-cache v{cache.FORMAT_VERSION} <file name>" in line
    assert f"versions 1–{cache.FORMAT_VERSION - 1}" in readme


@pytest.mark.parametrize("table, case", CASES)
def test_damaged_cache_is_rebuilt_once(tmp_path, monkeypatch, table, case):
    module, build, _, params, _ = TABLES[table]
    cache_dir = tmp_path / "cache"
    _cached(table, params, cache_dir)
    [path] = cache_dir.iterdir()
    original = path.read_bytes()
    _damage(case, path, table, tmp_path / "scratch")
    assert not path.exists() or path.read_bytes() != original
    fresh = _fresh(table)

    builds = []
    builder = getattr(module, build)

    def counted(*args):
        builds.append(args)
        return builder(*args)

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
        f"kt_{MACHINE_VERSION}_t{BUDGET.key()}_L5.bin",
        f"kt_{MACHINE_VERSION}_t{BUDGET.key()}_L6.bin",
    ]


@pytest.mark.parametrize("table", TABLES)
def test_only_a_miss_creates_the_directory(tmp_path, monkeypatch, table):
    params = TABLES[table][3]
    cache_dir = tmp_path / "cache"
    made = []
    real_mkdir = pathlib.Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self)
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "mkdir", counted)
    assert _cached(table, params, cache_dir) == _fresh(table)
    assert made == [cache_dir]
    made.clear()
    assert _cached(table, params, cache_dir) == _fresh(table)
    assert made == []


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


@pytest.mark.parametrize(
    "load, limit",
    [
        (lambda cache_dir: kolmogorov.cached_kt_table(BUDGET, 10, cache_dir), 64 << 10),
        # the file (a 64 KiB payload under its header) and one copy of the payload
        (lambda cache_dir: circuits.cached_census(4, 8, cache_dir),
         2 * (64 << 10) + (8 << 10)),
    ],
    ids=["kt-L10", "census-n4-s8"],
)
def test_warm_load_allocates_little_beyond_the_file(tmp_path, load, limit):
    # the file is read once; the header is hashed and the payload decoded
    # from a view of those bytes, and the decoded table is its one copy
    expected = load(tmp_path)
    tracemalloc.start()
    try:
        assert load(tmp_path) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit
