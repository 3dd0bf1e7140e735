"""Experiment configuration: versioned JSON, diffable and committable.

One file describes one experiment.  Top-level shape:

    {
      "version": 1,
      "construction": { ... }        # construct / verify / success / diagonalize
      "family": { ... },             # sum
      "modulus": { ... },
      "certify": { ... }             # certify
    }

Construction objects (field "type" selects one):

    {"type": "cover", "level": n, "members": ["0001", ...]}
    {"type": "cover", "level": n, "relation": REL, "decide": "exists|unique"}
    {"type": "condexp", "level": n, "values": {"0001": 2, ...}}
      (every key has length n; a length-n string without a key counts 0)
    {"type": "subset", "level": n, "language": LANG}
    {"type": "acceptance", "q": 2, "correct": 3, "target": LANG}
    {"type": "acceptance-gap", "t": q, "values": {"01": 3, ...}, "default": g}
    {"type": "biimmunity", "language": LANG}
    {"type": "kt-cover", "level": n, "gap": g, "budget": [a, k, b]}

    REL  = {"builtin": "sat", "vars": v}
         | {"builtin": "explicit", "members": [...]}
         | {"builtin": "mcsp-witness", "inputs": n, "size": s}
         | {"builtin": "short-program", "max_len": m, "budget": [a, k, b]}
      (v, n, s, m >= 0.  A relation's witness y accepts a set of inputs:
      sat every table whose row y is 1, explicit its members of the level
      for the empty witness, mcsp-witness and short-program the one table or
      string its program computes, if any.  "decide": "gap" is refused: a
      gap 2*accepts - 2**k over 2**k witnesses has the parity of 2**k.)
    LANG = {"indices": [1, 3], "horizon": 16}
         | {"members": ["0", "00"], "horizon": 16}
      (horizon >= 0.  An acceptance-gap value or default g counts accepting
      paths out of 2**t, so 0 <= g <= 2**t.)

Family objects:

    {"type": "geometric-constants"}                      # d_n == 2**-n
    {"type": "covers", "levels": {"3": ["001", ...]}}    # finite support

Modulus objects:

    {"type": "geometric", "delta": "1/2", "scale": 0}
    {"type": "affine", "slope": 1, "offset": 2}          # m(w,i) = slope*i + offset + |w|
      (slope, offset >= 0, so m is never negative.)

Certify objects:

    {"family": FAM, "gap": {"7": 2, "15": 3}, "gap_default": 1,
     "modulus": MOD, "horizon": 15, "witnesses": ["000000000000000"]}

    FAM = {"type": "mcsp", "inputs": [2, 3], "alpha": "1/2", "census_size": 4}
        | {"type": "explicit-levels", "levels": {"3": ["001", ...]}}
    MOD = {"type": "affine", "slope": 1, "offset": 0}         # m(i) = slope*i + offset
        | {"type": "table", "values": {"0": 8}, "default": 16}  # m(i) = values[i], else default
      (A level off the gap table takes gap_default, or its own length n for
      "gap_default": "n".  Unlike the sum modulus, affine here has no |w|
      term; every modulus field is >= 0.)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .cantor import BitString, LanguageView
from .combinators import ConvergenceModulus, MartingaleFamily, geometric_modulus
from .constructions import (
    AcceptanceSpec,
    Cover,
    acceptance_martingale,
    biimmunity_martingale,
    condexp_martingale,
    cover_martingale,
    subset_martingale,
)
from .dyadic import Dyadic
from .errors import ConfigError
from .machine import BudgetPoly
from .martingale import Martingale

__all__ = [
    "load_config",
    "build_language",
    "build_relation",
    "build_construction",
    "build_family",
    "build_modulus",
    "build_certify",
]

CONFIG_VERSION = 1

_GAP_REFUSED = (
    "gap cannot decide a cover: the gap 2*accepts - 2**k over 2**k witnesses "
    "has the parity of 2**k, so it is 0 or 1 on every input only when k = 0 "
    "and every input is a member; use exists/unique"
)


def load_config(path: Path | str) -> dict:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if data.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported version {data.get('version')!r}", field="version"
        )
    if data.get("seed") is not None:
        data["seed"] = _int(data["seed"], "seed")
    return data


def _need(spec: Any, key: str, path: str, convert=None) -> Any:
    """``spec[key]``, passed through ``convert(value, field)`` if given."""
    if key not in _object(spec, path):
        raise ConfigError("missing field", field=f"{path}.{key}")
    return convert(spec[key], f"{path}.{key}") if convert else spec[key]


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"not an object: {value!r}", field=path)
    return value


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"not a list: {value!r}", field=path)
    return value


def _int(value: Any, path: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not an integer: {value!r}", field=path) from exc


def _natural(value: Any, path: str) -> int:
    n = _int(value, path)
    if n < 0:
        raise ConfigError(f"must be nonnegative, got {n}", field=path)
    return n


def _positive(value: Any, path: str) -> int:
    n = _int(value, path)
    if n < 1:
        raise ConfigError(f"must be at least 1, got {n}", field=path)
    return n


def _int_map(spec: Any, path: str) -> dict[int, int]:
    return {
        _int(k, path): _int(v, f"{path}.{k}")
        for k, v in _object(spec, path).items()
    }


def _text(text: Any, path: str) -> str:
    """``text`` checked to be bits, and kept as text."""
    if not isinstance(text, str) or text.strip("01"):
        raise ConfigError(f"not a bit string: {text!r}", field=path)
    return text


def _bits(text: Any, path: str) -> BitString:
    return BitString(_text(text, path))


def _texts(value: Any, path: str) -> list[str]:
    """A list of bit strings, checked and kept as text: one pass over the
    joined text, or the slow pass that names the first member not bits."""
    texts = _list(value, path)
    try:
        if not "".join(texts).strip("01"):
            return texts
    except TypeError:  # a member that is not a str
        pass
    return [_text(m, path) for m in texts]


def _bits_list(value: Any, path: str) -> list[BitString]:
    return [_bits(m, path) for m in _list(value, path)]


def _values(spec: Any, path: str, convert=_int) -> dict[str, int]:
    """``spec.values``: bit string -> integer, each passed through ``convert``."""
    field = f"{path}.values"
    return {
        _text(k, field): convert(v, f"{field}.{k}")
        for k, v in _need(spec, "values", path, _object).items()
    }


def _level_covers(spec: Any, path: str) -> dict[int, Cover]:
    """``spec.levels``: one explicit cover per level, ``{"n": [bits, ...]}``."""
    covers = {}
    for key, members in _need(spec, "levels", path, _object).items():
        level = _int(key, f"{path}.levels")
        covers[level] = Cover.from_members(
            _texts(members, f"{path}.levels.{key}"), level
        )
    return covers


def _dyadic(text: Any, path: str) -> Dyadic:
    try:
        return Dyadic.parse(str(text))
    except ValueError as exc:
        raise ConfigError(str(exc), field=path) from exc


def _budget(value: Any, path: str) -> BudgetPoly:
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError("budget must be [a, k, b]", field=path)
    try:
        return BudgetPoly(*(_int(v, path) for v in value))
    except ValueError as exc:
        raise ConfigError(str(exc), field=path) from exc


def build_language(spec: dict, path: str) -> LanguageView:
    horizon = _need(spec, "horizon", path, _natural)
    if "indices" in spec:
        indices = _list(spec["indices"], f"{path}.indices")
        if set(map(type, indices)) - {int} or min(indices, default=0) < 0:
            # the slow pass converts, and names the first bad index
            indices = [_natural(i, f"{path}.indices") for i in indices]
        return LanguageView.from_indices(indices, horizon)
    if "members" in spec:
        members = _bits_list(spec["members"], f"{path}.members")
        return LanguageView.from_members(members, horizon)
    raise ConfigError("needs indices or members", field=path)


def build_relation(spec: dict, path: str):
    from . import circuits, kolmogorov, oracle

    builtin = _need(spec, "builtin", path)
    if builtin == "sat":
        return oracle.sat_relation(_need(spec, "vars", path, _natural))
    if builtin == "explicit":
        members = _need(spec, "members", path, _bits_list)
        return oracle.explicit_set_relation("explicit", members)
    if builtin == "mcsp-witness":
        return circuits.mcsp_witness_relation(
            _need(spec, "inputs", path, _natural),
            _need(spec, "size", path, _natural),
        )
    if builtin == "short-program":
        return kolmogorov.kolmogorov_witness_relation(
            _need(spec, "max_len", path, _natural),
            _need(spec, "budget", path, _budget),
        )
    raise ConfigError(f"unknown builtin {builtin!r}", field=path)


def build_construction(spec: dict) -> Martingale:
    path = "construction"
    kind = _need(spec, "type", path)
    if kind == "cover":
        level = _need(spec, "level", path, _int)
        if "members" in spec:
            members = _texts(spec["members"], f"{path}.members")
            return cover_martingale(Cover.from_members(members, level))
        rel = build_relation(_need(spec, "relation", path), f"{path}.relation")
        decide = spec.get("decide", "exists")
        if decide == "gap":
            raise ConfigError(_GAP_REFUSED, field=f"{path}.decide")
        if decide not in ("exists", "unique"):
            raise ConfigError(
                f"decide must be exists/unique, got {decide!r}",
                field=f"{path}.decide",
            )
        return cover_martingale(Cover.from_relation(rel, level, decide))
    if kind == "condexp":
        level = _need(spec, "level", path, _int)
        values = _values(spec, path)
        for x in values:  # in input order, as a cover names its members
            if len(x) != level:
                raise ConfigError(
                    f"key {x} does not have length {level}", field=f"{path}.values"
                )
        return condexp_martingale({int(x or "0", 2): v for x, v in values.items()}, level)
    if kind == "subset":
        return subset_martingale(
            build_language(_need(spec, "language", path), f"{path}.language"),
            _need(spec, "level", path, _int),
        )
    if kind == "acceptance":
        target = build_language(_need(spec, "target", path), f"{path}.target")
        return acceptance_martingale(
            AcceptanceSpec.biased(
                target,
                correct=_need(spec, "correct", path, _int),
                q=_need(spec, "q", path, _natural),
            )
        )
    if kind == "acceptance-gap":
        t = _need(spec, "t", path, _natural)

        def gap(value: Any, field: str) -> int:
            # g(i) and 2**t - g(i) count accepting and rejecting paths; the
            # bound is read from bit lengths, so a large t allocates nothing
            paths = _int(value, field)
            if paths < 0 or paths > 0 and (paths - 1).bit_length() > t:
                raise ConfigError(f"must be in [0, 2**{t}], got {paths}", field=field)
            return paths

        default = gap(spec.get("default", 0), f"{path}.default")
        g = {int("1" + x, 2) - 1: v for x, v in _values(spec, path, gap).items()}
        return acceptance_martingale(
            AcceptanceSpec.from_gap(lambda i: g.get(i, default), lambda n: t)
        )
    if kind == "biimmunity":
        return biimmunity_martingale(
            build_language(_need(spec, "language", path), f"{path}.language")
        )
    if kind == "kt-cover":
        from .kolmogorov import kt_cover_martingale

        return kt_cover_martingale(
            _need(spec, "level", path, _int),
            _need(spec, "gap", path, _int),
            _need(spec, "budget", path, _budget),
        )
    raise ConfigError(f"unknown construction type {kind!r}", field=path)


def build_modulus(spec: dict) -> ConvergenceModulus:
    path = "modulus"
    kind = _need(spec, "type", path)
    if kind == "geometric":
        return geometric_modulus(
            _need(spec, "delta", path, _dyadic),
            _int(spec.get("scale", 0), f"{path}.scale"),
        )
    if kind == "affine":
        slope = _need(spec, "slope", path, _natural)
        offset = _need(spec, "offset", path, _natural)
        return ConvergenceModulus(
            lambda w, i: slope * i + offset + len(w),
            name=f"affine({slope}i+{offset}+|w|)",
        )
    raise ConfigError(f"unknown modulus type {kind!r}", field=path)


def build_family(spec: dict) -> MartingaleFamily:
    path = "family"
    kind = _need(spec, "type", path)
    if kind == "geometric-constants":
        return MartingaleFamily(
            generator=lambda n: Martingale.constant(Dyadic.pow2(-n)),
            capital_bound=lambda n: Dyadic.pow2(-n),
            name="geometric-constants",
        )
    if kind == "covers":
        covers = _level_covers(spec, path)

        def generator(n: int) -> Martingale:
            return cover_martingale(covers[n])

        return MartingaleFamily(
            generator=generator,
            capital_bound=lambda n: generator(n).initial_capital,
            name="explicit-covers",
            support=tuple(sorted(covers)),
        )
    raise ConfigError(f"unknown family type {kind!r}", field=path)


def build_certify(spec: dict, cache_dir: Path | str | None):
    """Assemble (family, gap, modulus, horizon, witnesses) for certification."""
    from . import circuits
    from .entropy import LevelFamily

    path = "certify"
    fam_spec = _need(spec, "family", path)
    fam_path = f"{path}.family"
    fam_kind = _need(fam_spec, "type", fam_path)
    if fam_kind == "mcsp":
        inputs = [
            _positive(v, f"{fam_path}.inputs")
            for v in _need(fam_spec, "inputs", fam_path, _list)
        ]
        alpha = _dyadic(fam_spec.get("alpha", "0"), f"{fam_path}.alpha")
        census_size = _natural(
            fam_spec.get("census_size", 5), f"{fam_path}.census_size"
        )
        covers = {}
    elif fam_kind == "explicit-levels":
        covers = _level_covers(fam_spec, fam_path)
    else:
        raise ConfigError(f"unknown certify family {fam_kind!r}", field=fam_path)

    gap_table = _need(spec, "gap", path, _int_map)
    gap_default = spec.get("gap_default", 0)
    if gap_default == "n":  # identity default keeps the capital series summable
        def gap(n: int) -> int:
            return gap_table.get(n, n)
    else:
        def gap(n: int, _d=_int(gap_default, f"{path}.gap_default")) -> int:
            return gap_table.get(n, _d)

    modulus_spec = _need(spec, "modulus", path)
    mod_path = f"{path}.modulus"
    kind = _need(modulus_spec, "type", mod_path)
    if kind == "affine":
        slope = _need(modulus_spec, "slope", mod_path, _natural)
        offset = _need(modulus_spec, "offset", mod_path, _natural)

        def modulus(i: int) -> int:
            return slope * i + offset

    elif kind == "table":
        table = {
            i: _natural(start, f"{mod_path}.values.{i}")
            for i, start in _need(modulus_spec, "values", mod_path, _int_map).items()
        }
        default = _natural(modulus_spec.get("default", 0), f"{mod_path}.default")

        def modulus(i: int) -> int:
            return table.get(i, default)

    else:
        raise ConfigError(f"unknown certify modulus {kind!r}", field=mod_path)

    horizon = _need(spec, "horizon", path, _natural)
    witnesses = _bits_list(spec.get("witnesses", []), f"{path}.witnesses")
    if fam_kind == "mcsp":  # censuses are built and cached once the spec parses
        for n in inputs:
            census = circuits.cached_census(n, census_size, cache_dir)
            s_floor = circuits.lutz_size_bound_floor(n, alpha)
            cover = circuits.mcsp_cover(n, min(s_floor, census_size), census)
            covers[cover.level] = cover
    name = f"mcsp(alpha={alpha})" if fam_kind == "mcsp" else fam_kind
    family = LevelFamily(lambda n: covers.get(n), name=name)
    return family, gap, modulus, horizon, witnesses
