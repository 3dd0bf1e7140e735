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
    {"type": "cover", "level": n, "relation": REL, "decide": "exists|unique|gap"}
    {"type": "condexp", "level": n, "values": {"0001": 2, ...}}
    {"type": "subset", "level": n, "language": LANG}
    {"type": "acceptance", "q": 2, "correct": 3, "target": LANG}
    {"type": "acceptance-gap", "t": q, "values": {"01": 3, ...}, "default": g}
    {"type": "biimmunity", "language": LANG}
    {"type": "kt-cover", "level": n, "gap": g, "budget": [a, k, b]}

    REL  = {"builtin": "sat", "vars": v}
         | {"builtin": "explicit", "members": [...]}
         | {"builtin": "mcsp-witness", "inputs": n, "size": s}
         | {"builtin": "short-program", "max_len": m, "budget": [a, k, b]}
    LANG = {"indices": [1, 3], "horizon": 16}
         | {"members": ["0", "00"], "horizon": 16}

Family objects:

    {"type": "geometric-constants"}                      # d_n == 2**-n
    {"type": "covers", "levels": {"3": ["001", ...]}}    # finite support

Modulus objects:

    {"type": "geometric", "delta": "1/2", "scale": 0}
    {"type": "affine", "slope": 1, "offset": 2}          # m(w,i) = slope*i + offset + |w|

Certify objects:

    {"family": {"type": "mcsp", "inputs": [2, 3], "alpha": "1/2", "census_size": 4},
     "gap": {"7": 2, "15": 3}, "gap_default": 1,
     "modulus": {"type": "affine", "slope": 1, "offset": 0},
     "horizon": 15, "witnesses": ["000000000000000"]}
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
    return data


def _need(spec: dict, key: str, path: str, convert=None) -> Any:
    """``spec[key]``, passed through ``convert(value, field)`` if given."""
    if key not in spec:
        raise ConfigError("missing field", field=f"{path}.{key}")
    return convert(spec[key], f"{path}.{key}") if convert else spec[key]


def _int(value: Any, path: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not an integer: {value!r}", field=path) from exc


def _int_map(spec: Any, path: str) -> dict[int, int]:
    return {_int(k, path): _int(v, f"{path}.{k}") for k, v in spec.items()}


def _bits(text: Any, path: str) -> BitString:
    if not isinstance(text, str) or text.strip("01"):
        raise ConfigError(f"not a bit string: {text!r}", field=path)
    return BitString(text)


def _dyadic(text: Any, path: str) -> Dyadic:
    try:
        return Dyadic.parse(str(text))
    except ValueError as exc:
        raise ConfigError(str(exc), field=path) from exc


def _budget(value: Any, path: str) -> BudgetPoly:
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError("budget must be [a, k, b]", field=path)
    return BudgetPoly(*(_int(v, path) for v in value))


def build_language(spec: dict, path: str = "language") -> LanguageView:
    horizon = _need(spec, "horizon", path, _int)
    if "indices" in spec:
        return LanguageView.from_indices(spec["indices"], horizon)
    if "members" in spec:
        members = [_bits(m, f"{path}.members") for m in spec["members"]]
        return LanguageView.from_members(members, horizon)
    raise ConfigError("needs indices or members", field=path)


def build_relation(spec: dict, path: str = "relation"):
    from . import circuits, kolmogorov, oracle

    builtin = _need(spec, "builtin", path)
    if builtin == "sat":
        return oracle.sat_relation(_need(spec, "vars", path, _int))
    if builtin == "explicit":
        members = [_bits(m, f"{path}.members") for m in _need(spec, "members", path)]
        return oracle.explicit_set_relation("explicit", members)
    if builtin == "mcsp-witness":
        return circuits.mcsp_witness_relation(
            _need(spec, "inputs", path, _int), _need(spec, "size", path, _int)
        )
    if builtin == "short-program":
        return kolmogorov.kolmogorov_witness_relation(
            _need(spec, "max_len", path, _int),
            _need(spec, "budget", path, _budget),
        )
    raise ConfigError(f"unknown builtin {builtin!r}", field=path)


def build_construction(spec: dict, path: str = "construction") -> Martingale:
    kind = _need(spec, "type", path)
    if kind == "cover":
        level = _need(spec, "level", path, _int)
        if "members" in spec:
            members = [_bits(m, f"{path}.members") for m in spec["members"]]
            return cover_martingale(Cover.from_members(members, level))
        rel = build_relation(_need(spec, "relation", path), f"{path}.relation")
        decide = spec.get("decide", "exists")
        if decide not in ("exists", "unique", "gap"):
            raise ConfigError(
                f"decide must be exists/unique/gap, got {decide!r}",
                field=f"{path}.decide",
            )
        cover = Cover.from_relation(
            rel,
            level,
            unique_witnesses=decide == "unique",
            gap_language=decide == "gap",
        )
        return cover_martingale(cover)
    if kind == "condexp":
        level = _need(spec, "level", path, _int)
        values = {
            str(_bits(k, f"{path}.values")): _int(v, f"{path}.values.{k}")
            for k, v in _need(spec, "values", path).items()
        }
        return condexp_martingale(lambda x: values.get(str(x), 0), level)
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
                q=_need(spec, "q", path, _int),
            )
        )
    if kind == "acceptance-gap":
        t = _need(spec, "t", path, _int)
        default = _int(spec.get("default", 0), f"{path}.default")
        values = {
            str(_bits(k, f"{path}.values")): _int(v, f"{path}.values.{k}")
            for k, v in _need(spec, "values", path).items()
        }

        def g(x: BitString) -> int:
            return values.get(str(x), default)

        return acceptance_martingale(AcceptanceSpec.from_gap(g, lambda n: t))
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


def build_modulus(spec: dict, path: str = "modulus") -> ConvergenceModulus:
    kind = _need(spec, "type", path)
    if kind == "geometric":
        return geometric_modulus(
            _need(spec, "delta", path, _dyadic),
            _int(spec.get("scale", 0), f"{path}.scale"),
        )
    if kind == "affine":
        slope = _need(spec, "slope", path, _int)
        offset = _need(spec, "offset", path, _int)
        return ConvergenceModulus(
            lambda w, i: slope * i + offset + len(w),
            name=f"affine({slope}i+{offset}+|w|)",
        )
    raise ConfigError(f"unknown modulus type {kind!r}", field=path)


def build_family(spec: dict, path: str = "family") -> MartingaleFamily:
    kind = _need(spec, "type", path)
    if kind == "geometric-constants":
        return MartingaleFamily(
            generator=lambda n: Martingale.constant(Dyadic.pow2(-n)),
            capital_bound=lambda n: Dyadic.pow2(-n),
            name="geometric-constants",
        )
    if kind == "covers":
        levels_spec = _need(spec, "levels", path)
        covers = {}
        for key, members in levels_spec.items():
            level = _int(key, f"{path}.levels")
            covers[level] = Cover.from_members(
                [_bits(m, f"{path}.levels.{key}") for m in members], level
            )
        end = max(covers) + 1 if covers else 0

        def generator(n: int) -> Martingale:
            if n in covers:
                return cover_martingale(covers[n])
            return Martingale.constant(Dyadic(0))

        bounds = {}
        for key, text in spec.get("capital_bounds", {}).items():
            bounds[_int(key, f"{path}.capital_bounds")] = _dyadic(
                text, f"{path}.capital_bounds.{key}"
            )

        def capital_bound(n: int) -> Dyadic:
            if n in bounds:
                return bounds[n]
            if n in covers:
                return generator(n).initial_capital
            return Dyadic(0)

        return MartingaleFamily(
            generator=generator,
            capital_bound=capital_bound,
            name="explicit-covers",
            support_end=end,
        )
    raise ConfigError(f"unknown family type {kind!r}", field=path)


def build_certify(spec: dict, cache_dir: Path | str | None, path: str = "certify"):
    """Assemble (family, gap, modulus, horizon, witnesses) for certification."""
    from . import circuits
    from .entropy import LevelFamily

    fam_spec = _need(spec, "family", path)
    fam_path = f"{path}.family"
    fam_kind = _need(fam_spec, "type", fam_path)
    if fam_kind == "mcsp":
        inputs = _need(fam_spec, "inputs", fam_path)
        inputs = [_int(v, f"{fam_path}.inputs") for v in inputs]
        alpha = _dyadic(fam_spec.get("alpha", "0"), f"{fam_path}.alpha")
        census_size = _int(fam_spec.get("census_size", 5), f"{fam_path}.census_size")
        covers = {}
        for n in inputs:
            census = circuits.cached_census(n, census_size, cache_dir)
            s_floor = circuits.lutz_size_bound_floor(n, alpha)
            cover = circuits.mcsp_cover(n, min(s_floor, census_size), census)
            covers[cover.level] = cover
        family = LevelFamily(
            lambda n: covers.get(n), name=f"mcsp(alpha={alpha})"
        )
    elif fam_kind == "explicit-levels":
        levels_spec = _need(fam_spec, "levels", fam_path)
        covers = {}
        for key, members in levels_spec.items():
            level = _int(key, f"{fam_path}.levels")
            covers[level] = Cover.from_members(
                [_bits(m, f"{fam_path}.levels.{key}") for m in members], level
            )
        family = LevelFamily(lambda n: covers.get(n), name="explicit-levels")
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
        slope = _need(modulus_spec, "slope", mod_path, _int)
        offset = _need(modulus_spec, "offset", mod_path, _int)

        def modulus(i: int) -> int:
            return slope * i + offset

    elif kind == "table":
        table = _need(modulus_spec, "values", mod_path, _int_map)
        default = _int(modulus_spec.get("default", 0), f"{mod_path}.default")

        def modulus(i: int) -> int:
            return table.get(i, default)

    else:
        raise ConfigError(f"unknown certify modulus {kind!r}", field=mod_path)

    horizon = _need(spec, "horizon", path, _int)
    witnesses = [
        _bits(w, f"{path}.witnesses") for w in spec.get("witnesses", [])
    ]
    return family, gap, modulus, horizon, witnesses
