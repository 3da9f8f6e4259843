"""The structure-constant cache that ``uzeta build`` writes.

A cache reads back into the ``genericuq.StructureTable`` it was written
from, its convex order from the ``type=`` and ``w0=`` header lines; a
command refuses a cache of another order than its own.  An unreadable,
malformed or foreign cache is a ``ConfigError``.  Only the commands that
read or write a cache import this module.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from typing import Dict, List, Tuple

from .genericuq import StructureTable, generic_uq
from .kernelalg import ConfigError
from .rootdata import ConvexOrder, convex_order
from .scalars import QFraction, laurent_from_text, laurent_to_text, localized_from_text, localized_to_text

CACHE_VERSION = "uzeta-structure-cache v1"


def write_cache(cfg, path: str) -> None:
    """Write the structure table of a ``cli.RunConfig``'s type and w0 word."""
    uq = generic_uq(cfg.type_label)
    order = convex_order(cfg.type_label, cfg.word())
    tab = uq.structure_table(order)
    lines = [CACHE_VERSION]
    lines.append(f"type={cfg.type_label}")
    lines.append("w0=" + ",".join(str(x) for x in cfg.word()))
    lines.append("ell_independent=true")
    lines.append("convention=braid operators per the validation suite; root vector units recorded below")
    lines.append("s_keys=" + ",".join(str(k) for k in tab.s_keys))
    for i, u in enumerate(tab.omega_units):
        lines.append(f"omega_unit {i + 1} {laurent_to_text(u.as_laurent())}")
    for side, entries in (("E", tab.e_entries), ("F", tab.f_entries)):
        for (i, j) in sorted(entries):
            lead = tab.leading_exponent(i, j)
            tails = " ; ".join(
                f"({','.join(str(x) for x in exp)})={localized_to_text(c)}"
                for exp, c in sorted(entries[(i, j)].items())
            )
            lines.append(
                f"{side} {i} {j} -> leading:{lead}:1" + (f" ; tail: {tails}" if tails else "")
            )
    blob = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cache-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_cache_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read cache {path}: {e}") from e


def read_cache(path: str) -> Tuple[Dict[str, str], StructureTable]:
    """Parse a structure cache; an unreadable or malformed one is a ConfigError."""
    return _parse_cache(read_cache_bytes(path), path)


def _order_text(order: ConvexOrder) -> str:
    return f"{order.datum.label} with w0 {','.join(str(x) for x in order.word)}"


def table_of(order: ConvexOrder, blob: bytes, path: str) -> StructureTable:
    """The table of a cache's bytes, which must be written for ``order``."""
    table = _parse_cache(blob, path)[1]
    if table.order != order:
        raise ConfigError(
            f"cache {path} was built for {_order_text(table.order)}, not for {_order_text(order)}"
        )
    return table


def _parse_cache(blob: bytes, path: str) -> Tuple[Dict[str, str], StructureTable]:
    try:
        lines = blob.decode().splitlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"cannot read cache {path}: {e}") from e
    if not lines or lines[0] != CACHE_VERSION:
        raise ConfigError(
            f"cache version mismatch: expected {CACHE_VERSION!r}, got {lines[:1]!r}"
        )
    meta: Dict[str, str] = {}
    e_entries: Dict = {}
    f_entries: Dict = {}
    s_keys: Tuple[int, ...] = ()
    units: List[QFraction] = []
    counts = {"E": Counter(), "F": Counter()}
    for n, ln in enumerate(lines[1:], 2):
        if not ln:
            continue
        try:
            if ln.startswith("omega_unit "):
                _, i_s, text = ln.split(" ", 2)
                if int(i_s) != len(units) + 1:
                    raise ValueError(f"omega_unit {i_s} out of order")
                units.append(QFraction(laurent_from_text(text)))
                continue
            if "=" in ln and "->" not in ln:
                k, _, v = ln.partition("=")
                meta[k] = v
                if k == "s_keys":
                    s_keys = tuple(int(x) for x in v.split(",")) if v else ()
                continue
            head, _, rest = ln.partition("->")
            side, i_s, j_s = head.split()
            if side not in ("E", "F"):
                raise ValueError(f"unknown side {side!r}")
            tail: Dict = {}
            parts = rest.split(";")
            for part in parts[1:]:
                part = part.strip()
                if part.startswith("tail:"):
                    part = part[5:].strip()
                if not part:
                    continue
                exp_s, _, coeff_s = part.partition("=")
                exp = tuple(int(x) for x in exp_s.strip("()").split(","))
                tail[exp] = localized_from_text(coeff_s, s_keys)
            key = (int(i_s), int(j_s))
            (e_entries if side == "E" else f_entries)[key] = tail
            counts[side][key] += 1
        except (ValueError, ArithmeticError, LookupError) as e:
            raise ConfigError(f"cache {path}: line {n} is malformed: {e}") from e
    try:
        word = tuple(int(x) for x in meta.get("w0", "").split(","))
        order = convex_order(meta.get("type", ""), word)
    except ValueError as e:
        raise ConfigError(f"cache {path} names no valid order: {e}") from e
    npos = order.datum.n_positive
    if len(units) != npos:
        raise ConfigError(f"cache {path} has {len(units)} omega_unit lines, not {npos}")
    # each side holds one entry for every pair 1 <= i < j <= npos and no other
    pairs = {(i, j) for j in range(2, npos + 1) for i in range(1, j)}
    for side, seen in counts.items():
        for i, j in sorted(pairs | set(seen)):
            count = seen[(i, j)]
            if (i, j) not in pairs:
                fault = f"an {side} entry {i} {j} outside 1 <= i < j <= {npos}"
            elif not count:
                fault = f"no {side} entry {i} {j}"
            elif count > 1:
                fault = f"{count} {side} entries {i} {j}"
            else:
                continue
            raise ConfigError(f"cache {path} has {fault}")
    return meta, StructureTable(order, s_keys, e_entries, f_entries, tuple(units))
