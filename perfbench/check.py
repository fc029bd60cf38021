"""Output checker: strict JSON, the program's own cross-checks, and a
reference file for exact fields and floats.

Exact fields are compared through a SHA-256 digest of a canonical form.
Structure outputs are mapped back through the seeded node labelling
first, so one reference entry per (tree, question) serves every seed.
Floats (solution values and CSV column sums) are compared within
REL_TOL relative, ABS_TOL absolute; they are recorded for the default
seed only, because their inputs are drawn from the seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from typing import Dict, List, Optional, Sequence

REL_TOL = 1e-9
ABS_TOL = 1e-12


class Mismatch(Exception):
    """A request whose output fails a check; the message is the reason."""


def _reject_constant(name):
    raise Mismatch(f"non-standard JSON constant {name}")


def strict_json(text: str) -> dict:
    """The single JSON document a command prints, parsed strictly."""
    if not text.endswith("\n") or text.count("\n") != 1:
        raise Mismatch("stdout is not exactly one line")
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise Mismatch("stdout is not a JSON object")
    return doc


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def _finite(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise Mismatch(f"{what} is not a finite number: {v!r}")
    return float(v)


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


# --------------------------------------------------------- canonical forms


def _unlabel(perm: Sequence[int]):
    inv = {new: old for old, new in enumerate(perm, 1)}

    def node(v: int) -> int:
        return inv[v]

    def vector(vec: Sequence[int]) -> List[int]:
        out = [0] * len(vec)
        for j, e in enumerate(vec, 1):
            out[inv[j] - 1] = e
        return out

    return node, vector


def canonical_info(doc: dict, perm) -> dict:
    node, _ = _unlabel(perm)
    out = dict(doc)
    for k in ("tips", "upsilon", "phi", "omega"):
        out[k] = sorted(node(v) for v in doc[k])
    out["center"] = sorted(f"d{node(int(s[1:]))}" for s in doc["center"])
    return out


def canonical_basis(doc: dict, perm) -> dict:
    node, vector = _unlabel(perm)
    out = dict(doc)
    out["basis"] = sorted(
        (node(m["d"]), vector(m["exps"]), m["coeff"]) for m in doc["basis"]
    )
    return out


def canonical_ideals(doc: dict, perm) -> dict:
    _, vector = _unlabel(perm)
    out = dict(doc)
    if "ideals" in doc:
        out["ideals"] = sorted(
            (i["dim"], sorted(vector(r) for r in i["roots"]), i["maximal"])
            for i in doc["ideals"]
        )
    return out


# ------------------------------------------------------------------ checks


def _check_info(doc, req, n):
    _expect(doc["closure"] is True, "closure is not true")
    dims = doc["central_series_dims"]
    _expect(bool(dims) and dims[0] == doc["dim"], "central_series_dims[0] != dim")
    _expect(len(dims) == doc["nilpotence"], "len(central_series_dims) != nilpotence")
    _expect(doc["n"] == n, "n does not match the tree")


def _check_basis(doc, req, n):
    _expect(doc["dim"] == len(doc["basis"]), "dim != number of basis monomials")


def _check_ideals(doc, req, n):
    count = doc["count"]
    _expect(isinstance(count, int) and count >= 1, f"bad count {count!r}")
    _expect(doc["oracle_checked"] is ("--oracle" in req.argv), "oracle_checked flag wrong")
    _expect(doc["maximal_count"] >= 1, "no maximal ideal")
    if "--count-only" in req.argv:
        _expect("ideals" not in doc, "count-only printed a listing")
    else:
        _expect(len(doc["ideals"]) == count, "count != listing length")
        for ideal in doc["ideals"]:
            _expect(ideal["dim"] == len(ideal["roots"]), "ideal dim != number of roots")


def _check_bch(doc, req, n):
    k = int(req.argv[-1])
    _expect(doc["k"] == k and len(doc["a"]) == len(doc["theta"]) == k + 1, "bch length != k+1")


def _check_first(doc, req, n):
    _finite(doc["u"], "u")
    _expect(doc.get("verified") is True, "verified is not true")
    if "--emit-eta" in req.argv:
        _expect(len(doc["eta"]) == n, "eta length != n")


def _check_heat(doc, req, n):
    _finite(doc["u"], "u")
    _expect(doc["verify_modes"] is True, "verify_modes is not true")
    want = (req.meta["modes"] + 1) ** n
    _expect(doc["modes_used"] == want, f"modes_used {doc['modes_used']} != {want}")


# numpy >= 2 prints scalars as np.float64(...); the CSV coordinate columns
# carry that form at the commit that introduced the benchmark.  The cells
# are parsed, checked against the grid and counted, never silently passed.
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _cell(text: str):
    """(value, is_numpy_repr) of one CSV cell."""
    m = _NUMPY_REPR.fullmatch(text)
    try:
        return float(m.group(1) if m else text), m is not None
    except ValueError:
        raise Mismatch(f"CSV cell {text!r} is not a number") from None


def grid_axis(a: float, grid: int) -> List[float]:
    if grid == 1:
        return [-a]
    step = 2.0 * a / (grid - 1)
    return [-a + i * step for i in range(grid)]


def csv_stats(text: str, req, n) -> Dict[str, float]:
    """Row count grid^n, every cell a finite number, coordinates on the
    grid in row-major order, time equal to the --eval time."""
    rows = list(csv.reader(io.StringIO(text)))
    _expect(bool(rows), "empty CSV")
    _expect(rows[0] == ["t"] + [f"x{i}" for i in range(1, n + 1)] + ["u"], "bad CSV header")
    body = rows[1:]
    grid = req.meta["grid"]
    _expect(len(body) == grid ** n, f"CSV has {len(body)} rows, want grid^n = {grid ** n}")
    axes = [grid_axis(a, grid) for a in req.meta["box"]]
    total = total_abs = 0.0
    repr_cells = 0
    for k, row in enumerate(body):
        _expect(len(row) == n + 2, "CSV row has the wrong width")
        cells = [_cell(v) for v in row]
        _expect(not cells[0][1] and not cells[-1][1], "CSV t or u column is not a plain number")
        vals = [_finite(v, "CSV value") for v, _ in cells]
        repr_cells += sum(flag for _, flag in cells)
        _expect(vals[0] == req.meta["t"], "CSV time column differs from --eval t")
        rest = k
        for d in range(n - 1, -1, -1):
            want = axes[d][rest % grid]
            rest //= grid
            _expect(abs(vals[1 + d] - want) <= 1e-12 * max(1.0, abs(want)), "CSV coordinate off the grid")
        total += vals[-1]
        total_abs += abs(vals[-1])
    return {"rows": len(body), "sum": total, "abs_sum": total_abs, "numpy_repr_cells": repr_cells}


CHECKS = {
    "info": _check_info,
    "basis": _check_basis,
    "ideals": _check_ideals,
    "bch": _check_bch,
    "solve-first": _check_first,
    "solve-heat": _check_heat,
}
CANONICAL = {"info": canonical_info, "basis": canonical_basis, "ideals": canonical_ideals}


def observe(req, perm, rc: int, stdout: str, csv_text: Optional[str]) -> dict:
    """Check one request and return what the reference records for it:
    ``exact`` digests, ``floats`` and the number of CSV rows."""
    if rc != 0:
        raise Mismatch(f"exit code {rc}")
    doc = strict_json(stdout)
    n = len(perm) if perm else 0
    try:
        CHECKS[req.kind](doc, req, n)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise Mismatch(f"malformed output: {type(exc).__name__}: {exc}") from None
    exact: Dict[str, str] = {}
    floats: Dict[str, List[float]] = {}
    rows = repr_cells = 0
    if req.kind in CANONICAL:
        exact[req.label] = digest(CANONICAL[req.kind](doc, perm))
    elif req.kind == "bch":
        exact[req.label] = digest(doc)
    elif req.kind == "solve-first":
        if "eta" in doc:
            exact[f"eta <{req.tree}>"] = digest(doc["eta"])
        floats[req.label] = [doc["u"]]
    elif req.kind == "solve-heat":
        vals = [doc["u"]]
        if "grid" in req.meta:
            if csv_text is None:
                raise Mismatch("CSV file missing")
            stats = csv_stats(csv_text, req, n)
            rows, repr_cells = stats["rows"], stats["numpy_repr_cells"]
            vals += [stats["sum"], stats["abs_sum"]]
        floats[req.label] = vals
    return {"exact": exact, "floats": floats, "csv_rows": rows, "numpy_repr_cells": repr_cells}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def compare(seen: dict, reference: dict) -> None:
    """Raise Mismatch where a recorded entry differs from the reference;
    entries the reference does not hold pass."""
    for key, value in seen["exact"].items():
        want = reference["exact"].get(key)
        if want is not None and want != value:
            raise Mismatch(f"exact output differs from the reference for {key}")
    for key, values in seen["floats"].items():
        want = reference["floats"].get(key)
        if want is None:
            continue
        if len(want) != len(values) or not all(_close(a, b) for a, b in zip(values, want)):
            raise Mismatch(f"floats {values} differ from the reference {want} for {key}")


def load_reference(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
