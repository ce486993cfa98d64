"""Serialization for points, trees, study records, and fitted slopes.

CSV floats are written with 17 significant digits so a re-run under the
same seed reproduces every numeric column byte for byte (runtime_ms is
wall-clock and exempt).  Each artifact embeds the configuration that
produced it and a format version.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .bounds import BoundsResult
from .mst import MstResult
from .sampling import PointSet

ARTIFACT_VERSION = 1

RECORD_COLUMNS = (
    "experiment",
    "n",
    "alpha",
    "weight_kind",
    "seed",
    "replicate",
    "mst_weight",
    "max_degree",
    "g_alpha",
    "s_alpha",
    "runtime_ms",
)


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def envelope(kind: str, config: dict | None, payload) -> str:
    doc = {
        "artifact": kind,
        "version": ARTIFACT_VERSION,
        "config": config,
        "result": payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_header(config: dict | None) -> list[str]:
    lines = [f"# locmst-artifact v{ARTIFACT_VERSION}"]
    if config is not None:
        lines.append("# config: " + json.dumps(config, sort_keys=True))
    return lines


def point_set_to_csv(ps: PointSet, config: dict | None = None) -> str:
    lines = _csv_header(config)
    lines.append("index,x,y")
    for i, (x, y) in enumerate(ps.coords):
        lines.append(f"{i},{fmt_float(x)},{fmt_float(y)}")
    return "\n".join(lines) + "\n"


def mst_result_to_json(
    result: MstResult,
    alpha: float,
    weight_kind: str,
    config: dict | None = None,
) -> str:
    payload = {
        "n": result.n,
        "alpha": alpha,
        "weight_kind": weight_kind,
        "total_weight": result.total_weight(alpha),
        "edges": [
            [int(i), int(j), float(w)]
            for i, j, w in zip(result.edge_i, result.edge_j,
                               result.base_weights)
        ],
        "degrees": result.degrees.tolist(),
    }
    return envelope("mst", config, payload)


def mst_result_to_csv(result: MstResult, config: dict | None = None) -> str:
    lines = _csv_header(config)
    lines.append("i,j,base_weight")
    for i, j, w in zip(result.edge_i, result.edge_j, result.base_weights):
        lines.append(f"{int(i)},{int(j)},{fmt_float(w)}")
    return "\n".join(lines) + "\n"


def records_to_csv(records, config: dict | None = None) -> str:
    lines = _csv_header(config)
    lines.append(",".join(RECORD_COLUMNS))
    for rec in records:
        cells = []
        for col in RECORD_COLUMNS:
            v = rec[col]
            if isinstance(v, float):
                cells.append(fmt_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def scaling_fits_to_json(fits, config: dict | None = None) -> str:
    return envelope("scaling_fits", config, [asdict(f) for f in fits])


def bounds_to_json(results, config: dict | None = None) -> str:
    if isinstance(results, BoundsResult):
        payload = asdict(results)
    else:
        payload = [asdict(r) for r in results]
    return envelope("bounds", config, payload)


def write_text(path, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8")
