"""Serialization for points, trees, study records, and fitted slopes.

CSV floats are written with 17 significant digits so a re-run under the
same seed reproduces every numeric column byte for byte (runtime_ms is
wall-clock and exempt).  Each artifact embeds the configuration that
produced it and a format version.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
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


@dataclass(frozen=True)
class RunConfig:
    """What produced an artifact: the subcommand and its parameters."""

    command: str
    params: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {"command": self.command, "params": dict(self.params)}


def envelope(kind: str, config: RunConfig | None, payload) -> str:
    doc = {
        "artifact": kind,
        "version": ARTIFACT_VERSION,
        "config": config.to_jsonable() if config else None,
        "result": payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_header(config: RunConfig | None) -> list[str]:
    lines = [f"# locmst-artifact v{ARTIFACT_VERSION}"]
    if config is not None:
        lines.append(
            "# config: " + json.dumps(config.to_jsonable(), sort_keys=True)
        )
    return lines


def point_set_to_csv(ps: PointSet, config: RunConfig | None = None) -> str:
    lines = _csv_header(config)
    lines.append("index,x,y")
    for i, (x, y) in enumerate(ps.coords):
        lines.append(f"{i},{fmt_float(x)},{fmt_float(y)}")
    return "\n".join(lines) + "\n"


def mst_result_to_json(
    result: MstResult,
    alpha: float,
    weight_kind: str,
    config: RunConfig | None = None,
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


def mst_result_to_csv(result: MstResult, config: RunConfig | None = None) -> str:
    lines = _csv_header(config)
    lines.append("i,j,base_weight")
    for i, j, w in zip(result.edge_i, result.edge_j, result.base_weights):
        lines.append(f"{int(i)},{int(j)},{fmt_float(w)}")
    return "\n".join(lines) + "\n"


def records_to_csv(records, config: RunConfig | None = None) -> str:
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


def scaling_fits_to_json(fits, config: RunConfig | None = None) -> str:
    return envelope("scaling_fits", config, [asdict(f) for f in fits])


def bounds_to_json(results, config: RunConfig | None = None) -> str:
    def one(r: BoundsResult) -> dict:
        return {
            "alpha": r.alpha,
            "eps1": r.eps1,
            "eps2": r.eps2,
            "c1": r.c1,
            "c2": r.c2,
            "beta_low": r.beta_low,
            "A_low": r.A_low,
            "beta_up": r.beta_up,
            "A_up": r.A_up,
        }

    if isinstance(results, BoundsResult):
        payload = one(results)
    else:
        payload = [one(r) for r in results]
    return envelope("bounds", config, payload)


def write_text(path, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8")
