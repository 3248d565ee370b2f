"""Reading and writing arrangements as YAML documents.

The document carries the board side, the shape (family name plus integer
parameters, or an explicit cell list for custom shapes), the mode, and the
placement list.  All coordinates are 1-based and written column before row.
Deserializing a serialized arrangement reproduces it exactly; the one
normalization applied on write is that custom shapes are re-anchored to
their lexicographically least cell, with placements shifted to compensate,
so equal cell sets always serialize the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .geometry import FAMILIES, Cell, Shape, make_shape, rotate
from .packing import Arrangement, Board, Placement


# libyaml's C loader and dumper when PyYAML was built with it, else pure Python.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class FileFormatError(ValueError):
    """The document does not follow the arrangement file format."""


@dataclass(frozen=True)
class ArrangementFile:
    """In-memory image of one arrangement document."""

    board_n: int
    family: str
    params: tuple[int, ...]
    mode: str
    placements: tuple[dict, ...]
    custom_cells: tuple[Cell, ...] | None = field(default=None)


def from_arrangement(arrangement: Arrangement) -> ArrangementFile:
    """Describe an arrangement as a document, re-anchoring custom shapes."""
    shape = arrangement.shape
    placements = arrangement.placements
    custom_cells: tuple[Cell, ...] | None = None
    if shape.family == "custom":
        custom_cells = tuple(sorted(shape.cells))
        least = min(shape.cells)
        if shape.anchor != least:
            # Moving the anchor must not move any piece: shift each
            # placement by the offset between the two rotated anchors.
            reanchored = Shape(shape.cells, least)
            fixed = []
            for p in placements:
                a_old = rotate(shape, p.rotation).anchor
                a_new = rotate(reanchored, p.rotation).anchor
                fixed.append(Placement(
                    p.rotation,
                    Cell(p.anchor_pos.col + a_new.col - a_old.col,
                         p.anchor_pos.row + a_new.row - a_old.row)))
            placements = tuple(fixed)
    rows = tuple({"rotation": p.rotation,
                  "anchor_col": p.anchor_pos.col,
                  "anchor_row": p.anchor_pos.row} for p in placements)
    return ArrangementFile(arrangement.board.n, shape.family,
                           tuple(shape.params), arrangement.mode, rows,
                           custom_cells)


def to_arrangement(doc: ArrangementFile) -> Arrangement:
    shape = make_shape(doc.family, doc.params, custom_cells=doc.custom_cells)
    placements = tuple(
        Placement(row["rotation"], Cell(row["anchor_col"], row["anchor_row"]))
        for row in doc.placements)
    return Arrangement(Board(doc.board_n), shape, doc.mode, placements)


def dumps(doc: ArrangementFile) -> str:
    body: dict = {
        "board_n": doc.board_n,
        "family": doc.family,
        "params": list(doc.params),
        "mode": doc.mode,
        "placements": [
            {"rotation": row["rotation"],
             "anchor_col": row["anchor_col"],
             "anchor_row": row["anchor_row"]}
            for row in doc.placements],
    }
    if doc.family == "custom":
        body["custom_cells"] = [[c.col, c.row] for c in doc.custom_cells or ()]
    return yaml.dump(body, Dumper=_Dumper, sort_keys=False)


def _need_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FileFormatError(f"{where} must be an integer, got {value!r}")
    return value


def loads(text: str) -> ArrangementFile:
    try:
        body = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise FileFormatError(f"not valid YAML: {exc}") from None
    if not isinstance(body, dict):
        raise FileFormatError("top level must be a mapping")
    allowed = {"board_n", "family", "params", "mode", "placements", "custom_cells"}
    unknown = set(body) - allowed
    if unknown:
        raise FileFormatError(f"unknown field(s): {', '.join(sorted(map(str, unknown)))}")
    for key in ("board_n", "family", "params", "mode", "placements"):
        if key not in body:
            raise FileFormatError(f"missing required field {key!r}")

    board_n = _need_int(body["board_n"], "board_n")
    if board_n < 1:
        raise FileFormatError(f"board_n must be positive, got {board_n}")

    family = body["family"]
    if family not in FAMILIES:
        raise FileFormatError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")

    raw_params = body["params"]
    if not isinstance(raw_params, list):
        raise FileFormatError("params must be a list of integers")
    params = tuple(_need_int(p, "params entry") for p in raw_params)

    mode = body["mode"]
    if mode not in ("fixed", "free"):
        raise FileFormatError(f"mode must be 'fixed' or 'free', got {mode!r}")

    raw_placements = body["placements"]
    if not isinstance(raw_placements, list):
        raise FileFormatError("placements must be a list")
    placements = []
    for i, row in enumerate(raw_placements, start=1):
        if not isinstance(row, dict) or set(row) != {"rotation", "anchor_col",
                                                     "anchor_row"}:
            raise FileFormatError(
                f"placement {i} must have exactly the keys rotation, "
                "anchor_col, anchor_row")
        rotation = _need_int(row["rotation"], f"placement {i} rotation")
        if not 0 <= rotation <= 3:
            raise FileFormatError(
                f"placement {i} rotation must be in 0..3, got {rotation}")
        placements.append({
            "rotation": rotation,
            "anchor_col": _need_int(row["anchor_col"], f"placement {i} anchor_col"),
            "anchor_row": _need_int(row["anchor_row"], f"placement {i} anchor_row"),
        })

    custom_cells: tuple[Cell, ...] | None = None
    if family == "custom":
        if "custom_cells" not in body:
            raise FileFormatError("family custom requires custom_cells")
        raw_cells = body["custom_cells"]
        if not isinstance(raw_cells, list) or not raw_cells:
            raise FileFormatError("custom_cells must be a non-empty list of [col, row] pairs")
        cells = []
        for i, pair in enumerate(raw_cells, start=1):
            if not isinstance(pair, list) or len(pair) != 2:
                raise FileFormatError(
                    f"custom_cells entry {i} must be a [col, row] pair")
            cells.append(Cell(_need_int(pair[0], f"custom_cells entry {i} col"),
                              _need_int(pair[1], f"custom_cells entry {i} row")))
        custom_cells = tuple(cells)
    elif "custom_cells" in body:
        raise FileFormatError("custom_cells is only allowed for family custom")

    doc = ArrangementFile(board_n, family, params, mode, tuple(placements),
                          custom_cells)
    try:
        make_shape(doc.family, doc.params, custom_cells=doc.custom_cells)
    except ValueError as exc:
        raise FileFormatError(f"shape parameters invalid: {exc}") from None
    return doc


def save_arrangement(arrangement: Arrangement, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(from_arrangement(arrangement)))


def load_arrangement(path: str) -> Arrangement:
    with open(path, encoding="utf-8") as fh:
        return to_arrangement(loads(fh.read()))
