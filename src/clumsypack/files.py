"""Reading and writing arrangements as YAML documents.

The document carries the board side, the shape (family name plus integer
parameters, or an explicit cell list for custom shapes), the mode, and the
placement list.  All coordinates are 1-based and written column before row.
Deserializing a serialized arrangement reproduces it exactly; the one
normalization applied on write is that custom shapes are re-anchored to
their lexicographically least cell, with placements shifted to compensate,
so equal cell sets always serialize the same way.  A shape that its family
and parameters do not rebuild is refused on write.  ``ArrangementFile``
holds each row as a (rotation, anchor_col, anchor_row) triple, so it hashes;
rows are mappings only in the body PyYAML reads, which ``_document`` checks.

Every file is written without PyYAML: ``dumps`` prints the document with
f-strings, byte for byte what PyYAML's safe representer writes for the same
body in key order.  It refuses any document ``loads`` would refuse, by running
the same check (``_document``) on its body.  PyYAML only reads.  ``loads``
reads the layout ``dumps`` writes for a named family with one regular
expression (``_parse_canonical``): the five keys in order, block lists or
``[]``, rows of exactly rotation, anchor_col and anchor_row, and integers in
plain decimal.  It gives the values PyYAML would, each row as a triple.
Any other text, custom shapes' files included, goes through PyYAML,
imported on first use, and both routes end in ``_document``.
"""

from __future__ import annotations

import re

from .geometry import FAMILIES, Cell, _Record, make_shape, rotate
from .packing import MODES, Arrangement, Board, Placement


# The text dumps writes for a named family, and nothing else: a YAML 1.1
# resolver reads other spellings (07, 1_000, +5, 0x1F, quotes, flow style)
# with their own meanings, so those go to PyYAML.  Each repeated group starts
# with a literal and each integer ends at a newline, so matching is linear.
_INT = r"(?:0|-?[1-9][0-9]*)"
_CANONICAL = re.compile(
    rf"board_n: ({_INT})\n"
    rf"family: ({'|'.join(map(re.escape, FAMILIES))})\n"
    rf"params:(?: \[\]\n|\n((?:- {_INT}\n)+))"
    rf"mode: ({'|'.join(MODES)})\n"
    r"placements:(?: \[\]\n|\n("
    rf"(?:- rotation: {_INT}\n  anchor_col: {_INT}\n  anchor_row: {_INT}\n)+))")


class FileFormatError(ValueError):
    """The document does not follow the arrangement file format."""


class ArrangementFile(_Record):
    """In-memory image of one arrangement document."""

    __slots__ = ("board_n", "family", "params", "mode", "placements", "custom_cells")
    board_n: int
    family: str
    params: tuple[int, ...]
    mode: str
    placements: tuple[tuple[int, int, int], ...]
    custom_cells: tuple[Cell, ...] | None
    _defaults = {"custom_cells": None}


def from_arrangement(arrangement: Arrangement) -> ArrangementFile:
    """Describe an arrangement as a document, re-anchoring custom shapes.

    Raises FileFormatError when the shape's family and parameters do not
    rebuild its cells and anchor, as for a rotated piece, which keeps its
    family metadata: its file would load as another shape, or not at all.
    """
    shape = arrangement.shape
    custom_cells = tuple(sorted(shape.cells)) if shape.family == "custom" else None
    try:
        # A custom shape comes back anchored at its least cell.
        rebuilt = make_shape(shape.family, shape.params, custom_cells=custom_cells)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"cannot write the shape: {exc}") from None
    if custom_cells is None and rebuilt != shape:
        raise FileFormatError(
            f"cannot write the shape: {shape.family}{tuple(shape.params)} "
            "has other cells or another anchor")
    placements = arrangement.placements
    if rebuilt.anchor != shape.anchor:
        # Moving the anchor must not move any piece: shift each placement
        # by the offset between the two rotated anchors.
        fixed = []
        for p in placements:
            a_old = rotate(shape, p.rotation).anchor
            a_new = rotate(rebuilt, p.rotation).anchor
            fixed.append(Placement(
                p.rotation,
                Cell(p.anchor_pos.col + a_new.col - a_old.col,
                     p.anchor_pos.row + a_new.row - a_old.row)))
        placements = tuple(fixed)
    rows = tuple((p.rotation, p.anchor_pos.col, p.anchor_pos.row) for p in placements)
    return ArrangementFile(arrangement.board.n, shape.family,
                           tuple(shape.params), arrangement.mode, rows,
                           custom_cells)


def to_arrangement(doc: ArrangementFile) -> Arrangement:
    shape = make_shape(doc.family, doc.params, custom_cells=doc.custom_cells)
    placements = tuple(Placement(r, Cell(c, w)) for r, c, w in doc.placements)
    return Arrangement(Board(doc.board_n), shape, doc.mode, placements)


def dumps(doc: ArrangementFile) -> str:
    """The document as YAML, byte for byte what PyYAML's safe representer
    writes for the same body in key order.

    Raises FileFormatError for any document ``loads`` would refuse, found by
    running the same check on the document's body.
    """
    body = {"board_n": doc.board_n, "family": doc.family, "params": list(doc.params),
            "mode": doc.mode, "placements": list(doc.placements)}
    if doc.custom_cells is not None:
        body["custom_cells"] = [list(cell) for cell in doc.custom_cells]
    try:
        rows = _document(body).placements
    except FileFormatError as exc:
        raise FileFormatError(f"cannot write the document: {exc}") from None
    # The check leaves ints, a family name and a mode, which YAML prints as
    # they are, and a custom shape with at least one cell.
    params = "".join(f"\n- {p}" for p in doc.params) or " []"
    placements = "".join(
        f"\n- rotation: {r}\n  anchor_col: {c}\n  anchor_row: {w}"
        for r, c, w in rows) or " []"
    text = (f"board_n: {doc.board_n}\nfamily: {doc.family}\nparams:{params}\n"
            f"mode: {doc.mode}\nplacements:{placements}\n")
    if doc.custom_cells is not None:
        text += "custom_cells:" + "".join(
            f"\n- - {col}\n  - {row}" for col, row in body["custom_cells"]) + "\n"
    return text


def _parse_canonical(text: str) -> dict | None:
    """What ``yaml.load`` gives for a text in the layout ``dumps`` writes for
    a named family, with each row as a (rotation, anchor_col, anchor_row)
    triple, or None for any other text."""
    match = _CANONICAL.fullmatch(text)
    if match is None:
        return None
    board_n, family, params, mode, rows = match.groups()
    # A params line splits into "-" and the value; a row into "-",
    # "rotation:", r, "anchor_col:", c, "anchor_row:" and w.
    words = (rows or "").split()
    return {
        "board_n": int(board_n),
        "family": family,
        "params": [int(p) for p in (params or "").split()[1::2]],
        "mode": mode,
        "placements": list(zip(map(int, words[2::7]), map(int, words[4::7]),
                               map(int, words[6::7]))),
    }


def _need_int(value, where: str) -> int:
    if type(value) is not int:
        raise FileFormatError(f"{where} must be an integer, got {value!r}")
    return value


_ROW_KEYS = {"rotation", "anchor_col", "anchor_row"}


def _document(body) -> ArrangementFile:
    """The document a body holds, its rows PyYAML's mappings or triples;
    raises FileFormatError for the first value that breaks the format."""
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
    if mode not in MODES:
        raise FileFormatError(
            f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")

    placements = body["placements"]
    if not isinstance(placements, list):
        raise FileFormatError("placements must be a list")
    rows = []
    for i, row in enumerate(placements, start=1):
        if type(row) is dict and row.keys() == _ROW_KEYS:
            row = (row["rotation"], row["anchor_col"], row["anchor_row"])
        elif type(row) is not tuple or len(row) != 3:
            raise FileFormatError(
                f"placement {i} must have exactly the keys rotation, "
                "anchor_col, anchor_row")
        rows.append(row)
        rotation, col, r = row
        # One test passes a valid row; only a failing row is taken apart
        # to say what is wrong with it.
        if (type(rotation) is int and type(col) is int and type(r) is int
                and 0 <= rotation <= 3):
            continue
        rotation = _need_int(rotation, f"placement {i} rotation")
        if not 0 <= rotation <= 3:
            raise FileFormatError(f"placement {i} rotation must be in 0..3, got {rotation}")
        _need_int(col, f"placement {i} anchor_col")
        _need_int(r, f"placement {i} anchor_row")

    custom_cells: tuple[Cell, ...] | None = None
    if family == "custom":
        if "custom_cells" not in body:
            raise FileFormatError("family custom requires custom_cells")
        raw_cells = body["custom_cells"]
        if not isinstance(raw_cells, list) or not raw_cells:
            raise FileFormatError("custom_cells must be a non-empty list of [col, row] pairs")
        cells: list[Cell] = []
        seen: set[Cell] = set()
        for i, pair in enumerate(raw_cells, start=1):
            if not isinstance(pair, list) or len(pair) != 2:
                raise FileFormatError(
                    f"custom_cells entry {i} must be a [col, row] pair")
            cell = Cell(_need_int(pair[0], f"custom_cells entry {i} col"),
                        _need_int(pair[1], f"custom_cells entry {i} row"))
            # Checked here, not left to custom(), so the message names the entry.
            if cell in seen:
                raise FileFormatError(
                    f"custom_cells entry {i} repeats cell ({cell.col}, {cell.row})")
            seen.add(cell)
            cells.append(cell)
        custom_cells = tuple(cells)
    elif "custom_cells" in body:
        raise FileFormatError("custom_cells is only allowed for family custom")

    try:
        make_shape(family, params, custom_cells=custom_cells)
    except ValueError as exc:
        raise FileFormatError(f"shape parameters invalid: {exc}") from None
    return ArrangementFile(board_n, family, params, mode,
                           tuple(rows), custom_cells)


def loads(text: str) -> ArrangementFile:
    body = _parse_canonical(text)
    if body is None:
        import yaml
        try:
            body = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise FileFormatError(f"not valid YAML: {exc}") from None
    return _document(body)


def save_arrangement(arrangement: Arrangement, path: str) -> None:
    # Serialise before opening, so a refused document leaves the file as it was.
    text = dumps(from_arrangement(arrangement))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_arrangement(path: str) -> Arrangement:
    with open(path, encoding="utf-8") as fh:
        return to_arrangement(loads(fh.read()))
