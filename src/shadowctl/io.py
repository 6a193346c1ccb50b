"""Result serialization: CSV, JSON reports, a compact binary dump, .dat files.

CSV and ``.dat`` files write floats with 17 significant digits and JSON
reports use the shortest round-trip form, so values read back through
``float()`` exactly.  The trajectory and control CSVs share one writer for
space-time grids, which formats each time node and cell centre once and
each block of whole time slices with one ``%`` (see ``_write_grid``).  The
binary layout is:

====== ======================= =======================================
offset type                    meaning
====== ======================= =======================================
0      4 bytes                 magic ``b"SHCT"``
4      uint32 (little endian)  format version, currently 1
8      uint32                  number of fields
12     uint32                  number of time slices per field
16     uint32                  number of cells per slice
20     uint32                  byte length L of the name block
24     L bytes                 UTF-8 field names, sorted, newline-separated
24+L   float64[...]            fields concatenated in name order, row-major
====== ======================= =======================================
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .pde import ControlField, Trajectory

__all__ = [
    "FormatError", "write_trajectory_csv", "write_control_csv",
    "write_rows_csv", "write_fields_binary", "read_fields_binary",
    "write_json_report", "write_series_dat", "trajectory_fields",
    "control_fields",
]

_MAGIC = b"SHCT"
_VERSION = 1
_CSV_BLOCK_ROWS = 1024


class FormatError(ValueError):
    """Raised when a binary file does not match the expected layout."""


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _write_text(path: str | Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _write_grid(path: str | Path, header: str, nodes: np.ndarray,
                cell_centers: np.ndarray, fields) -> Path:
    """CSV under ``header`` with one row ``t,x,<fields>`` per (time node,
    cell centre), time slice by time slice; each field has shape
    (len(nodes), len(cell_centers)).  All values are written with 17
    significant digits.

    Every node and centre is formatted once, as a ``"%.17g,"`` string.  The
    rows go out in blocks of whole time slices, at most ``_CSV_BLOCK_ROWS``
    rows and at least one slice, so the text never sits in memory whole;
    the ``t,x,`` prefixes of a block's rows are joined inside that block
    only.  Each block is one ``%`` of the row template repeated once per
    row, over the prefixes and field values interleaved row by row."""
    width = 1 + len(fields)
    t_cells = ["%.17g," % t for t in nodes.tolist()]
    x_cells = ["%.17g," % x for x in cell_centers.tolist()]
    row = "%s" + ",".join(["%.17g"] * len(fields)) + "\n"
    step = max(1, _CSV_BLOCK_ROWS // len(x_cells))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(t_cells), step):
            block = slice(start, start + step)
            prefixes = [t + x for t in t_cells[block] for x in x_cells]
            args = [None] * (len(prefixes) * width)
            args[0::width] = prefixes
            for j, field in enumerate(fields, 1):
                args[j::width] = field[block].ravel().tolist()
            fh.write(row * len(prefixes) % tuple(args))
    return path


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> Path:
    """One row per (time node, cell): ``t,x,y,z``; a shadow trajectory's z
    is the constant field z = xi."""
    return _write_grid(path, "t,x,y,z", traj.tgrid.nodes,
                       traj.grid.cell_centers, (traj.y, traj.z))


def write_control_csv(path: str | Path, control: ControlField) -> Path:
    """Rows ``t,x,h`` at step midpoint convention: slice m acts on [t_m, t_{m+1})."""
    return _write_grid(path, "t,x,h", control.tgrid.nodes[:-1],
                       control.grid.cell_centers, (control.values,))


def write_rows_csv(path: str | Path, rows: list[dict]) -> Path:
    """One line per row under a header of the first row's keys; floats at
    17 significant digits, integers and booleans as ``str`` writes them."""
    lines = [",".join(rows[0])]
    lines.extend(",".join(_fmt(v) if isinstance(v, float) else str(v)
                          for v in row.values()) for row in rows)
    return _write_text(path, "\n".join(lines) + "\n")


def write_fields_binary(path: str | Path, fields: dict[str, np.ndarray]) -> Path:
    """Dump named 2-d float arrays of one common shape; names sorted for determinism."""
    if not fields:
        raise ValueError("fields must be non-empty")
    names = sorted(fields)
    for k in names:
        if "\n" in k:
            raise ValueError(f"field name {k!r} contains a newline, which "
                             "separates names in the header")
    arrays = [np.ascontiguousarray(fields[k], dtype=np.float64) for k in names]
    shape = arrays[0].shape
    if len(shape) != 2:
        raise ValueError(f"fields must be 2-d arrays, got shape {shape}")
    for k, a in zip(names, arrays):
        if a.shape != shape:
            raise ValueError(f"field {k!r} has shape {a.shape}, expected {shape}")
    # a name with no UTF-8 encoding raises here, before a file is opened
    header = "\n".join(names).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", _VERSION, len(names), *shape))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for a in arrays:
            fh.write(a.astype("<f8").tobytes())
    return path


def read_fields_binary(path: str | Path) -> dict[str, np.ndarray]:
    """Read a dump written by :func:`write_fields_binary`.

    Any file that does not match the layout raises :class:`FormatError`.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise FormatError(f"{path}: not a field dump (bad magic)")
    if len(raw) < 24:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    version, n_fields, n_slices, n_cells = struct.unpack_from("<IIII", raw, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (header_len,) = struct.unpack_from("<I", raw, 20)
    if 24 + header_len > len(raw):
        raise FormatError(f"{path}: name block of {header_len} bytes runs past "
                          f"the end of the file")
    try:
        names = raw[24:24 + header_len].decode().split("\n")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: field names are not UTF-8") from None
    if len(names) != n_fields:
        raise FormatError(f"{path}: header names {len(names)} != count {n_fields}")
    if len(set(names)) != n_fields:
        raise FormatError(f"{path}: header repeats a field name")
    offset = 24 + header_len
    per_field = n_slices * n_cells * 8
    expected = offset + n_fields * per_field
    if len(raw) != expected:
        raise FormatError(f"{path}: size {len(raw)} != expected {expected}")
    out: dict[str, np.ndarray] = {}
    for k in names:
        a = np.frombuffer(raw, dtype="<f8", count=n_slices * n_cells, offset=offset)
        out[k] = a.reshape(n_slices, n_cells).copy()
        offset += per_field
    return out


def _json_ready(value):
    """Copy of a report with numpy values made plain and non-finite floats
    spelled as the strings ``"inf"``, ``"-inf"`` and ``"nan"``."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else repr(float(value))
    if value is None or isinstance(value, (str, int)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def write_json_report(path: str | Path, report: dict) -> Path:
    """Serialize a nested report dict as standard JSON.

    Floats are written in their shortest exact round-trip form; ±inf and nan,
    which JSON cannot express, become the strings ``"inf"``, ``"-inf"`` and
    ``"nan"``.  Values of an unsupported type raise ``TypeError``.
    """
    text = json.dumps(_json_ready(report), indent=2, allow_nan=False)
    return _write_text(path, text + "\n")


def write_series_dat(path: str | Path, abscissa: np.ndarray, values: np.ndarray,
                     header: str = "t value") -> Path:
    """Two-column file for a scalar time series or sweep curve."""
    abscissa = np.asarray(abscissa, dtype=float)
    values = np.asarray(values, dtype=float)
    if abscissa.shape != values.shape or abscissa.ndim != 1:
        raise ValueError(
            f"mismatched series shapes {abscissa.shape} vs {values.shape}")
    lines = [f"# {header}"]
    lines.extend(f"{_fmt(a)} {_fmt(v)}" for a, v in zip(abscissa, values))
    return _write_text(path, "\n".join(lines) + "\n")


def trajectory_fields(traj: Trajectory) -> dict[str, np.ndarray]:
    """Field dict for :func:`write_fields_binary`."""
    return {"y": traj.y, "z": traj.z}


def control_fields(control: ControlField) -> dict[str, np.ndarray]:
    """Field dict for :func:`write_fields_binary`."""
    return {"h": control.values}
