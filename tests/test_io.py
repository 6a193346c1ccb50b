"""Output-format tests: CSV layout, binary round trips, JSON syntax."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadowctl.io
from shadowctl.io import (FormatError, control_fields, read_fields_binary,
                          trajectory_fields, write_control_csv,
                          write_fields_binary, write_json_report,
                          write_rows_csv, write_series_dat,
                          write_trajectory_csv)
from shadowctl.mesh import Grid1D, TimeGrid
from shadowctl.pde import (ControlField, ShadowStepOperators, Trajectory,
                           constant_coefficients, solve_forward_linear)


@pytest.fixture()
def tiny_problem():
    grid = Grid1D(n_cells=4, omega_a=0.25, omega_b=0.75)
    tgrid = TimeGrid(horizon=0.4, n_steps=2)
    rng = np.random.default_rng(0)
    y = rng.standard_normal((3, 4))
    z = rng.standard_normal((3, 4))
    return grid, tgrid, Trajectory(grid, tgrid, 2.0, np.hstack([y, z]))


class TestCsv:
    def test_trajectory_layout(self, tiny_problem, tmp_path):
        grid, tgrid, traj = tiny_problem
        p = write_trajectory_csv(tmp_path / "traj.csv", traj)
        lines = p.read_text().splitlines()
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 1 + 3 * 4
        t, x, y, z = (float(v) for v in lines[1].split(","))
        assert t == 0.0
        assert x == 0.125
        assert y == traj.y[0, 0]
        assert z == traj.z[0, 0]
        # values survive the text round trip exactly (17 significant digits)
        last = [float(v) for v in lines[-1].split(",")]
        assert last[2] == traj.y[2, 3]

    def test_control_layout(self, tiny_problem, tmp_path):
        grid, tgrid, _ = tiny_problem
        control = ControlField(grid, tgrid, np.ones((2, 4)))
        p = write_control_csv(tmp_path / "control.csv", control)
        lines = p.read_text().splitlines()
        assert lines[0] == "t,x,h"
        assert len(lines) == 1 + 2 * 4   # one row per step, not per node

    def test_rows_layout(self, tmp_path):
        rows = [{"sigma": 1.0, "cost": 0.1 + 0.2, "iterations": 7,
                 "converged": True},
                {"sigma": 10.0, "cost": np.float64(1.0) / 3.0,
                 "iterations": 12, "converged": False}]
        p = write_rows_csv(tmp_path / "rows.csv", rows)
        lines = p.read_text().splitlines()
        assert lines[0] == "sigma,cost,iterations,converged"
        assert lines[1].endswith(",7,True")
        assert lines[2].endswith(",12,False")
        # floats survive the text round trip exactly (17 significant digits)
        for line, row in zip(lines[1:], rows):
            sigma, cost = (float(v) for v in line.split(",")[:2])
            assert (sigma, cost) == (row["sigma"], row["cost"])

    def test_column_writers_match_the_per_value_formatter(self, tmp_path,
                                                          monkeypatch):
        # blocks of 7 rows, so the 20 and 15 rows below span block edges
        self._check_column_writers(tmp_path, monkeypatch, block_rows=7)

    # the writers advance by whole 5-cell time slices: 3 rows is less than
    # a slice and 7 is not a multiple of one, so both give one-slice blocks;
    # 12 gives two-slice blocks and a short last one; 10**6 gives one block
    @pytest.mark.parametrize("block_rows", [3, 7, 12, 10**6])
    def test_column_writers_match_for_any_block_size(self, tmp_path,
                                                     monkeypatch, block_rows):
        self._check_column_writers(tmp_path, monkeypatch, block_rows)

    @staticmethod
    def _check_column_writers(tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(shadowctl.io, "_CSV_BLOCK_ROWS", block_rows)

        # the text the writers produced when they formatted value by value
        def fmt(value):
            return f"{float(value):.17g}"

        grid = Grid1D(n_cells=5, omega_a=0.1, omega_b=0.9)
        tgrid = TimeGrid(horizon=0.7, n_steps=3)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((4, 10)) * 10.0 ** rng.integers(-300, 300, (4, 10))
        u[0, :6] = [-0.0, 0.0, 5e-324, 1.0 / 3.0, 2.0, -1e-17]
        traj = Trajectory(grid, tgrid, 1.0, u)
        control = ControlField(grid, tgrid, u[:3, 2:7])
        t, x = tgrid.nodes, grid.cell_centers
        want_traj = ["t,x,y,z"] + [
            ",".join(fmt(v) for v in (t[m], x[i], traj.y[m, i], traj.z[m, i]))
            for m in range(4) for i in range(5)]
        want_control = ["t,x,h"] + [
            ",".join(fmt(v) for v in (t[m], x[i], control.values[m, i]))
            for m in range(3) for i in range(5)]
        got_traj = write_trajectory_csv(tmp_path / "traj.csv", traj).read_bytes()
        got_control = write_control_csv(tmp_path / "control.csv", control).read_bytes()
        assert got_traj == ("\n".join(want_traj) + "\n").encode()
        assert got_control == ("\n".join(want_control) + "\n").encode()

    def test_shadow_trajectory_writes_xi_as_constant_field(self, tmp_path):
        grid = Grid1D(n_cells=4, omega_a=0.25, omega_b=0.75)
        tgrid = TimeGrid(horizon=0.4, n_steps=2)
        u = np.random.default_rng(1).standard_normal((3, 5))
        full = np.hstack([u[:, :4], np.repeat(u[:, 4:], 4, axis=1)])
        got = write_trajectory_csv(tmp_path / "reduced.csv",
                                   Trajectory(grid, tgrid, np.inf, u))
        want = write_trajectory_csv(tmp_path / "full.csv",
                                    Trajectory(grid, tgrid, np.inf, full))
        assert got.read_bytes() == want.read_bytes()

    def test_parent_directories_created(self, tiny_problem, tmp_path):
        _, _, traj = tiny_problem
        p = write_trajectory_csv(tmp_path / "a" / "b" / "traj.csv", traj)
        assert p.exists()


class TestBinary:
    def test_round_trip(self, tiny_problem, tmp_path):
        _, _, traj = tiny_problem
        p = write_fields_binary(tmp_path / "fields.bin", trajectory_fields(traj))
        out = read_fields_binary(p)
        assert sorted(out) == ["y", "z"]
        assert np.array_equal(out["y"], traj.y)
        assert np.array_equal(out["z"], traj.z)

    def test_shadow_trajectory_round_trips_xi_as_constant_field(self, tmp_path):
        grid = Grid1D(n_cells=10)
        tgrid = TimeGrid(horizon=0.1, n_steps=5)
        ops = ShadowStepOperators(constant_coefficients(grid, tgrid, 0.1, 0.2, 0.3, 0.4))
        reduced = solve_forward_linear(ops, None, np.cos(np.pi * grid.cell_centers), [0.3])
        p = write_fields_binary(tmp_path / "reduced.bin", trajectory_fields(reduced))
        out = read_fields_binary(p)
        assert np.array_equal(out["y"], reduced.y)
        assert np.array_equal(out["z"], np.repeat(reduced.u[:, -1:], 10, axis=1))

    def test_control_helper_round_trip(self, tiny_problem, tmp_path):
        grid, tgrid, _ = tiny_problem
        control = ControlField(grid, tgrid, np.full((2, 4), 0.5))
        p = write_fields_binary(tmp_path / "h.bin", control_fields(control))
        out = read_fields_binary(p)
        assert np.array_equal(out["h"], control.values)

    def test_header_layout(self, tiny_problem, tmp_path):
        _, _, traj = tiny_problem
        p = write_fields_binary(tmp_path / "fields.bin", trajectory_fields(traj))
        raw = p.read_bytes()
        assert raw[:4] == b"SHCT"
        version, n_fields, n_slices, n_cells = struct.unpack_from("<IIII", raw, 4)
        assert (version, n_fields, n_slices, n_cells) == (1, 2, 3, 4)

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxx")
        with pytest.raises(FormatError, match="magic"):
            read_fields_binary(p)

    def test_rejects_truncated_payload(self, tiny_problem, tmp_path):
        _, _, traj = tiny_problem
        p = write_fields_binary(tmp_path / "fields.bin", trajectory_fields(traj))
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match="size"):
            read_fields_binary(p)

    def test_rejects_truncated_header(self, tmp_path):
        # magic and version intact, but no room for the name-block length
        p = tmp_path / "short.bin"
        p.write_bytes(b"SHCT" + struct.pack("<IIII", 1, 1, 1, 1))
        with pytest.raises(FormatError, match="truncated"):
            read_fields_binary(p)

    def test_rejects_non_utf8_names(self, tiny_problem, tmp_path):
        _, _, traj = tiny_problem
        p = write_fields_binary(tmp_path / "fields.bin", trajectory_fields(traj))
        raw = bytearray(p.read_bytes())
        raw[24] = 0xFF   # first byte of the name block
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            read_fields_binary(p)

    def test_rejects_name_block_past_end(self, tiny_problem, tmp_path):
        _, _, traj = tiny_problem
        p = write_fields_binary(tmp_path / "fields.bin", trajectory_fields(traj))
        raw = bytearray(p.read_bytes())
        raw[20:24] = struct.pack("<I", len(raw))
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="past the end"):
            read_fields_binary(p)

    def test_rejects_repeated_names(self, tmp_path):
        # "y\nz" rewritten to "y\ny" keeps the count and the file size; read
        # as one field "y" it would silently drop the first array
        p = write_fields_binary(tmp_path / "fields.bin",
                                {"y": np.zeros((3, 4)), "z": np.ones((3, 4))})
        raw = p.read_bytes()
        assert raw[24:27] == b"y\nz"
        p.write_bytes(raw[:26] + b"y" + raw[27:])
        with pytest.raises(FormatError, match="repeats"):
            read_fields_binary(p)

    def test_rejects_unknown_version(self, tiny_problem, tmp_path):
        _, _, traj = tiny_problem
        p = write_fields_binary(tmp_path / "fields.bin", trajectory_fields(traj))
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_fields_binary(p)

    @settings(max_examples=300, deadline=None)
    @given(tail=st.one_of(
        st.binary(max_size=96),
        st.binary(max_size=96).map(lambda t: struct.pack("<I", 1) + t)))
    def test_arbitrary_bytes_after_magic_raise_only_format_error(
            self, tmp_path_factory, tail):
        # half the examples carry the current version, so they get past the
        # version check into the name block and size checks
        p = tmp_path_factory.getbasetemp() / "fuzz.bin"
        p.write_bytes(b"SHCT" + tail)
        try:
            read_fields_binary(p)
        except FormatError:
            pass

    def test_rejects_empty_or_ragged_fields(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            write_fields_binary(tmp_path / "x.bin", {})
        with pytest.raises(ValueError, match="shape"):
            write_fields_binary(tmp_path / "x.bin",
                                {"a": np.zeros((2, 3)), "b": np.zeros((2, 4))})
        with pytest.raises(ValueError, match="2-d"):
            write_fields_binary(tmp_path / "x.bin", {"a": np.zeros(5)})

    @pytest.mark.parametrize("name, message", [("a\nb", "newline"),
                                               ("\udcff", "encode")])
    def test_rejects_a_name_its_reader_cannot_read(self, tmp_path, name, message):
        # newlines separate the names in the header, so "a\nb" would read
        # back as two names for one field; a lone surrogate has no UTF-8
        p = tmp_path / "x.bin"
        with pytest.raises(ValueError, match=message):
            write_fields_binary(p, {name: np.zeros((2, 3))})
        assert not p.exists()


class TestJson:
    def test_output_is_standard_json(self, tmp_path):
        report = {
            "name": "run-1",
            "converged": True,
            "iterations": 12,
            "cost": 0.1 + 0.2,
            "history": [1.0, 0.5, 0.25],
            "nested": {"sigma": 100.0, "note": 'quote " and \\ slash'},
            "missing": None,
            "empty_list": [],
            "empty_dict": {},
        }
        p = write_json_report(tmp_path / "report.json", report)
        parsed = json.loads(p.read_text())
        assert parsed["name"] == "run-1"
        assert parsed["converged"] is True
        assert parsed["iterations"] == 12
        assert parsed["cost"] == 0.1 + 0.2   # shortest repr: exact round trip
        assert parsed["history"] == [1.0, 0.5, 0.25]
        assert parsed["nested"]["note"] == 'quote " and \\ slash'
        assert parsed["missing"] is None

    def test_control_characters_are_escaped(self, tmp_path):
        report = {"name": "a\x01b", "tab\tkey": "line\nbreak\x1f"}
        parsed = json.loads(write_json_report(tmp_path / "ctl.json",
                                              report).read_text())
        assert parsed == report

    def test_numpy_scalars_and_arrays(self, tmp_path):
        report = {"value": np.float64(1.5), "count": np.int64(3),
                  "arr": np.array([1.0, 2.0])}
        parsed = json.loads(write_json_report(tmp_path / "np.json",
                                              report).read_text())
        assert parsed == {"value": 1.5, "count": 3, "arr": [1.0, 2.0]}

    def test_nonfinite_floats_become_strings(self, tmp_path):
        parsed = json.loads(write_json_report(
            tmp_path / "inf.json", {"bad": float("inf")}).read_text())
        assert parsed["bad"] == "inf"

    def test_unsupported_type_raises(self, tmp_path):
        with pytest.raises(TypeError, match="serialize"):
            write_json_report(tmp_path / "bad.json", {"x": object()})


class TestDatFiles:
    def test_series_layout(self, tmp_path):
        p = write_series_dat(tmp_path / "series.dat",
                             np.array([1.0, 10.0]), np.array([0.5, 0.05]),
                             header="sigma gap")
        lines = p.read_text().splitlines()
        assert lines[0] == "# sigma gap"
        assert len(lines) == 3

    def test_series_shape_checked(self, tmp_path):
        with pytest.raises(ValueError, match="shapes"):
            write_series_dat(tmp_path / "series.dat",
                             np.array([1.0, 2.0]), np.array([1.0]))
