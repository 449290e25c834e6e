import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polyvem.mesh as mesh_module
import reference
from polyvem.geometry import Polygon
from polyvem.mesh import (
    DOMAIN_TAGS,
    MeshConformityError,
    MeshIOError,
    PolyMesh,
    ROTATED_T_FAMILIES,
    export_vtk,
    gen_rotated_T,
    gen_square_th1,
    gen_square_th2,
    gen_square_th3,
    io_read,
    io_write,
    reentrant_corners,
    split_edges,
    validate,
)
from test_mesh_checks import th2_split_at, th2_unsplit

SQUARE_GENERATORS = {
    "th1": gen_square_th1,
    "th2": gen_square_th2,
    "th3": gen_square_th3,
}


def cell_area_sum(mesh):
    return sum(Polygon(mesh.cell_vertices(i)).area for i in range(mesh.n_cells))


def on_unit_square_boundary(x, y, tol=1e-12):
    return min(x, 1.0 - x, y, 1.0 - y) < tol


def on_rotated_t_boundary(x, y, tol=1e-12):
    segs = [
        # (x0, x1, y0, y1) axis-aligned boundary segments of the T
        (-0.5, 0.5, -0.5, -0.5),
        (-0.5, -0.5, -0.5, 0.0),
        (0.5, 0.5, -0.5, 0.0),
        (-0.5, -0.25, 0.0, 0.0),
        (0.25, 0.5, 0.0, 0.0),
        (-0.25, -0.25, 0.0, 1.0),
        (0.25, 0.25, 0.0, 1.0),
        (-0.25, 0.25, 1.0, 1.0),
    ]
    for x0, x1, y0, y1 in segs:
        if x0 == x1:
            if abs(x - x0) < tol and y0 - tol <= y <= y1 + tol:
                return True
        else:
            if abs(y - y0) < tol and x0 - tol <= x <= x1 + tol:
                return True
    return False


class TestTh1:
    def test_report_n4(self):
        report = validate(gen_square_th1(4))
        assert report.min_edge_over_h < 0.2
        assert report.min_rho > 0.0

    def test_area_n4(self):
        assert cell_area_sum(gen_square_th1(4)) == pytest.approx(1.0, abs=1e-10)

    def test_h_halves(self):
        h4 = gen_square_th1(4).h
        h8 = gen_square_th1(8).h
        assert abs(h8 / (h4 / 2.0) - 1.0) < 0.2

    def test_has_hanging_vertices(self):
        mesh = gen_square_th1(4)
        assert any(len(cell) > 4 for cell in mesh.cells)

    def test_interface_gap_n4(self):
        # traces {i/4} and {j/5} interleave with a smallest gap of 0.05
        report = validate(gen_square_th1(4))
        assert report.min_edge == pytest.approx(0.05, rel=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gen_square_th1(1)


class TestTh2:
    def test_short_edges_are_squared_lengths(self):
        mesh = gen_square_th2(4)
        for ci in range(mesh.n_cells):
            v = mesh.cell_vertices(ci)
            assert len(v) == 6
            lengths = np.hypot(*((np.roll(v, -1, axis=0) - v).T))
            # consecutive pieces (2k, 2k+1) partition one original edge
            for k in range(3):
                a, b = lengths[2 * k], lengths[2 * k + 1]
                he = a + b
                assert min(a, b) == pytest.approx(he**2, rel=1e-10)

    def test_anchor_is_lexicographic_minimum(self):
        mesh = gen_square_th2(4)
        for ci in range(mesh.n_cells):
            v = mesh.cell_vertices(ci)
            for k in range(3):
                p, s, q = v[2 * k], v[2 * k + 1], v[(2 * k + 2) % 6]
                anchor = min((tuple(p), tuple(q)))
                he = np.hypot(*(q - p))
                d = np.hypot(s[0] - anchor[0], s[1] - anchor[1])
                assert d == pytest.approx(he**2, rel=1e-10)

    def test_cell_and_vertex_counts(self):
        mesh = gen_square_th2(4)
        assert mesh.n_cells == 2 * 16
        assert mesh.n_vertices == (2 * 4 + 1) ** 2

    def test_area(self):
        assert cell_area_sum(gen_square_th2(8)) == pytest.approx(1.0, abs=1e-10)

    def test_min_edge_order_h_squared(self):
        report = validate(gen_square_th2(16))
        assert report.min_edge == pytest.approx((1.0 / 16.0) ** 2, rel=1e-12)
        # min_edge / h^2 = (1/N^2) / (2/N^2) = 1/2, independent of N
        assert report.min_edge / report.h**2 == pytest.approx(0.5, rel=1e-12)
        assert report.min_rho > 0.1

    def test_unsplit_triangles(self):
        mesh = th2_unsplit(4)
        assert all(len(cell) == 3 for cell in mesh.cells)
        assert mesh.n_cells == 32
        validate(mesh)


class TestTh3:
    def test_valid_and_area(self):
        mesh = gen_square_th3(4)
        report = validate(mesh)
        assert cell_area_sum(mesh) == pytest.approx(1.0, abs=1e-10)
        assert report.min_rho > 0.0

    def test_mixed_cell_types(self):
        mesh = gen_square_th3(4)
        sizes = {len(cell) for cell in mesh.cells}
        assert any(s == 3 for s in sizes)  # triangles above the interface
        assert any(s >= 4 for s in sizes)  # quads below

    def test_interior_edges_shared_by_two(self):
        mesh = gen_square_th3(8)
        topo = mesh.topology
        for (a, b), count in zip(topo.edges.tolist(), topo.counts.tolist()):
            assert count in (1, 2)
            if count == 1:
                assert mesh.boundary_vertex[a] and mesh.boundary_vertex[b]


class TestRotatedT:
    def test_domain_area_oracle(self):
        # bar (-0.5,0.5)x(-0.5,0) plus stem (-0.25,0.25)x(0,1)
        bar = 1.0 * 0.5
        stem = 0.5 * 1.0
        assert bar + stem == pytest.approx(1.0)
        for family in ROTATED_T_FAMILIES:
            assert cell_area_sum(gen_rotated_T(family, 8)) == pytest.approx(
                bar + stem, abs=1e-10
            )

    def test_reentrant_corners_th4(self):
        corners = reentrant_corners(gen_rotated_T("th4", 16))
        assert len(corners) == 2
        found = sorted((round(p.x, 12), round(p.y, 12)) for p in corners)
        assert found == [(-0.25, 0.0), (0.25, 0.0)]

    def test_th5_small_interface_edges(self):
        report = validate(gen_rotated_T("th5", 16))
        assert report.min_edge_over_h < 0.1

    def test_th7_is_polygonal(self):
        mesh = gen_rotated_T("th7", 8)
        # offset bricks acquire hanging vertices: cells beyond quads
        assert max(len(cell) for cell in mesh.cells) >= 6
        validate(mesh)

    def test_th7_merges_two_spellings_of_one_interface_vertex(self):
        # the stem's y = 0.5 on x = 0 is linspace(0, 1, 97)[48] = 0.5 on the
        # left half and linspace(0, 1, 99)[49] = 0.49999999999999994 on the
        # right; times th7's y scale 2 * 48 * 49 both round to 2352, so they
        # are one vertex.  Merging only equal coordinates leaves two, and
        # cell 3527 is then not simple
        mesh = gen_rotated_T("th7", 96)
        report = validate(mesh)
        assert report.vertex_count == 14457
        near = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1] - 0.5) <= 1e-12
        assert near.sum() == 1
        assert report.min_edge_over_h == pytest.approx(0.014430750636456808, rel=1e-12)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError, match="family"):
            gen_rotated_T("th9", 8)
        with pytest.raises(ValueError, match="even"):
            gen_rotated_T("th4", 7)
        with pytest.raises(ValueError):
            gen_rotated_T("th4", 2)

    def test_default_study_resolutions_accepted(self):
        for n in (16, 30, 62, 130):
            gen_rotated_T("th4", n)
        for n in (16, 28, 60, 132):
            gen_rotated_T("th7", n)


ALL_GENERATORS = [
    ("th1", lambda n: gen_square_th1(n)),
    ("th2", lambda n: gen_square_th2(n)),
    ("th3", lambda n: gen_square_th3(n)),
    ("th4", lambda n: gen_rotated_T("th4", n)),
    ("th5", lambda n: gen_rotated_T("th5", n)),
    ("th6", lambda n: gen_rotated_T("th6", n)),
    ("th7", lambda n: gen_rotated_T("th7", n)),
]


class TestAllGenerators:
    @pytest.mark.parametrize("name,gen", ALL_GENERATORS)
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_validates_with_positive_rho(self, name, gen, n):
        report = validate(gen(n))
        assert report.min_edge > 0.0
        assert report.min_rho > 0.0

    @pytest.mark.parametrize("name,gen", ALL_GENERATORS)
    def test_refinement_monotonicity(self, name, gen):
        hs = [gen(n).h for n in (4, 8, 16, 32)]
        assert all(h2 < h1 for h1, h2 in zip(hs, hs[1:]))

    @pytest.mark.parametrize("name,gen", ALL_GENERATORS)
    def test_boundary_flags_match_domain_boundary(self, name, gen):
        mesh = gen(8)
        on_boundary = (
            on_unit_square_boundary
            if mesh.domain_tag == "unit_square"
            else on_rotated_t_boundary
        )
        for vid, (x, y) in enumerate(mesh.vertices):
            assert mesh.boundary_vertex[vid] == on_boundary(x, y), (vid, x, y)


class TestValidateFailures:
    def test_mesh_without_cells(self):
        mesh = PolyMesh.from_cells([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [], "custom")
        with pytest.raises(MeshConformityError, match="^mesh has no cells$"):
            validate(mesh)

    def test_reversed_cell_named(self):
        mesh = th2_unsplit(2)
        cells = list(mesh.cells)
        cells[3] = cells[3][::-1]
        bad = PolyMesh.from_cells(mesh.vertices.copy(), cells, mesh.domain_tag)
        with pytest.raises(MeshConformityError, match="cell 3"):
            validate(bad)

    def test_overlapping_cells_area_mismatch(self):
        # duplicate a cell but flip its orientation flag by renaming: the
        # duplicated cell overlaps its twin, inflating the covered area
        mesh = th2_unsplit(2)
        cells = list(mesh.cells) + [mesh.cells[0]]
        bad = PolyMesh.from_cells(mesh.vertices.copy(), cells, mesh.domain_tag)
        with pytest.raises(MeshConformityError, match="coverage|direction|shared"):
            validate(bad)

    def test_inconsistent_boundary_flag(self, tmp_path):
        # an in-memory mesh derives its flags; a file brings its own
        mesh = th2_unsplit(2)
        flags = mesh.boundary_vertex.tolist()
        flags[flags.index(False)] = True
        with pytest.raises(MeshIOError, match="boundary flag"):
            io_read(_write_doc(tmp_path, mesh, boundary=flags))


def _write_doc(tmp_path, mesh, **changes):
    """Write mesh as a JSON file with some of its entries replaced."""
    path = tmp_path / "mesh.json"
    io_write(path, mesh)
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))
    return path


def _with_cell(mesh, i, cell):
    cells = list(mesh.cells)
    cells[i] = cell
    return PolyMesh.from_cells(mesh.vertices.copy(), cells, mesh.domain_tag)


# cell 2 of th2_unsplit(2) is (1, 4, 5); vertices 0, 1, 4
# lie on y = 0, and 0, 4, 7, 8 are the corners (0,0), (1,0), (0,1), (1,1)
BROKEN_CELLS = {
    "repeat": ((1, 4, 1), "cell 2 repeats a vertex index"),
    "range": ((1, 4, 9), "cell 2 references a vertex out of range"),
    "negative": ((1, 4, -1), "cell 2 references a vertex out of range"),
    "short": ((1, 4), "cell 2 is not a valid polygon: polygon needs at least 3 vertices, got 2"),
    "clockwise": (
        (5, 4, 1),
        "cell 2 is not a valid polygon: polygon is clockwise; vertices must be counter-clockwise",
    ),
    "degenerate": ((0, 1, 4), "cell 2 is not a valid polygon: polygon is degenerate (zero area)"),
    "bowtie": (
        (0, 4, 7, 8),
        "cell 2 is not a valid polygon: polygon is not simple: edges 1 and 3 intersect",
    ),
}


@pytest.mark.parametrize("kind", sorted(BROKEN_CELLS))
def test_validate_names_the_broken_cell(kind):
    cell, message = BROKEN_CELLS[kind]
    mesh = th2_unsplit(2)
    assert mesh.cells[2] == (1, 4, 5)
    with pytest.raises(MeshConformityError) as info:
        validate(_with_cell(mesh, 2, cell))
    assert str(info.value) == message


# two faulty cells: validate names cell 0, whatever the faults' order in the checks
FIRST_FAULTY_CELL = {
    "clockwise-then-repeat": (
        [(0, 3, 2, 1), (1, 4, 5, 2, 4)],
        "cell 0 is not a valid polygon: polygon is clockwise; vertices must be counter-clockwise",
    ),
    "repeat-then-bowtie": ([(0, 1, 2, 0, 3), (1, 4, 2, 5)], "cell 0 repeats a vertex index"),
}


@pytest.mark.parametrize("kind", sorted(FIRST_FAULTY_CELL))
def test_validate_names_the_first_faulty_cell(kind):
    cells, message = FIRST_FAULTY_CELL[kind]
    mesh = PolyMesh.from_cells([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]], cells, "custom")
    with pytest.raises(MeshConformityError) as info:
        validate(mesh)
    assert str(info.value) == message


class TestMeshIO:
    def test_round_trip_bit_exact(self, tmp_path):
        mesh = gen_square_th1(4)
        path = tmp_path / "mesh.json"
        io_write(path, mesh)
        back = io_read(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert back.cells == mesh.cells
        assert np.array_equal(back.boundary_vertex, mesh.boundary_vertex)
        assert back.domain_tag == mesh.domain_tag
        assert back.h == pytest.approx(mesh.h, rel=1e-15)
        # a second write must produce identical bytes
        path2 = tmp_path / "mesh2.json"
        io_write(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_errors(self, tmp_path):
        mesh = gen_square_th2(2)
        path = tmp_path / "mesh.json"
        io_write(path, mesh)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(MeshIOError, match="line"):
            io_read(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps({"version": 2, "domain": "unit_square", "vertices": [], "cells": [], "boundary": []}))
        with pytest.raises(MeshIOError, match="version"):
            io_read(path)

    def test_bad_domain(self, tmp_path):
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps({"version": 1, "domain": "moebius", "vertices": [], "cells": [], "boundary": []}))
        with pytest.raises(MeshIOError, match="domain"):
            io_read(path)

    def test_out_of_range_cell(self, tmp_path):
        path = tmp_path / "mesh.json"
        doc = {
            "version": 1,
            "domain": "custom",
            "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "cells": [[0, 1, 7]],
            "boundary": [True, True, True],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshIOError, match="out of range"):
            io_read(path)

    def test_repeated_cell_rejected(self, tmp_path):
        mesh = th2_unsplit(2)
        path = _write_doc(tmp_path, mesh, cells=[*map(list, mesh.cells), list(mesh.cells[0])])
        a, b = mesh.cells[0][:2]
        with pytest.raises(MeshIOError, match=rf"^edge \({a}, {b}\) is traversed twice"):
            io_read(path)
        # the message is the one validate gives an in-memory mesh
        with pytest.raises(MeshConformityError, match=rf"^edge \({a}, {b}\) is traversed twice"):
            validate(PolyMesh.from_cells(mesh.vertices, [*mesh.cells, mesh.cells[0]], "custom"))

    @pytest.mark.parametrize("bad_id", [0.7, 1.0, True, "1"])
    def test_non_integer_vertex_id_rejected(self, tmp_path, bad_id):
        # int() would read 0.7 as 0 and true as 1 without an error
        mesh = th2_unsplit(2)
        cells = [*map(list, mesh.cells)]
        cells[1] = [bad_id, *cells[1][1:]]
        path = _write_doc(tmp_path, mesh, cells=cells)
        with pytest.raises(MeshIOError, match=r"^cell 1 has a vertex id that is not an integer"):
            io_read(path)

    def test_vertex_id_beyond_int64_rejected(self, tmp_path):
        mesh = th2_unsplit(2)
        cells = [*map(list, mesh.cells)]
        cells[1] = [2**70, *cells[1][1:]]
        with pytest.raises(MeshIOError, match="malformed mesh arrays"):
            io_read(_write_doc(tmp_path, mesh, cells=cells))

    def test_boundary_that_is_not_a_list_rejected(self, tmp_path):
        # len() of a JSON true raised a TypeError
        path = _write_doc(tmp_path, th2_unsplit(2), boundary=True)
        with pytest.raises(MeshIOError, match="^boundary must be a list of 9 JSON booleans$"):
            io_read(path)

    def test_nested_boundary_flags_rejected(self, tmp_path):
        # [[true], [false], ...] broadcast against the (n,) flags to an (n, n)
        # comparison and blamed vertex 2, whose flag is correct
        mesh = gen_square_th1(4)
        nested = [[flag] for flag in mesh.boundary_vertex.tolist()]
        path = _write_doc(tmp_path, mesh, boundary=nested)
        with pytest.raises(MeshIOError, match="^boundary must be a list of .* JSON booleans$"):
            io_read(path)

    def test_integer_boundary_flags_rejected(self, tmp_path):
        mesh = th2_unsplit(2)
        path = _write_doc(tmp_path, mesh, boundary=[int(f) for f in mesh.boundary_vertex])
        with pytest.raises(MeshIOError, match="^boundary must be a list of 9 JSON booleans$"):
            io_read(path)

    def test_edge_of_three_cells_rejected(self, tmp_path):
        # three triangles on the edge (0, 1): two of them must run along it
        # in the same direction
        doc = {
            "version": 1,
            "domain": "custom",
            "vertices": [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]],
            "cells": [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
            "boundary": [True] * 5,
        }
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshIOError, match=r"^edge \(0, 1\) is traversed twice"):
            io_read(path)

    def test_vtk_export(self, tmp_path):
        mesh = gen_square_th2(4)
        field = np.linspace(-1.0, 1.0, mesh.n_vertices) / 3.0
        path = tmp_path / "mesh.vtk"
        export_vtk(path, mesh, field=field)
        text = path.read_text()
        assert "DATASET POLYDATA" in text
        assert f"POINTS {mesh.n_vertices} double" in text
        assert f"POLYGONS {mesh.n_cells}" in text
        assert "POINT_DATA" in text
        # every number parses back with float() to the exact value written
        lines = text.splitlines()
        start = lines.index(f"POINTS {mesh.n_vertices} double") + 1
        points = np.array(
            [[float(t) for t in line.split()] for line in lines[start : start + mesh.n_vertices]]
        )
        assert np.array_equal(points[:, :2], mesh.vertices)
        assert np.array_equal(points[:, 2], np.zeros(mesh.n_vertices))
        start = lines.index("LOOKUP_TABLE default") + 1
        values = [float(line) for line in lines[start : start + mesh.n_vertices]]
        assert np.array_equal(np.array(values), field)

    def test_vtk_field_shape_checked(self, tmp_path):
        mesh = gen_square_th2(2)
        with pytest.raises(ValueError, match="shape"):
            export_vtk(tmp_path / "m.vtk", mesh, field=np.zeros(3))
        assert not (tmp_path / "m.vtk").exists()


class TestPolyMeshModel:
    def test_vertices_read_only(self):
        mesh = gen_square_th2(2)
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 42.0

    @pytest.mark.parametrize("name", ["cell_ids", "cell_sizes", "boundary_vertex"])
    def test_arrays_read_only(self, name):
        mesh = gen_square_th2(2)
        with pytest.raises(ValueError):
            getattr(mesh, name)[0] = 0

    def test_from_cells_matches_the_arrays(self):
        mesh = gen_rotated_T("th7", 8)
        again = PolyMesh.from_cells(mesh.vertices, mesh.cells, mesh.domain_tag)
        assert np.array_equal(again.cell_ids, mesh.cell_ids)
        assert np.array_equal(again.cell_sizes, mesh.cell_sizes)
        assert again.cell_ids.dtype == again.cell_sizes.dtype == np.int64
        assert [tuple(mesh.cell(i)) for i in range(mesh.n_cells)] == list(mesh.cells)

    def test_identity_equality(self):
        # the generated __eq__ compared the arrays and raised; meshes are
        # immutable, so identity is equality and they are hashable
        mesh = th2_unsplit(2)
        other = th2_unsplit(2)
        assert mesh == mesh
        assert mesh != other
        assert {mesh, mesh, other} == {mesh, other}



def mesh_digest(mesh):
    """sha256 prefix of everything a generator decides about a mesh."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
    h.update(np.array([len(c) for c in mesh.cells], dtype="<i8").tobytes())
    h.update(np.array([i for c in mesh.cells for i in c], dtype="<i8").tobytes())
    h.update(np.asarray(mesh.boundary_vertex, dtype="u1").tobytes())
    h.update(repr(float(mesh.h)).encode())
    h.update(mesh.domain_tag.encode())
    return h.hexdigest()[:16]


# pinned digests of generator output: any change to the vertex numbering,
# the cell order or a single coordinate bit changes them
GENERATOR_DIGESTS = [
    ("th1", 16, lambda: gen_square_th1(16), "167c4805e47d6005"),
    ("th1", 64, lambda: gen_square_th1(64), "818a9eb86a719f93"),
    ("th2", 24, lambda: gen_square_th2(24), "0d78ca62be4265c5"),
    ("th2", 96, lambda: gen_square_th2(96), "8e27292ad3db48e9"),
    ("th3", 32, lambda: gen_square_th3(32), "43e423d35b47c04c"),
    ("th3", 128, lambda: gen_square_th3(128), "5e83d81b1289fe1c"),
    ("th4", 16, lambda: gen_rotated_T("th4", 16), "9479271e46a203c3"),
    ("th5", 16, lambda: gen_rotated_T("th5", 16), "634f949b781cb3a9"),
    ("th6", 16, lambda: gen_rotated_T("th6", 16), "d856461de4cdf86b"),
    ("th7", 16, lambda: gen_rotated_T("th7", 16), "db9f9a6948c9f1b8"),
    ("th7", 132, lambda: gen_rotated_T("th7", 132), "c9b85e24c8c1ad31"),
    ("th2-unsplit", 8, lambda: th2_unsplit(8), "082e1d73f5bb94cc"),
    ("th7-split-1e-6", 16, lambda: split_edges(gen_rotated_T("th7", 16), 1e-6), "bfe1305cfc01d359"),
]


@pytest.mark.parametrize(
    "make, digest",
    [(g[2], g[3]) for g in GENERATOR_DIGESTS],
    ids=[f"{g[0]}-N{g[1]}" for g in GENERATOR_DIGESTS],
)
def test_generators_bit_identical(make, digest):
    assert mesh_digest(make()) == digest


# pinned digests of the writers' bytes: JSON, then VTK, with a nodal field
# or, as `polyvem mesh` writes it, without.  The benchmark only checks that
# io_write(io_read(x)) reproduces x, which a self-consistent change of format
# would pass.  th3 N=128 is the largest file pair of the benchmark's
# mesh_th3; the split th2 mesh has coordinates of 17 significant digits
WRITER_DIGESTS = [
    ("th1", 16, lambda: gen_square_th1(16), True, "dfe52862c9252864", "ba05beff95f4fdeb"),
    ("th2", 24, lambda: gen_square_th2(24), True, "3bca66e098b7ab25", "3aea42b1852b7d09"),
    ("th3", 32, lambda: gen_square_th3(32), True, "bd4591218a070a97", "9fd9cc9a5cedf3b8"),
    ("th7", 16, lambda: gen_rotated_T("th7", 16), True, "b18e091528a3fabd", "7cdf8027a468e6a7"),
    ("th3", 128, lambda: gen_square_th3(128), False, "c3abff8c283939e9", "462241de8890970d"),
    ("th2-split-1e-9", 16, lambda: th2_split_at(16, 1e-9), True, "ec0ec87d844bcd18", "02b856be8219759d"),
]


@pytest.mark.parametrize(
    "make, with_field, json_digest, vtk_digest",
    [g[2:] for g in WRITER_DIGESTS],
    ids=[f"{g[0]}-N{g[1]}" for g in WRITER_DIGESTS],
)
def test_writers_bit_identical(make, with_field, json_digest, vtk_digest, tmp_path):
    mesh = make()
    field = np.linspace(-1.0, 1.0, mesh.n_vertices) / 3.0 if with_field else None
    io_write(tmp_path / "m.json", mesh)
    export_vtk(tmp_path / "m.vtk", mesh, field=field)
    for name, digest in (("m.json", json_digest), ("m.vtk", vtk_digest)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16] == digest, name


def assert_writers_match_the_reference(mesh, field, tmp_path):
    for write, args in ((io_write, ()), (export_vtk, ()), (export_vtk, (field,))):
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        write(ours, mesh, *args)
        getattr(reference, write.__name__)(theirs, mesh, *args)
        assert ours.read_bytes() == theirs.read_bytes(), (write.__name__, args)


# -0.0, the smallest subnormal, a float whose repr switches to exponent
# notation, one of 17 significant digits, and the non-finite values
SPECIAL_FLOATS = [-0.0, 5e-324, 1e22, 1.0 / 3.0, float("nan"), float("inf"), float("-inf")]


@st.composite
def meshes_and_fields(draw):
    floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    n = draw(st.integers(0, 16))
    coords = np.array(draw(st.lists(floats, min_size=2 * n, max_size=2 * n)), dtype=float)
    ids = st.integers(0, n - 1)
    cells = draw(st.lists(st.lists(ids, min_size=3, max_size=12), max_size=6)) if n else []
    mesh = PolyMesh.from_cells(coords.reshape(n, 2), cells, draw(st.sampled_from(DOMAIN_TAGS)))
    field = np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=float)
    return mesh, field


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(meshes_and_fields())
def test_writers_match_the_reference(tmp_path, case):
    assert_writers_match_the_reference(*case, tmp_path)


# the writers' corner cases: (vertices, cells, nodal field) of a "custom" mesh
CORNER_CASES = {
    "no-cells": ([[0.0, 0.0], [1.0, 0.0]], [], [0.0, 0.0]),
    "non-finite": (
        [[np.nan, np.inf], [-np.inf, 0.0], [0.5, 1.0]], [(0, 1, 2)], [np.nan, np.inf, -0.0]
    ),
    # no such mesh passes validate, but the writers take any PolyMesh
    # whose ids are in range
    "empty-cells": ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(), (0, 1, 2), ()], [1.0] * 3),
    "signed-zeros": ([[0.0, -0.0], [-0.0, 0.0], [1.0, np.nan]], [(0, 1, 2)], [0.0] * 3),
    "size-above-ids": ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1, 2, 0, 1)], [1.0] * 3),
}


def corner_case(name):
    vertices, cells, field = CORNER_CASES[name]
    return PolyMesh.from_cells(vertices, cells, "custom"), np.array(field, dtype=float)


def test_mesh_without_cells_is_written_as_the_reference(tmp_path):
    mesh, field = corner_case("no-cells")
    assert_writers_match_the_reference(mesh, field, tmp_path)
    io_write(tmp_path / "m.json", mesh)
    assert '"cells": [], ' in (tmp_path / "m.json").read_text()
    export_vtk(tmp_path / "m.vtk", mesh)
    assert (tmp_path / "m.vtk").read_text().endswith("0.0\nPOLYGONS 0 0\n")


def test_non_finite_coordinates_are_spelled_as_each_format_does(tmp_path):
    mesh, field = corner_case("non-finite")
    assert_writers_match_the_reference(mesh, field, tmp_path)
    io_write(tmp_path / "m.json", mesh)
    assert '"vertices": [[NaN, Infinity], [-Infinity, 0.0], [0.5, 1.0]]' in (
        tmp_path / "m.json"
    ).read_text()
    export_vtk(tmp_path / "m.vtk", mesh)
    assert "\nnan inf 0.0\n-inf 0.0 0.0\n0.5 1.0 0.0\n" in (tmp_path / "m.vtk").read_text()


def test_empty_cells_are_written_as_the_reference(tmp_path):
    assert_writers_match_the_reference(*corner_case("empty-cells"), tmp_path)


def test_zeros_of_both_signs_keep_their_own_spelling(tmp_path):
    # the writers spell each distinct coordinate once; 0.0 == -0.0, so the
    # distinct values must be told apart by their bits, not their values
    mesh, field = corner_case("signed-zeros")
    assert_writers_match_the_reference(mesh, field, tmp_path)
    io_write(tmp_path / "m.json", mesh)
    assert '"vertices": [[0.0, -0.0], [-0.0, 0.0], [1.0, NaN]]' in (tmp_path / "m.json").read_text()
    export_vtk(tmp_path / "m.vtk", mesh)
    assert "\n0.0 -0.0 0.0\n-0.0 0.0 0.0\n1.0 nan 0.0\n" in (tmp_path / "m.vtk").read_text()


def test_cell_size_above_every_vertex_id_is_written_as_the_reference(tmp_path):
    # the VTK rows spell each cell's size with the vertex-id table, so the
    # table must reach 5 here, though the largest id is 2
    mesh, field = corner_case("size-above-ids")
    assert_writers_match_the_reference(mesh, field, tmp_path)
    export_vtk(tmp_path / "m.vtk", mesh)
    assert (tmp_path / "m.vtk").read_text().endswith("POLYGONS 1 6\n5 0 1 2 0 1\n")


# The writers write every block ROW_CHUNK rows at a time.  The tests below
# shrink the chunk to a few rows, so that chunks start and end inside each
# block and on its empty rows.


@pytest.mark.parametrize("chunk", [1, 2])
@pytest.mark.parametrize("name", list(CORNER_CASES))
def test_corner_cases_are_written_as_the_reference_in_small_chunks(
    name, chunk, tmp_path, monkeypatch
):
    monkeypatch.setattr(mesh_module, "ROW_CHUNK", chunk)
    assert_writers_match_the_reference(*corner_case(name), tmp_path)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(meshes_and_fields(), st.integers(1, 4))
def test_writers_match_the_reference_in_small_chunks(tmp_path, case, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "ROW_CHUNK", chunk)
        assert_writers_match_the_reference(*case, tmp_path)


@pytest.mark.parametrize("offset", [-1, 0, 1, 5], ids=["below", "at", "above", "above-two"])
def test_row_counts_around_a_chunk_are_written_as_the_reference(offset, tmp_path, monkeypatch):
    # every block holds ROW_CHUNK + offset rows (5 is one above two chunks);
    # the cell sizes run 0, 3, 5, 0, so a chunk of cells starts and ends on an empty one
    chunk = 4
    monkeypatch.setattr(mesh_module, "ROW_CHUNK", chunk)
    rows = chunk + offset
    vertices = np.column_stack([np.resize(SPECIAL_FLOATS, rows), np.arange(rows) / 3.0])
    sizes = np.resize([0, 3, 5, 0], rows)
    cells = [[(r + j) % rows for j in range(k)] for r, k in enumerate(sizes)]
    mesh = PolyMesh.from_cells(vertices, cells, "custom")
    assert_writers_match_the_reference(mesh, np.resize(SPECIAL_FLOATS[::-1], rows), tmp_path)


@pytest.mark.parametrize("N", [128, 256])
def test_writers_hold_one_chunk_at_a_time(N, tmp_path):
    # the memory a write takes above the mesh and its cached tables is
    # bounded by one chunk of rows, not by the mesh.  Whole-file joins took
    # +3.65 MiB (io_write) and +5.48 MiB (export_vtk with a field) at N=128,
    # +14.5 and +21.8 MiB at N=256
    mesh = gen_square_th3(N)
    field = np.linspace(-1.0, 1.0, mesh.n_vertices) / 3.0
    for write, args in ((io_write, ()), (export_vtk, (field,))):
        write(tmp_path / "m", mesh, *args)  # builds the cached tables
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write(tmp_path / "m", mesh, *args)
            extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert extra < 2 * 2**20, (write.__name__, extra)


@pytest.mark.parametrize(
    "cells, bad", [([(), (0, 1, 40)], 1), ([(0, -3, 1)], 0)], ids=["too-large", "negative"]
)
def test_vertex_ids_out_of_range_are_rejected_before_writing(cells, bad, tmp_path):
    # io_write used to fail inside np.bincount on a negative id, and to
    # write 41 boundary flags for 2 vertices, a file io_read rejects
    message = f"^cell {bad} references a vertex out of range$"
    mesh = PolyMesh.from_cells([[0.0, 0.0], [1.0, 0.0]], cells, "custom")
    for write in (io_write, export_vtk):
        with pytest.raises(MeshConformityError, match=message):
            write(tmp_path / "m", mesh)
        assert not (tmp_path / "m").exists()
    for derived in ("topology", "boundary_vertex", "geometry"):
        with pytest.raises(MeshConformityError, match=message):
            getattr(mesh, derived)
