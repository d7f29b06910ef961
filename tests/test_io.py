import json

import numpy as np
import pytest

from rwrs.io import envelope_json, parse_sheet_csv, rows_to_csv, sheet_to_csv
from rwrs.limit import default_cell_width, limit_sheet, local_time_field, simulate_levy_path
from rwrs.randomness import IncrementLaw, SeedScheme, StreamKind
from rwrs.walk import GridSpec, empirical_sheet, simulate_walk


def test_sheet_csv_round_trip():
    rng = np.random.default_rng(2)
    s_axis = np.array([0.0, 0.25, 1.0])
    t_axis = np.array([0.0, 0.5, 0.75, 1.0])
    values = rng.normal(size=(3, 4))
    text = sheet_to_csv(values, s_axis, t_axis)
    back, s2, t2 = parse_sheet_csv(text)
    assert np.array_equal(back, values)
    assert np.array_equal(s2, s_axis)
    assert np.array_equal(t2, t_axis)


def test_sheet_csv_layout():
    text = sheet_to_csv(np.array([[1.5, -2.0]]), [0.0], [0.0, 1.0])
    lines = text.strip().split("\n")
    assert lines[0] == ",0.0,1.0"
    assert lines[1] == "0.0,1.5,-2.0"


def test_sheet_csv_deterministic():
    values = np.random.default_rng(3).normal(size=(4, 5))
    a = sheet_to_csv(values, np.linspace(0, 1, 4), np.linspace(0, 1, 5))
    b = sheet_to_csv(values.copy(), np.linspace(0, 1, 4), np.linspace(0, 1, 5))
    assert a == b


def test_empirical_envelope_fields():
    law = IncrementLaw.lazy_simple()
    path = simulate_walk(32, law, SeedScheme(1, StreamKind.WALK, 4))
    sheet = empirical_sheet(path, SeedScheme(1, StreamKind.SCENERY, 4),
                            GridSpec.uniform(3, 3))
    env = json.loads(envelope_json(sheet))
    assert env["kind"] == "empirical"
    assert env["n"] == 32
    assert env["alpha"] == 2.0
    assert env["scaled"] is False
    assert env["walk_seed"]["replicate_index"] == 4
    assert env["scenery_seed"]["stream_kind"] == "scenery"


def test_limit_envelope_fields():
    p = simulate_levy_path(2.0, 0.7, 1024, SeedScheme(9, StreamKind.LEVY, 2))
    lt = local_time_field(p, default_cell_width(p, 32), [1.0])
    env = json.loads(envelope_json(limit_sheet(lt, np.array([0.0, 0.5, 1.0]),
                                               SeedScheme(9, StreamKind.KIEFER, 2))))
    assert env["kind"] == "limit"
    prov = env["provenance"]
    assert prov["alpha"] == 2.0
    assert prov["steps"] == 1024
    assert prov["levy_seed"] == [9, "levy", 2]
    assert prov["kiefer_seed"] == [9, "kiefer", 2]


def test_quadratic_matrix_serializes_like_sheet():
    # occupation cross-product matrices reuse the grid CSV layout with the
    # s-cuts on both axes
    from rwrs.walk import occupation_quadratic, walk_from_steps

    s_vec = np.array([0.5, 1.0])
    q = occupation_quadratic(walk_from_steps([1, -1, 1, 0]), s_vec, 2.0)
    back, rows_axis, cols_axis = parse_sheet_csv(sheet_to_csv(q, s_vec, s_vec))
    assert np.array_equal(back, q)
    assert np.array_equal(rows_axis, s_vec)
    assert np.array_equal(cols_axis, s_vec)


def test_rows_to_csv_formats():
    text = rows_to_csv(["name", "count", "value", "flag"],
                       [["x", 3, 0.125, True], ["y", -1, 2.0, False]])
    assert text == "name,count,value,flag\nx,3,0.125,True\ny,-1,2.0,False\n"


def test_envelope_rejects_unknown():
    with pytest.raises(TypeError):
        envelope_json(object())
