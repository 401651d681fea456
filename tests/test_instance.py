import copy
import hashlib
import io
import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2 import (Instance, InstanceError, build_schedule, check_metric, emit_instance,
                  generate_instance, load_instance, save_instance)
from ttp2 import instance as instance_module
from ttp2.errors import TEAMS_MAX
from ttp2.instance import (EXTENSION_FORMATS, FORMATS, GENERATOR_KINDS, TRIANGLE_TOL,
                           MetricReport)


def small_dist():
    return np.array([[0.0, 3.0, 4.0, 5.0],
                     [3.0, 0.0, 5.0, 4.0],
                     [4.0, 5.0, 0.0, 3.0],
                     [5.0, 4.0, 3.0, 0.0]])


def test_instance_basic_fields():
    inst = Instance(n=4, dist=small_dist())
    assert inst.n == 4
    assert inst.dist[0, 1] == 3.0
    assert not inst.dist.flags.writeable


@pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_instance_keeps_its_arrays_read_only(copy_of):
    inst = generate_instance(8, kind="euclidean", seed=0)
    named = Instance(n=4, dist=small_dist(), names=("a", "b", "c", "d"))
    for original in (inst, named):
        c = copy_of(original)
        assert c == original and c.names == original.names
        assert c.dist is not original.dist and c.dist.tobytes() == original.dist.tobytes()
        for arr in (c.dist, c.coords):
            if arr is not None:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 1] = -5.0


def test_an_instance_copies_the_callers_coords():
    inst = generate_instance(8, kind="euclidean", seed=0)
    for make in (lambda c: c, lambda c: c[:]):   # the array itself, and a view of it
        base = inst.coords.copy()
        given = make(base)
        built = Instance(n=8, dist=inst.dist, coords=given)
        assert given.flags.writeable and base.flags.writeable
        base[0, 0] += 1000.0
        assert np.array_equal(built.coords, inst.coords)
        assert load_instance(emit_instance(built, "json")) == built


def test_instance_rejects_odd_n():
    d = np.zeros((3, 3))
    with pytest.raises(InstanceError):
        Instance(n=3, dist=d)


@pytest.mark.parametrize("n", [8.0, True, "8", None], ids=repr)
def test_instance_refuses_a_team_count_that_is_not_an_integer(n):
    if type(n) is float:   # an integral float is an integer
        inst = Instance(n=n, dist=np.ones((8, 8)) - np.eye(8))
        assert type(inst.n) is int and inst == Instance(n=8, dist=inst.dist)
        return
    with pytest.raises(InstanceError, match="team count must be an integer"):
        Instance(n=n, dist=np.ones((8, 8)) - np.eye(8))


def test_numpy_integers_are_read_as_ints():
    dist = generate_instance(8, "euclidean", 0).dist
    inst = Instance(n=np.int64(8), dist=dist)
    assert type(inst.n) is int and inst == Instance(n=8, dist=dist)
    assert build_schedule(inst) == build_schedule(Instance(n=8, dist=dist))
    generated = generate_instance(np.int64(8), "euclidean", np.int64(3))
    assert type(generated.n) is int and generated == generate_instance(8, "euclidean", 3)


@pytest.mark.parametrize("n,seed", [(8.0, 0), (True, 0), ("8", 0), (8, 1.5), (8, True), (8, "1")],
                         ids=repr)
def test_generate_refuses_a_non_integer_n_or_seed(n, seed):
    if type(n) is float:   # an integral float is an integer, and so is a seed of 0.0
        generated = generate_instance(n, "euclidean", float(seed))
        assert type(generated.n) is int and generated == generate_instance(8, "euclidean", 0)
        return
    match = "seed must be a non-negative integer" if type(n) is int else "needs an even integer n"
    with pytest.raises(InstanceError, match=match):
        generate_instance(n, "euclidean", seed)


def test_a_team_count_past_the_bound_is_refused_before_allocating():
    # every reader of an instance, before it sizes an array from the count
    n = TEAMS_MAX + 2
    makes = [lambda kind=kind: generate_instance(n, kind)
             for kind in ("euclidean", "unit", "random_metric")]
    makes += [lambda: Instance(n=n, dist=[[0.0]]),
              lambda: load_instance(json.dumps({"n": n, "coords": [[0.0, 0.0]] * n})),
              lambda: load_instance(f"{n}\n0\n", fmt="matrix"),
              lambda: load_instance("0\n" * n, fmt="csv")]
    tracemalloc.start()
    try:
        for make in makes:
            with pytest.raises(InstanceError, match=f"team count {n} exceeds the supported "
                                                    f"maximum {TEAMS_MAX}"):
                make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert generate_instance(TEAMS_MAX, "unit").n == TEAMS_MAX


def test_an_integral_float_team_count_is_read_in_json():
    text = emit_instance(generate_instance(8, "euclidean", 0)).replace('"n": 8', '"n": 8.0', 1)
    inst = load_instance(text)
    assert type(inst.n) is int and inst == generate_instance(8, "euclidean", 0)


def test_instance_rejects_shape_mismatch():
    with pytest.raises(InstanceError):
        Instance(n=4, dist=np.zeros((4, 5)))


@pytest.mark.parametrize("fields,field", [
    ({"dist": [[0, 1], [1]]}, "dist"), ({"dist": [[0, "a"], [1, 0]]}, "dist"),
    ({"dist": [[0, 1], [1, 0]], "coords": [[0, 0], [1]]}, "coords")])
def test_instance_refuses_an_array_it_cannot_read_naming_the_field(fields, field):
    with pytest.raises(InstanceError, match=f"^'{field}' must be a rectangular array of numbers$"):
        Instance(n=2, **fields)


@pytest.mark.parametrize("text", [
    '{"n": 2, "dist": [[0, 1%s], [1, 0]]}' % ("0" * 400),
    '{"n": 2, "coords": [[0, 0], [1%s, 0]]}' % ("0" * 400)])
def test_a_number_past_the_float_range_is_refused_naming_the_field(text):
    field = "dist" if "dist" in text else "coords"
    with pytest.raises(InstanceError, match=f"^'{field}' holds a number past the float range$"):
        load_instance(text)


def test_instance_rejects_negative():
    d = small_dist()
    d[0, 1] = d[1, 0] = -1.0
    with pytest.raises(InstanceError):
        Instance(n=4, dist=d)


def test_instance_rejects_nonzero_diagonal():
    d = small_dist()
    d[2, 2] = 0.5
    with pytest.raises(InstanceError):
        Instance(n=4, dist=d)


def test_instance_rejects_asymmetry_and_names_cells():
    d = small_dist()
    d[0, 3] = 99.0
    with pytest.raises(InstanceError) as ei:
        Instance(n=4, dist=d)
    # the offending cell should be identifiable from the message
    assert "0" in str(ei.value) and "3" in str(ei.value)


def test_instance_symmetrizes_within_tolerance():
    d = small_dist()
    d[0, 1] = 3.0 + 1e-12
    inst = Instance(n=4, dist=d)
    assert inst.dist[0, 1] == inst.dist[1, 0]


def test_round_trips_all_formats():
    inst = generate_instance(6, "euclidean", 3)
    for fmt in ("matrix", "csv", "json"):
        text = emit_instance(inst, fmt=fmt)
        back = load_instance(text, fmt=fmt)
        assert back.n == inst.n
        assert np.array_equal(back.dist, inst.dist), fmt


def test_format_sniffing_without_hint():
    inst = generate_instance(4, "euclidean", 9)
    for fmt in ("matrix", "csv", "json"):
        text = emit_instance(inst, fmt=fmt)
        back = load_instance(text)
        assert np.array_equal(back.dist, inst.dist), fmt


def test_save_and_load_by_extension(tmp_path):
    inst = generate_instance(4, "euclidean", 11)
    for ext in ("json", "csv", "txt"):
        path = tmp_path / f"inst.{ext}"
        save_instance(inst, str(path))
        back = load_instance(str(path))
        assert np.array_equal(back.dist, inst.dist), ext


def test_save_and_reload_through_every_extension(tmp_path):
    inst = generate_instance(4, "euclidean", 11)
    for ext, fmt in EXTENSION_FORMATS.items():
        path = tmp_path / f"inst{ext}"
        save_instance(inst, str(path))
        assert path.read_text() == emit_instance(inst, fmt), ext
        assert np.array_equal(load_instance(str(path)).dist, inst.dist), ext
    for name in ("inst", "inst.dat"):     # no or an unknown extension
        path = tmp_path / name
        save_instance(inst, str(path))
        assert path.read_text() == emit_instance(inst, "matrix"), name
        assert np.array_equal(load_instance(str(path)).dist, inst.dist), name
    sniffed = tmp_path / "inst.dat"
    sniffed.write_text(emit_instance(inst, "csv"))
    assert np.array_equal(load_instance(str(sniffed)).dist, inst.dist)


def test_load_from_file_object_and_bytes():
    inst = generate_instance(4, "unit", 0)
    text = emit_instance(inst, fmt="matrix")
    assert np.array_equal(load_instance(io.StringIO(text)).dist, inst.dist)
    assert np.array_equal(load_instance(text.encode()).dist, inst.dist)
    assert np.array_equal(load_instance(io.BytesIO(text.encode())).dist, inst.dist)
    # a source that is neither text nor bytes, or whose read() returns neither
    for source in (42, type("Reader", (), {"read": lambda self: None})()):
        with pytest.raises(InstanceError, match="unreadable instance source"):
            load_instance(source)


def test_csv_names_header():
    text = "a,b,c,d\n0,1,2,3\n1,0,4,5\n2,4,0,6\n3,5,6,0\n"
    inst = load_instance(text, fmt="csv")
    assert inst.names == ("a", "b", "c", "d")
    assert inst.dist[0, 3] == 3.0


@pytest.mark.parametrize("names, culprit", [
    (("a,b", "c", "d", "e"), "'a,b'"),
    (("1", "2", "3", "4"), "'1'"),
    ((" x", "b", "c", "d"), "' x'"),
    (("a", "b\nc", "d", "e"), "'b\\nc'"),
    (("{a", "b", "c", "d"), "'{a'"),
])
def test_csv_refuses_names_it_cannot_read_back(names, culprit):
    inst = Instance(n=4, dist=small_dist(), names=names)
    with pytest.raises(InstanceError, match=re.escape(culprit)):
        emit_instance(inst, fmt="csv")
    assert load_instance(emit_instance(inst, fmt="json")).names == names


# --- every format round-trips bit for bit -----------------------------------


@st.composite
def _instances(draw):
    n = draw(st.sampled_from((2, 4, 6)))
    # any finite non-negative bits, with the subnormal and near-overflow
    # ends drawn often
    entry = st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                      st.floats(min_value=0.0, max_value=1e-300),
                      st.floats(min_value=1e300, allow_infinity=False))
    upper = n * (n - 1) // 2
    dist = np.zeros((n, n))
    dist[np.triu_indices(n, 1)] = draw(st.lists(entry, min_size=upper, max_size=upper))
    dist = dist + dist.T
    names = draw(st.none() | st.lists(st.text(max_size=4), min_size=n, max_size=n))
    return Instance(n=n, dist=dist, names=names)


def _csv_header_reads_back(inst):
    # the names row written as is, ahead of the data rows: does the reader,
    # sniffing the format, give back the same names and distances?
    rows = emit_instance(Instance(n=inst.n, dist=inst.dist), fmt="csv")
    try:
        back = load_instance(",".join(inst.names) + "\n" + rows)
    except InstanceError:
        return False
    return back.names == inst.names and back.dist.tobytes() == inst.dist.tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_instances())
def test_every_format_round_trips_bit_for_bit(inst):
    for fmt in FORMATS:
        if fmt == "csv" and inst.names is not None and not _csv_header_reads_back(inst):
            with pytest.raises(InstanceError, match="team name"):
                emit_instance(inst, fmt=fmt)
            continue
        back = load_instance(emit_instance(inst, fmt=fmt), fmt=fmt)
        assert back.dist.tobytes() == inst.dist.tobytes(), fmt
        assert back.names == (None if fmt == "matrix" else inst.names), fmt


def test_json_with_coords_only():
    obj = {"n": 4, "coords": [[0, 0], [3, 0], [0, 4], [3, 4]]}
    inst = load_instance(json.dumps(obj), fmt="json")
    assert inst.dist[0, 1] == 3.0
    assert inst.dist[0, 2] == 4.0
    assert inst.dist[0, 3] == 5.0


def test_json_coords_dist_consistency_check():
    obj = {"n": 4,
           "coords": [[0, 0], [3, 0], [0, 4], [3, 4]],
           "dist": [[0, 9, 4, 5], [9, 0, 5, 4], [4, 5, 0, 3], [5, 4, 3, 0]]}
    with pytest.raises(InstanceError):
        load_instance(json.dumps(obj), fmt="json")
    # unreadable fields are refused naming the field
    good = {"n": 2, "dist": [[0, 1], [1, 0]]}
    for field, value in (("dist", [[0, 1], [1]]), ("dist", "ab"),
                         ("dist", [["a", 0], [0, 0]]), ("coords", "ab"),
                         ("coords", [["a", 0], [0, 0]]), ("coords", [1, 2]),
                         ("names", 5)):
        with pytest.raises(InstanceError, match=f"'?{field}'? must"):
            load_instance(json.dumps({**good, field: value}), fmt="json")


def test_json_names_are_read_by_the_constructors_rule():
    # an empty list is a list of no names, not an absent key
    good = {"n": 2, "dist": [[0, 1], [1, 0]]}
    for absent in ({}, {"names": None}):
        assert load_instance(json.dumps({**good, **absent}), fmt="json").names is None
    with pytest.raises(InstanceError, match="expected 2 names, got 0"):
        load_instance(json.dumps({**good, "names": []}), fmt="json")
    with pytest.raises(InstanceError, match="expected 2 names, got 0"):
        Instance(n=2, dist=good["dist"], names=())


@pytest.mark.parametrize("names, message", [
    ("abcd", "names must be a sequence of 4 names, got 'abcd'"),
    (b"abcd", "names must be a sequence of 4 names, got b'abcd'"),
    (bytearray(b"abcd"), "names must be a sequence of 4 names, got bytearray(b'abcd')"),
    ({"a": 0, "b": 1, "c": 2, "d": 3}, "names must be a sequence of 4 names, got {"),
    (frozenset("abcd"), "names must be a sequence of 4 names, got frozenset("),
    (4, "names must be a sequence of 4 names, got 4"),
    ([1, 2, 3, 4], "names must be str values, got 1 at index 0"),
    (("a", "b", None, "d"), "names must be str values, got None at index 2"),
    (("a", "b", b"c", "d"), "names must be str values, got b'c' at index 2"),
], ids=["str", "bytes", "bytearray", "dict", "set", "int", "ints", "none", "bytes-name"])
def test_instance_refuses_names_that_are_text_or_not_str(names, message):
    # a string is one name, not its characters, and a name is never made text
    with pytest.raises(InstanceError, match="^" + re.escape(message)):
        Instance(n=4, dist=small_dist(), names=names)


def test_instance_keeps_str_names_as_plain_str():
    inst = Instance(n=4, dist=small_dist(), names=np.array(["a", "b", "c", "d"]))
    assert inst.names == ("a", "b", "c", "d")
    assert {type(name) for name in inst.names} == {str}


@pytest.mark.parametrize("names, message", [
    ("ab", "names must be a sequence of 2 names, got 'ab'"),
    ([1, 2], "names must be str values, got 1 at index 0"),
    (["a", 2], "names must be str values, got 2 at index 1"),
    ({"a": 1, "b": 2}, "names must be a sequence of 2 names, got {"),
])
def test_json_names_that_are_not_text_are_refused(names, message):
    text = json.dumps({"n": 2, "dist": [[0, 1], [1, 0]], "names": names})
    with pytest.raises(InstanceError, match="^" + re.escape(message)):
        load_instance(text, fmt="json")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_named_instances_read_back_as_written(fmt):
    named = [Instance(n=4, dist=small_dist(), names=("a", "b", "c", "d")),
             Instance(n=4, dist=small_dist(), names=["x y", "é", "", "d"])]
    if fmt == "json":   # the one format that keeps coords
        inst = generate_instance(8, kind="euclidean", seed=0)
        named.append(Instance(n=8, dist=inst.dist, names=[f"t{i}" for i in range(8)],
                              coords=inst.coords))
    for inst in named:
        assert load_instance(emit_instance(inst, fmt=fmt), fmt=fmt) == inst


def test_json_rounding_nearest_int():
    obj = {"n": 4, "coords": [[0, 0], [1, 1], [5, 0], [0, 5]],
           "rounding": "nearest_int"}
    inst = load_instance(json.dumps(obj), fmt="json")
    assert inst.dist[0, 1] == 1.0  # sqrt(2) rounded
    assert float(inst.dist[0, 1]).is_integer()
    obj["rounding"] = "floor"
    for extra in ({}, {"dist": inst.dist.tolist()}):
        with pytest.raises(InstanceError, match="unknown rounding mode 'floor'"):
            load_instance(json.dumps({**obj, **extra}), fmt="json")


# --- the json writer's form -----------------------------------------------------


@pytest.mark.parametrize("named", [False, True], ids=["unnamed", "named"])
@pytest.mark.parametrize("n", [8, 32, 256])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_json_round_trips_every_generated_instance(kind, n, named):
    inst = generate_instance(n, kind, 0)
    if named:
        inst = Instance(n=n, dist=inst.dist, names=[f"team {i}" for i in range(n)],
                        coords=inst.coords)
    text = emit_instance(inst)
    back = load_instance(text)
    assert back == inst and back.dist.tobytes() == inst.dist.tobytes()
    # a Euclidean instance's coords give its distances, so the matrix is left out
    assert ("dist" in json.loads(text)) == (kind != "euclidean")


# sha256 of the json text of instances without coords as written when json
# held the matrix of every instance: that text stays the same byte for byte
_COORDLESS_JSON_SHA256 = {
    ("random_metric", False): "e88e171a8d60bec0fb84cdcc5c462f3fae0e32541e310295d477cc82f615445a",
    ("random_metric", True): "ca567a41dea41b045f6b7c1736e4f6e8d62c754379e20f8109795f774e08bfad",
    ("unit", False): "d9e596068ce1b16fdaf21afeea42142b53716195d674367337bda0d26d8b579b",
}


@pytest.mark.parametrize("kind, named", sorted(_COORDLESS_JSON_SHA256))
def test_json_of_an_instance_without_coords_is_unchanged(kind, named):
    inst = generate_instance(8, kind, 0)
    if named:
        inst = Instance(n=8, dist=inst.dist, names=[f"t{i}" for i in range(8)])
    text = emit_instance(inst)
    assert hashlib.sha256(text.encode()).hexdigest() == _COORDLESS_JSON_SHA256[kind, named]


def test_json_writes_back_an_instance_of_rounded_coords():
    coords = [[0.0, 0.0], [1.0, 1.0], [5.0, 0.0], [0.0, 5.0]]
    inst = load_instance(json.dumps({"n": 4, "coords": coords, "rounding": "nearest_int"}))
    text = emit_instance(inst)
    assert json.loads(text) == {"n": 4, "coords": coords, "rounding": "nearest_int"}
    back = load_instance(text)
    assert back == inst and back.dist.tobytes() == inst.dist.tobytes()
    # distances within COORD_TOL of the rounded ones, not equal: the matrix
    # is written, with the rounding under which the reader checks it
    near = inst.dist + 1e-8 * (1 - np.eye(4))
    inst = load_instance(json.dumps({"n": 4, "dist": near.tolist(), "coords": coords,
                                     "rounding": "nearest_int"}))
    obj = json.loads(emit_instance(inst))
    assert obj["dist"] == near.tolist() and obj["rounding"] == "nearest_int"
    back = load_instance(emit_instance(inst))
    assert back == inst and back.dist.tobytes() == inst.dist.tobytes()


def test_json_refuses_coords_that_disagree_with_dist():
    # small_dist() is the distances of these coords, bit for bit
    coords = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [3.0, 4.0]])
    assert sorted(json.loads(emit_instance(Instance(n=4, dist=small_dist(), coords=coords)))) \
        == ["coords", "n"]
    near, far = coords.copy(), coords.copy()
    near[3, 1] += 1e-9
    far[3, 1] += 1.0
    # moved within COORD_TOL, so the distances are the rounded ones: the
    # coords are written with their rounding
    inst = Instance(n=4, dist=small_dist(), coords=near)
    text = emit_instance(inst)
    assert sorted(json.loads(text)) == ["coords", "n", "rounding"]
    assert load_instance(text) == inst
    # distances that are no rounded ones: the matrix is written beside the coords
    generated = generate_instance(4, "euclidean", 0)
    moved = generated.coords.copy()
    moved[3, 1] += 1e-9
    inst = Instance(n=4, dist=generated.dist, coords=moved)
    text = emit_instance(inst)
    assert sorted(json.loads(text)) == ["coords", "dist", "n"]
    back = load_instance(text)
    assert back == inst and back.dist.tobytes() == inst.dist.tobytes()
    # moved past it: refused, naming the entry load_instance would refuse
    with pytest.raises(InstanceError, match=re.escape(
            "instance cannot be written to json: dist[1][3]=4.0 disagrees with coords "
            "(expected 5.0, rounding=exact)")):
        emit_instance(Instance(n=4, dist=small_dist(), coords=far))
    for fmt in ("matrix", "csv"):   # they hold no coords
        assert load_instance(emit_instance(Instance(n=4, dist=small_dist(), coords=far), fmt),
                             fmt) == Instance(n=4, dist=small_dist())


def test_matrix_format_rejects_token_shortage():
    with pytest.raises(InstanceError):
        load_instance("4\n0 1 2\n", fmt="matrix")


@pytest.mark.parametrize("count", ["1_0", "\u0662", "+2", "2.0"], ids=repr)
def test_matrix_team_count_is_ascii_digits(count):
    with pytest.raises(InstanceError, match="must start with the team count"):
        load_instance(f"{count}\n0 1\n1 0\n", fmt="matrix")
    assert load_instance("2\n0 1\n1 0\n", fmt="matrix").n == 2


def test_generators_deterministic():
    a = generate_instance(8, "euclidean", 7)
    b = generate_instance(8, "euclidean", 7)
    c = generate_instance(8, "euclidean", 8)
    assert np.array_equal(a.dist, b.dist)
    assert not np.array_equal(a.dist, c.dist)
    assert a.coords is not None


def test_unit_generator():
    inst = generate_instance(6, "unit", 0)
    assert np.array_equal(inst.dist, np.ones((6, 6)) - np.eye(6))


def test_random_metric_satisfies_triangle():
    for seed in range(5):
        inst = generate_instance(8, "random_metric", seed)
        assert check_metric(inst).triangle_ok, seed


def test_euclidean_satisfies_triangle():
    inst = generate_instance(10, "euclidean", 2)
    assert check_metric(inst).triangle_ok


def test_check_metric_reports_violation_triple():
    # d[0,2] = 10 but the path through 1 costs 2: excess 8
    d4 = np.zeros((4, 4))
    d4[:3, :3] = np.array([[0.0, 1.0, 10.0],
                           [1.0, 0.0, 1.0],
                           [10.0, 1.0, 0.0]])
    d4[3, :3] = d4[:3, 3] = 20.0
    rep = check_metric(Instance(n=4, dist=d4))
    assert not rep.triangle_ok
    i, j, k, excess = rep.worst_violation
    assert j == 1 and (i, k) in ((0, 2), (2, 0))
    assert excess == pytest.approx(8.0)


def test_generate_rejects_unknown_kind():
    with pytest.raises(InstanceError):
        generate_instance(8, "hyperbolic", 0)
    for kind in ("euclidean", "unit"):
        with pytest.raises(InstanceError, match="seed must be a non-negative integer"):
            generate_instance(8, kind, -1)


def test_missing_path_names_the_file(tmp_path):
    missing = tmp_path / "nope.json"
    for source in (str(missing), missing):
        with pytest.raises(InstanceError, match="not found") as ei:
            load_instance(source)
        assert "nope.json" in str(ei.value)
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("2\n0 1\n1 0 # caf\xe9\n".encode("latin-1"))
    with pytest.raises(InstanceError, match="latin1.txt is not UTF-8"):
        load_instance(str(latin1))
    with pytest.raises(InstanceError, match="not UTF-8"):
        load_instance(latin1.read_bytes())


def _full_scan(d):
    """check_metric's worst excess and its first (i, j, k), from the whole
    n x n x n array at once."""
    excess = d[:, None, :] - d[:, :, None] - d.T[None, :, :]
    i, j, k = np.unravel_index(int(np.argmax(excess)), excess.shape)
    return int(i), int(j), int(k), float(excess.max())


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([6, 10, 20]), rows=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1),
       top=st.integers(2, 9))
def test_blocked_metric_scan_matches_the_full_array(n, rows, seed, top):
    # small integer distances: many triples tie at the worst excess
    upper = np.triu(np.random.default_rng(seed).integers(1, top, size=(n, n)), 1)
    inst = Instance(n=n, dist=(upper + upper.T).astype(float))
    saved = instance_module.METRIC_BLOCK_ENTRIES
    instance_module.METRIC_BLOCK_ENTRIES = rows * n * n   # ceil(n / rows) blocks
    try:
        rep = check_metric(inst)
    finally:
        instance_module.METRIC_BLOCK_ENTRIES = saved
    i, j, k, worst = _full_scan(inst.dist)
    if worst <= TRIANGLE_TOL:
        assert rep == MetricReport(triangle_ok=True)
    else:
        assert rep == MetricReport(triangle_ok=False, worst_violation=(i, j, k, worst))


def test_metric_scan_memory_stays_bounded_at_n_256():
    n = 256
    upper = np.triu(np.random.default_rng(0).integers(1, 50, size=(n, n)), 1)
    inst = Instance(n=n, dist=(upper + upper.T).astype(float))
    tracemalloc.start()
    try:
        rep = check_metric(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    i, j, k, worst = rep.worst_violation
    d = inst.dist
    assert worst == d[i, k] - d[i, j] - d[j, k] == 47.0


# --- refusals, one per path ------------------------------------------------------


def test_instance_refuses_a_matrix_of_another_order():
    with pytest.raises(InstanceError, match="^n=4 does not match matrix of order 6$"):
        Instance(n=4, dist=np.zeros((6, 6)))


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=repr)
def test_instance_refuses_non_finite_distances(value):
    d = small_dist()
    d[0, 1] = d[1, 0] = value
    with pytest.raises(InstanceError, match="^distance matrix contains non-finite entries$"):
        Instance(n=4, dist=d)


def test_instance_refuses_coords_of_another_shape():
    with pytest.raises(InstanceError, match=re.escape("coords must have shape (4, 2), got (4, 3)")):
        Instance(n=4, dist=small_dist(), coords=np.zeros((4, 3)))


def test_matrix_refuses_a_malformed_number():
    with pytest.raises(InstanceError, match="^malformed number 'x' at entry 1$"):
        load_instance("2\n0 x\n1 0\n", fmt="matrix")


@pytest.mark.parametrize("fmt,message", [
    ("matrix", "^empty matrix input$"), ("csv", "^empty csv input$")])
def test_empty_text_is_refused(fmt, message):
    with pytest.raises(InstanceError, match=message):
        load_instance(" \n\n", fmt=fmt)


def test_csv_refuses_a_header_without_data_rows():
    with pytest.raises(InstanceError, match="^csv input has a header but no data rows$"):
        load_instance("a,b\n", fmt="csv")


@pytest.mark.parametrize("text", ['{"dist": [[0, 1], [1, 0]]}', "[2]\n"])
def test_json_without_n_is_refused(text):
    with pytest.raises(InstanceError, match="^json instance must be an object with an 'n' key$"):
        load_instance(text, fmt="json")


def test_json_without_dist_or_coords_is_refused():
    with pytest.raises(InstanceError, match="^json instance needs 'dist' or 'coords'$"):
        load_instance('{"n": 2}')


def test_an_unknown_format_is_refused_on_load_and_emit():
    message = re.escape(f"unknown instance format 'xml', expected one of {FORMATS}")
    with pytest.raises(InstanceError, match=message):
        load_instance("2\n0 1\n1 0\n", fmt="xml")
    with pytest.raises(InstanceError, match=message):
        emit_instance(Instance(n=4, dist=small_dist()), fmt="xml")


@pytest.mark.parametrize("n", [7, 0, -2])
def test_generate_refuses_an_odd_or_small_n(n):
    with pytest.raises(InstanceError, match=f"^generator needs an even integer n >= 2, got {n}$"):
        generate_instance(n)


def test_instances_differ_in_each_field_and_equal_ones_hash_alike():
    coords = generate_instance(4, "euclidean", 0).coords
    base = Instance(n=4, dist=small_dist(), names=("a", "b", "c", "d"), coords=coords)
    same = Instance(n=4, dist=small_dist(), names=("a", "b", "c", "d"), coords=coords.copy())
    assert base == same and hash(base) == hash(same)
    assert base.__eq__(small_dist()) is NotImplemented and base != "an instance"
    moved = coords.copy()
    moved[0, 0] += 1.0
    other = small_dist()
    other[0, 1] = other[1, 0] = 9.0
    for differ in (Instance(n=2, dist=np.ones((2, 2)) - np.eye(2)),
                   Instance(n=4, dist=small_dist(), coords=coords),
                   Instance(n=4, dist=small_dist(), names=("a", "b", "c", "d")),
                   Instance(n=4, dist=small_dist(), names=("a", "b", "c", "d"), coords=moved),
                   Instance(n=4, dist=other, names=("a", "b", "c", "d"), coords=coords)):
        assert base != differ and differ != base
