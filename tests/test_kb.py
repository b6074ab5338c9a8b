"""Knowledge base files: validation, round-tripping, determinism."""

import json
import math
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

import conceptspaces.kb as kb_module
from conceptspaces import (Concept, Core, Cuboid, KbFormatError,
                           KnowledgeBase, Space, UnknownNameError,
                           ValidationError, Weights)
from conceptspaces.cli import main
from conceptspaces.kb import Defaults, concept_from_dict, concept_to_dict

from conftest import (LINE, PLANE, box_core, line_concept, random_concept,
                      sample_window, uniform_points)

MIXED = Space((("color", ("hue", "sat")), ("size", ("diam",))))


@pytest.fixture
def kb(fig_cross):
    base = KnowledgeBase(PLANE)
    return base.add_concept("cross", fig_cross).add_concept(
        "blob", Concept(box_core(PLANE, [({"x": 5.0, "y": 5.0},
                                          {"x": 6.0, "y": 7.0})]),
                        0.75, 1.5,
                        Weights.normalized({"width": 1.2, "height": 0.8},
                                           {"width": {"x": 1.0},
                                            "height": {"y": 1.0}})))


class TestAccessors:
    def test_add_then_get(self, fig_cross):
        kb = KnowledgeBase(PLANE).add_concept("cross", fig_cross)
        assert kb.get_concept("cross") == fig_cross

    def test_add_duplicate_leaves_kb_unchanged(self, fig_cross):
        kb = KnowledgeBase(PLANE).add_concept("cross", fig_cross)
        with pytest.raises(ValidationError):
            kb.add_concept("cross", fig_cross)
        assert list(kb.concepts) == ["cross"]

    def test_remove_then_get_is_missing(self, fig_cross):
        kb = KnowledgeBase(PLANE).add_concept("cross", fig_cross)
        smaller = kb.remove_concept("cross")
        with pytest.raises(UnknownNameError):
            smaller.get_concept("cross")
        # the original value is untouched
        assert "cross" in kb.concepts

    def test_concept_from_wrong_space_is_rejected(self):
        with pytest.raises(ValidationError):
            KnowledgeBase(PLANE).add_concept("line", line_concept(0, 1))


class TestRoundTrip:
    def test_save_load_preserves_memberships(self, kb, tmp_path):
        rng = np.random.default_rng(61)
        path = tmp_path / "kb.json"
        kb.save(path)
        loaded = KnowledgeBase.load(path)
        assert loaded.space == kb.space
        assert loaded.defaults == kb.defaults
        for name, concept in kb.concepts.items():
            twin = loaded.get_concept(name)
            assert twin == concept
            pts = uniform_points(rng, *sample_window(concept), 500)
            assert np.max(np.abs(twin.membership_batch(pts)
                                 - concept.membership_batch(pts))) <= 1e-12

    def test_repeated_save_is_byte_identical(self, kb, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        kb.save(first)
        kb.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_failed_save_leaves_old_file_intact(self, kb, tmp_path,
                                                monkeypatch):
        path = tmp_path / "kb.json"
        KnowledgeBase(PLANE).save(path)
        before = path.read_bytes()

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            kb.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["kb.json"]

    @pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"),
                        reason="the platform cannot open a directory")
    def test_save_syncs_the_directory(self, kb, tmp_path, monkeypatch):
        # the file is flushed before the rename, its directory after it
        synced = []
        fsync = os.fsync

        def record(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", record)
        kb.save(tmp_path / "kb.json")
        assert synced == [False, True]

    def test_save_keeps_permissions(self, kb, tmp_path):
        path = tmp_path / "kb.json"
        KnowledgeBase(PLANE).save(path)
        path.chmod(0o640)
        kb.save(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert KnowledgeBase.load(path).concepts.keys() == kb.concepts.keys()

    def test_empty_concept_map_is_valid(self, tmp_path):
        path = tmp_path / "kb.json"
        KnowledgeBase(PLANE).save(path)
        loaded = KnowledgeBase.load(path)
        assert loaded.concepts == {}
        assert loaded.space == PLANE

    def test_partial_cuboid_round_trips_with_null_markers(self, tmp_path):
        # one cuboid bounds only the color domain; its size bounds are
        # serialized as explicit nulls
        partial = Cuboid.from_bounds(MIXED, ["color"],
                                     {"hue": 0.0, "sat": 0.0},
                                     {"hue": 2.0, "sat": 2.0})
        full = Cuboid.from_bounds(MIXED, ["color", "size"],
                                  {"hue": 1.0, "sat": 1.0, "diam": 0.0},
                                  {"hue": 3.0, "sat": 3.0, "diam": 1.0})
        concept = Concept(Core((partial, full)), 1.0, 1.0,
                          Weights.uniform(MIXED))
        kb = KnowledgeBase(MIXED).add_concept("mixed", concept)
        path = tmp_path / "kb.json"
        kb.save(path)
        raw = json.loads(path.read_text())
        stored = raw["concepts"]["mixed"]["cuboids"][0]
        assert stored["p_min"]["diam"] is None
        assert stored["p_max"]["diam"] is None
        loaded = KnowledgeBase.load(path)
        twin = loaded.get_concept("mixed")
        assert twin == concept
        assert math.isinf(twin.core.cuboids[0].p_min[2])

    def test_defaults_round_trip(self, tmp_path):
        kb = KnowledgeBase(PLANE, {}, Defaults(s=0.3, t=0.7, threshold=0.6))
        path = tmp_path / "kb.json"
        kb.save(path)
        assert KnowledgeBase.load(path).defaults == kb.defaults

    def test_tolerance_is_read_and_dropped(self, tmp_path):
        payload = minimal_payload()
        payload["defaults"]["tolerance"] = 1e-8
        path = write_payload(tmp_path, payload)
        kb = KnowledgeBase.load(path)
        assert kb.defaults == Defaults()
        kb.save(path)
        assert "tolerance" not in path.read_text()
        assert json.loads(path.read_text())["defaults"] == {
            "s": 0.5, "t": 0.5, "threshold": 0.5}


def minimal_payload():
    return {
        "format_version": 1,
        "space": {"domains": [{"name": "width", "dimensions": ["x"]},
                              {"name": "height", "dimensions": ["y"]}]},
        "defaults": {"s": 0.5, "t": 0.5, "threshold": 0.5, "tolerance": 1e-6},
        "concepts": {
            "unit": {
                "cuboids": [{"domains": ["width", "height"],
                             "p_min": {"x": 0.0, "y": 0.0},
                             "p_max": {"x": 1.0, "y": 1.0}}],
                "mu0": 1.0,
                "c": 1.0,
                "weights": {"domains": {"width": 1.0, "height": 1.0},
                            "dimensions": {"x": 1.0, "y": 1.0}},
            }
        },
    }


def write_payload(tmp_path, payload):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def assert_fails_when_read(path, capsys, pattern):
    """The file loads, but reading ``unit`` and ``cspaces validate`` fail
    with a message matching ``pattern``."""
    kb = KnowledgeBase.load(path)
    with pytest.raises(KbFormatError, match=pattern):
        kb.get_concept("unit")
    assert main(["validate", "--kb", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("\n")
    assert re.search(pattern, err[len("error: "):-1])


def _set(*keys_and_value):
    """A change to a payload: set the value at the path of keys."""
    *keys, value = keys_and_value

    def change(payload):
        for key in keys[:-1]:
            payload = payload[key]
        payload[keys[-1]] = value
    return change


_UNIT = ("concepts", "unit")
_WEIGHTS = _UNIT + ("weights",)
_CUBOID = _UNIT + ("cuboids", 0)


@pytest.mark.parametrize("change, message", [
    (_set(*_UNIT, 5), "concepts.unit: expected an object"),
    (_set(*_UNIT, "mu0", "1"), "concepts.unit.mu0: expected a number"),
    (_set(*_UNIT, "c", math.nan), "concepts.unit.c: expected a finite number"),
    (_set("space", "domains", []), "space.domains: expected a non-empty list"),
    (_set("space", "domains", 0, "name", ""),
     "space.domains[0].name: expected a name"),
    (_set("space", "domains", 1, "dimensions", ["y", 2]),
     "space.domains[1].dimensions: expected dimension names"),
    (_set("space", "domains", 1, "dimensions", ["x"]),
     "space: duplicate dimension name 'x'"),
    (_set(*_WEIGHTS, "domains", {"width": 1.0, "height": 1.0, "depth": 1.0}),
     "concepts.unit.weights: weights cover unknown domains ['depth']"),
    (_set(*_WEIGHTS, "dimensions", {"x": 1.0, "y": 1.0, "z": 1.0}),
     "concepts.unit.weights.dimensions: unknown dimension 'z'"),
    (_set(*_WEIGHTS, "domains", {"width": 1.0}),
     "concepts.unit.weights.dimensions: dimension 'y' belongs to domain "
     "'height', which has no domain weight"),
    (_set(*_WEIGHTS, "dimensions", {"x": 1.0}),
     "concepts.unit.weights: dimension weights of domain 'height' cover [], "
     "expected ['y']"),
    (_set(*_CUBOID, "domains", "width"),
     "concepts.unit.cuboids[0].domains: expected a list of domain names"),
    (_set(*_CUBOID, "domains", ["width", "depth"]),
     "concepts.unit.cuboids[0].domains: unknown domain 'depth'"),
    (_set(*_UNIT, "cuboids", []),
     "concepts.unit.cuboids: expected a non-empty list"),
    (_set("format_version", 1.0), "format_version: expected an integer"),
    (_set("format_version", 2),
     "format_version: version 2 is not supported (supported: [1])"),
    (_set("defaults", "s", 1.5),
     "defaults: default s must lie in [0, 1], got 1.5"),
], ids=["entry", "mu0", "nan", "no-domains", "domain-name", "dimension-list",
        "duplicate-dimension", "weight-domain", "weight-dimension",
        "no-domain-weight", "missing-weight", "cuboid-domains",
        "cuboid-domain", "no-cuboids", "version-type", "version",
        "default"])
def test_malformed_payloads_name_their_path(tmp_path, change, message):
    payload = minimal_payload()
    change(payload)
    path = write_payload(tmp_path, payload)
    with pytest.raises(KbFormatError) as err:
        KnowledgeBase.load(path).get_concept("unit")
    assert str(err.value) == message


class TestValidation:
    def test_minimal_payload_loads(self, tmp_path):
        kb = KnowledgeBase.load(write_payload(tmp_path, minimal_payload()))
        assert kb.get_concept("unit").peak == 1.0

    def test_parse_error_is_position_annotated(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text('{"format_version": 1,,}', encoding="utf-8")
        with pytest.raises(KbFormatError, match=r"line 1, column"):
            KnowledgeBase.load(path)

    def test_unsupported_version(self, tmp_path):
        payload = minimal_payload()
        payload["format_version"] = 99
        with pytest.raises(KbFormatError, match="not supported"):
            KnowledgeBase.load(write_payload(tmp_path, payload))

    def test_unnormalized_domain_weights_rejected(self, tmp_path, capsys):
        payload = minimal_payload()
        weights = payload["concepts"]["unit"]["weights"]
        weights["domains"] = {"width": 1.2, "height": 0.6}
        path = write_payload(tmp_path, payload)
        assert_fails_when_read(path, capsys, "domain weights sum")

    def test_auto_normalize_rescales_with_warning(self, tmp_path):
        payload = minimal_payload()
        weights = payload["concepts"]["unit"]["weights"]
        weights["domains"] = {"width": 1.2, "height": 0.6}
        path = write_payload(tmp_path, payload)
        with pytest.warns(UserWarning, match="concepts.unit.weights"):
            kb = KnowledgeBase.load(path, auto_normalize=True)
        got = kb.get_concept("unit").weights.domain_weights
        assert got["width"] == pytest.approx(2 * 1.2 / 1.8)
        assert got["height"] == pytest.approx(2 * 0.6 / 1.8)

    def test_weights_that_cannot_be_rescaled_name_the_entry(self, tmp_path):
        payload = minimal_payload()
        weights = payload["concepts"]["unit"]["weights"]
        weights["domains"] = {"width": 0.0, "height": 0.0}
        path = write_payload(tmp_path, payload)
        with pytest.raises(KbFormatError) as err:
            KnowledgeBase.load(path, auto_normalize=True)
        assert str(err.value) == ("concepts.unit.weights: domain weights "
                                  "must have a positive sum")

    def test_unknown_dimension_in_cuboid_names_it(self, tmp_path, capsys):
        payload = minimal_payload()
        payload["concepts"]["unit"]["cuboids"][0]["p_min"]["wavelength"] = 0.0
        path = write_payload(tmp_path, payload)
        assert_fails_when_read(path, capsys, "wavelength")

    def test_missing_bound_names_dimension(self, tmp_path, capsys):
        payload = minimal_payload()
        del payload["concepts"]["unit"]["cuboids"][0]["p_min"]["y"]
        path = write_payload(tmp_path, payload)
        assert_fails_when_read(path, capsys,
                               r"^concepts\.unit\.cuboids\[0\]: missing "
                               r"lower bound for \['y'\]$")

    def test_null_bound_on_covered_dimension_rejected(self, tmp_path, capsys):
        payload = minimal_payload()
        payload["concepts"]["unit"]["cuboids"][0]["p_max"]["x"] = None
        path = write_payload(tmp_path, payload)
        assert_fails_when_read(path, capsys, "'x'")

    def test_number_outside_the_cuboid_domains_names_it(self, tmp_path,
                                                        capsys):
        payload = minimal_payload()
        entry = payload["concepts"]["unit"]["cuboids"][0]
        entry["domains"] = ["width"]
        entry["p_max"]["y"] = None
        path = write_payload(tmp_path, payload)
        assert_fails_when_read(path, capsys,
                               r"concepts\.unit\.cuboids\[0\]\.p_min: "
                               r"dimension 'y' lies outside")

    def test_lower_bound_above_upper_bound_names_the_dimension(
            self, tmp_path, capsys):
        payload = minimal_payload()
        cuboids = payload["concepts"]["unit"]["cuboids"]
        cuboids.append({"domains": ["width", "height"],
                        "p_min": {"x": 0.5, "y": 0.9},
                        "p_max": {"x": 0.6, "y": 0.8}})
        path = write_payload(tmp_path, payload)
        assert_fails_when_read(path, capsys,
                               r"^concepts\.unit: lower bound exceeds upper "
                               r"bound on dimension 'y'$")

    def test_disjoint_entries_name_the_concept(self, tmp_path, capsys):
        payload = minimal_payload()
        payload["concepts"]["unit"]["cuboids"].append(
            {"domains": ["width", "height"], "p_min": {"x": 2.0, "y": 2.0},
             "p_max": {"x": 3.0, "y": 3.0}})
        path = write_payload(tmp_path, payload)
        assert_fails_when_read(path, capsys,
                               r"^concepts\.unit: cuboids have an empty "
                               r"common intersection")

    def test_integer_bounds_come_out_as_floats(self, tmp_path):
        payload = minimal_payload()
        entry = payload["concepts"]["unit"]["cuboids"][0]
        canonical = KnowledgeBase.load(write_payload(tmp_path, payload))
        entry["p_min"] = {"x": 0, "y": 0}
        entry["p_max"] = {"x": 1, "y": 1}
        payload["concepts"]["unit"]["mu0"] = 1
        kb = KnowledgeBase.load(write_payload(tmp_path, payload))
        assert kb == canonical
        stored = concept_to_dict(kb.get_concept("unit"))["cuboids"][0]
        assert all(type(v) is float for key in ("p_min", "p_max")
                   for v in stored[key].values())
        kb.save(tmp_path / "one.json")
        canonical.save(tmp_path / "two.json")
        text = (tmp_path / "one.json").read_text()
        assert text == (tmp_path / "two.json").read_text()
        assert '"x": 1.0' in text

    def test_error_messages_name_the_concept(self, tmp_path, capsys):
        payload = minimal_payload()
        payload["concepts"]["unit"]["mu0"] = 2.0
        path = write_payload(tmp_path, payload)
        assert_fails_when_read(path, capsys, "concepts.unit")

    def test_missing_file(self, tmp_path):
        with pytest.raises(KbFormatError, match="cannot read"):
            KnowledgeBase.load(tmp_path / "absent.json")


def test_concept_dict_round_trip(fig_cross):
    data = concept_to_dict(fig_cross)
    twin = concept_from_dict(PLANE, data)
    assert twin == fig_cross


def test_fuzz_random_operation_sequences(tmp_path):
    rng = np.random.default_rng(62)
    kb = KnowledgeBase(PLANE)
    mirror: dict[str, Concept] = {}
    path = tmp_path / "kb.json"
    counter = 0
    for step in range(1000):
        roll = rng.random()
        if roll < 0.5 or not mirror:
            name = f"c{counter}"
            counter += 1
            concept = random_concept(rng, PLANE)
            kb = kb.add_concept(name, concept)
            mirror[name] = concept
        elif roll < 0.75:
            name = list(mirror)[int(rng.integers(len(mirror)))]
            kb = kb.remove_concept(name)
            del mirror[name]
        else:
            name = list(mirror)[int(rng.integers(len(mirror)))]
            assert kb.get_concept(name) == mirror[name]
        if step % 200 == 199:
            kb.save(path)
            kb = KnowledgeBase.load(path)
    assert set(kb.concepts) == set(mirror)
    for name, concept in mirror.items():
        assert kb.get_concept(name) == concept


def _algebra_kb() -> KnowledgeBase:
    """Intersect, union and project results over mixed-domain rows, one of
    them with a ``-0.0`` bound."""
    color = Concept(Core((Cuboid.from_bounds(MIXED, ["color"],
                                             {"hue": -0.0, "sat": 0.0},
                                             {"hue": 2.0, "sat": 1.0}),)),
                    0.9, 1.2, Weights.uniform(MIXED, ["color"]))
    both = Concept(box_core(MIXED, [
        ({"hue": 1.0, "sat": 0.5, "diam": 0.0}, {"hue": 3.0, "sat": 2.0,
                                                 "diam": 1.0}),
        ({"hue": 0.5, "sat": 0.25, "diam": 0.5}, {"hue": 1.5, "sat": 0.75,
                                                  "diam": 2.5})]),
        0.8, 0.7, Weights.normalized({"color": 1.5, "size": 0.5},
                                     {"color": {"hue": 0.3, "sat": 0.7},
                                      "size": {"diam": 1.0}}))
    far = Concept(box_core(MIXED, [({"hue": 6.0, "sat": 6.0, "diam": 6.0},
                                    {"hue": 7.0, "sat": 7.0, "diam": 7.0})]),
                  1.0, 0.5, Weights.uniform(MIXED))
    union = color.union(both)
    concepts = {"color": color, "both": both, "union": union,
                "meet": color.intersect(both), "far": both.intersect(far),
                "proj": union.project(["color"])}
    return KnowledgeBase(MIXED, concepts)


def test_algebra_results_round_trip_byte_identically(tmp_path):
    kb = _algebra_kb()
    union = kb.get_concept("union").core
    assert len(set(union.domains)) == 2
    assert math.copysign(1.0, union.lo[0, 0]) == -1.0
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    kb.save(first)
    assert '"hue": -0.0' in first.read_text()
    loaded = KnowledgeBase.load(first)
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.concepts == kb.concepts
    assert math.copysign(1.0, loaded.get_concept("union").core.lo[0, 0]) == -1.0
    # the bytes are those of the same cores built from their cuboids
    rebuilt = KnowledgeBase(MIXED, {
        name: Concept(Core(c.core.cuboids), c.peak, c.decay, c.weights)
        for name, c in kb.concepts.items()})
    rebuilt.save(second)
    assert first.read_bytes() == second.read_bytes()


def test_kb_paths_build_no_cuboids(tmp_path, monkeypatch, capsys):
    kb = _algebra_kb()
    path = tmp_path / "kb.json"
    built = []
    post_init = Cuboid.__post_init__

    def counting_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Cuboid, "__post_init__", counting_init)
    kb.save(path)
    loaded = KnowledgeBase.load(path)
    loaded.save(path)
    assert main(["concept", "show", "union", "--kb", str(path)]) == 0
    assert main(["validate", "--kb", str(path)]) == 0
    assert built == []
    shown = capsys.readouterr().out
    assert shown.endswith("}\nok\n")
    assert json.loads(shown[:-len("ok\n")]) == concept_to_dict(
        kb.get_concept("union"))


# ---------------------------------------------------------------------------
# decoding on first use, the line-per-concept layout, concurrent writers

def _line_kb_file(tmp_path) -> Path:
    concepts = {"a": line_concept(0, 1), "b": line_concept(3, 4),
                "c": line_concept(0.5, 2, peak=0.8),
                "d": line_concept(5, 6, decay=2.0)}
    path = tmp_path / "kb.json"
    KnowledgeBase(LINE, concepts).save(path)
    return path


def test_commands_decode_only_the_concepts_they_read(tmp_path, monkeypatch,
                                                     capsys):
    path = _line_kb_file(tmp_path)
    decoded = []
    decode = kb_module.concept_from_dict

    def counting(space, data, path, *args, **kwargs):
        decoded.append(path)
        return decode(space, data, path, *args, **kwargs)

    monkeypatch.setattr(kb_module, "concept_from_dict", counting)
    for argv, want in ((["membership", "a", "--point", "x=2"], ["a"]),
                       (["alpha-height", "a", "b"], ["a", "b"]),
                       (["concept", "list"], []),
                       (["validate"], ["a", "b", "c", "d"])):
        decoded.clear()
        assert main(argv + ["--kb", str(path)]) == 0
        assert decoded == [f"concepts.{name}" for name in want]


def test_malformed_concept_fails_only_where_it_is_read(tmp_path, capsys):
    path = _line_kb_file(tmp_path)
    membership = ["membership", "a", "--point", "x=2", "--kb", str(path)]
    assert main(membership) == 0
    want = capsys.readouterr().out
    data = json.loads(path.read_text())
    data["concepts"]["b"]["mu0"] = 2.0
    path.write_text(json.dumps(data))
    assert main(membership) == 0
    assert capsys.readouterr().out == want
    # a write to another concept keeps the entry as it was parsed
    assert main(["concept", "rm", "c", "--kb", str(path)]) == 0
    assert json.loads(path.read_text())["concepts"]["b"] == data["concepts"]["b"]
    capsys.readouterr()
    assert main(["validate", "--kb", str(path)]) == 1
    assert "concepts.b" in capsys.readouterr().err
    assert main(["membership", "b", "--kb", str(path)]) == 1


def test_writes_leave_every_other_line_byte_identical(tmp_path, capsys):
    path = _line_kb_file(tmp_path)
    data = json.loads(path.read_text())
    hand = {"cuboids": [{"domains": ["val"], "p_min": {"x": 7},
                         "p_max": {"x": 8}}],
            "mu0": 1, "c": 1, "note": "written by hand",
            "weights": {"domains": {"val": 1}, "dimensions": {"x": 1}}}
    data["concepts"]["hand"] = hand
    path.write_text(json.dumps(data))
    assert main(["concept", "rm", "d", "--kb", str(path)]) == 0
    before = path.read_bytes()
    lines = before.decode().splitlines()
    assert lines[-2] == f'"hand": {json.dumps(hand, sort_keys=True)}'
    kb = ["--kb", str(path)]
    for argv in (["intersect", "a", "b", "--out", "tmp"],
                 ["union", "a", "c", "--out", "tmp"],
                 ["project", "a", "--domains", "val", "--out", "tmp"],
                 ["concept", "add", "tmp", "--json", json.dumps(hand)]):
        assert main(argv + kb) == 0
        after = path.read_text().splitlines()
        assert [line.rstrip(",") for line in after
                if not line.startswith('"tmp": ')] == [
            line.rstrip(",") for line in lines]
        assert main(["concept", "rm", "tmp"] + kb) == 0
        assert path.read_bytes() == before


def test_layout_is_a_header_then_one_line_per_concept(tmp_path):
    kb = _algebra_kb()
    path = tmp_path / "kb.json"
    kb.save(path)
    text = path.read_text()
    assert text.endswith("\n}}\n")
    lines = text.splitlines()
    assert lines[0] == json.dumps({
        "format_version": 1, "space": {"domains": [
            {"name": "color", "dimensions": ["hue", "sat"]},
            {"name": "size", "dimensions": ["diam"]}]},
        "defaults": {"s": 0.5, "t": 0.5, "threshold": 0.5}},
        sort_keys=True)[:-1] + ","
    assert lines[1] == '"concepts": {'
    names = sorted(kb.concepts)
    assert lines[2:-1] == [
        f"{json.dumps(name)}: "
        f"{json.dumps(concept_to_dict(kb.get_concept(name)), sort_keys=True)}"
        + ("," if name != names[-1] else "") for name in names]


def test_indented_layout_loads_and_saves_in_the_current_one(tmp_path):
    kb = _algebra_kb()
    path = tmp_path / "kb.json"
    kb.save(path)
    current = path.read_bytes()
    data = json.loads(current)
    data["defaults"]["tolerance"] = 1e-6
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    assert KnowledgeBase.load(path) == kb
    KnowledgeBase.load(path).save(path)
    assert path.read_bytes() == current


def test_save_refuses_to_overwrite_a_concurrent_change(tmp_path, fig_cross,
                                                       monkeypatch, capsys):
    path = tmp_path / "kb.json"
    KnowledgeBase(PLANE).add_concept("cross", fig_cross).save(path)
    kb = KnowledgeBase.load(path)
    path.write_bytes(path.read_bytes().replace(b'"s": 0.5', b'"s": 0.25'))
    external = path.read_bytes()
    with pytest.raises(KbFormatError, match=re.escape(str(path.resolve()))):
        kb.add_concept("copy", fig_cross).save(path)
    assert path.read_bytes() == external
    assert [p.name for p in tmp_path.iterdir()] == ["kb.json"]
    # a value saved twice to the file it came from compares with its own
    # first save, and a save elsewhere compares nothing
    fresh = KnowledgeBase.load(path).add_concept("copy", fig_cross)
    fresh.save(path)
    fresh.save(path)
    kb.save(tmp_path / "other.json")

    load = KnowledgeBase.load

    def load_then_another_writer(path, auto_normalize=False):
        loaded = load(path, auto_normalize)
        Path(path).write_bytes(external)
        return loaded

    monkeypatch.setattr(KnowledgeBase, "load",
                        staticmethod(load_then_another_writer))
    assert main(["concept", "rm", "cross", "--kb", str(path)]) == 1
    assert "changed on disk" in capsys.readouterr().err
    assert path.read_bytes() == external
