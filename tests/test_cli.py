"""Command-line interface: commands, exit codes, output determinism."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from conceptspaces import KnowledgeBase, LatticeSizeError, ValidationError
from conceptspaces.cli import export_grid, main

from conftest import PLANE, box_core, fig_cross  # noqa: F401 (fixture)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LINE_CONCEPT_A = {
    "cuboids": [{"domains": ["val"], "p_min": {"x": 0.0}, "p_max": {"x": 1.0}}],
    "mu0": 1.0,
    "c": 1.0,
    "weights": {"domains": {"val": 1.0}, "dimensions": {"x": 1.0}},
}
LINE_CONCEPT_B = {
    "cuboids": [{"domains": ["val"], "p_min": {"x": 3.0}, "p_max": {"x": 4.0}}],
    "mu0": 1.0,
    "c": 1.0,
    "weights": {"domains": {"val": 1.0}, "dimensions": {"x": 1.0}},
}


@pytest.fixture
def line_kb(tmp_path, capsys):
    path = tmp_path / "kb.json"
    assert main(["space", "init", "--kb", str(path), "--domain", "val=x"]) == 0
    for name, payload in (("a", LINE_CONCEPT_A), ("b", LINE_CONCEPT_B)):
        assert main(["concept", "add", name, "--kb", str(path),
                     "--json", json.dumps(payload)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def cross_kb(tmp_path, fig_cross):  # noqa: F811
    path = tmp_path / "cross.json"
    KnowledgeBase(PLANE).add_concept("cross", fig_cross).save(path)
    return path


class TestSpaceInit:
    def test_creates_valid_kb(self, tmp_path, capsys):
        path = tmp_path / "kb.json"
        code, out, _ = run(capsys, "space", "init", "--kb", str(path),
                           "--domain", "color=hue,sat", "--domain", "size=diam")
        assert code == 0
        kb = KnowledgeBase.load(path)
        assert kb.space.dim_names == ("hue", "sat", "diam")

    def test_refuses_to_overwrite(self, line_kb, capsys):
        code, _, err = run(capsys, "space", "init", "--kb", str(line_kb),
                           "--domain", "val=x")
        assert code == 1
        assert "--force" in err

    def test_force_overwrites(self, line_kb, capsys):
        code, _, _ = run(capsys, "space", "init", "--kb", str(line_kb),
                         "--domain", "other=z", "--force")
        assert code == 0
        assert KnowledgeBase.load(line_kb).space.dim_names == ("z",)


class TestConceptCommands:
    def test_add_show_list_rm(self, line_kb, capsys):
        code, out, _ = run(capsys, "concept", "list", "--kb", str(line_kb))
        assert code == 0 and out.splitlines() == ["a", "b"]
        code, out, _ = run(capsys, "concept", "show", "a", "--kb", str(line_kb))
        assert code == 0
        assert json.loads(out)["mu0"] == 1.0
        code, _, _ = run(capsys, "concept", "rm", "a", "--kb", str(line_kb))
        assert code == 0
        code, out, _ = run(capsys, "concept", "list", "--kb", str(line_kb))
        assert out.splitlines() == ["b"]

    def test_add_duplicate_fails(self, line_kb, capsys):
        code, _, err = run(capsys, "concept", "add", "a", "--kb", str(line_kb),
                           "--json", json.dumps(LINE_CONCEPT_A))
        assert code == 1
        assert "already exists" in err

    def test_show_unknown_name(self, line_kb, capsys):
        code, _, err = run(capsys, "concept", "show", "zzz", "--kb",
                           str(line_kb))
        assert code == 1
        assert "zzz" in err

    def test_add_from_file(self, line_kb, tmp_path, capsys):
        payload = tmp_path / "c.json"
        payload.write_text(json.dumps(LINE_CONCEPT_A))
        code, out, _ = run(capsys, "concept", "add", "copy", "--kb",
                           str(line_kb), "--file", str(payload))
        assert code == 0 and "added copy" in out


class TestMembership:
    def test_inside_core_prints_peak(self, line_kb, capsys):
        code, out, _ = run(capsys, "membership", "a", "--kb", str(line_kb),
                           "--point", "x=0.25")
        assert code == 0
        assert out == "point: x=0.25\nmembership: 1\n"

    def test_unspecified_dimensions_default_to_center(self, cross_kb, capsys):
        code, out, _ = run(capsys, "membership", "cross", "--kb",
                           str(cross_kb), "--point", "x=0.5")
        assert code == 0
        assert out.splitlines()[0] == "point: x=0.5 y=2"
        assert out.splitlines()[1] == "membership: 1"

    def test_outside_core_value(self, line_kb, capsys):
        code, out, _ = run(capsys, "membership", "a", "--kb", str(line_kb),
                           "--point", "x=3")
        assert out.splitlines()[1] == f"membership: {math.exp(-2.0):.9g}"

    def test_malformed_point_is_usage_error(self, line_kb, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["membership", "a", "--kb", str(line_kb),
                  "--point", "x==oops"])
        assert exc.value.code == 2


class TestAlphaHeight:
    def test_canonical_fixture_digits(self, line_kb, capsys):
        code, out, _ = run(capsys, "alpha-height", "a", "b", "--kb",
                           str(line_kb))
        assert code == 0
        assert out == "0.367879441\n"

    def test_tolerance_env_is_ignored(self, line_kb, capsys, monkeypatch):
        # No command reads a solver tolerance from the environment.
        monkeypatch.setenv("CSPACES_TOLERANCE", "not-a-number")
        code, out, err = run(capsys, "alpha-height", "a", "b", "--kb",
                             str(line_kb))
        assert code == 0 and err == ""
        assert out == "0.367879441\n"


class TestCombiningCommands:
    def test_intersect_stores_result(self, line_kb, capsys):
        code, out, _ = run(capsys, "intersect", "a", "b", "--out", "ab",
                           "--kb", str(line_kb))
        assert code == 0
        assert out.startswith("stored ab (peak=0.367879441")
        kb = KnowledgeBase.load(line_kb)
        assert kb.get_concept("ab").peak == pytest.approx(math.exp(-1), 1e-6)

    def test_union_stores_result(self, line_kb, capsys):
        code, out, _ = run(capsys, "union", "a", "b", "--out", "ab",
                           "--kb", str(line_kb))
        assert code == 0
        kb = KnowledgeBase.load(line_kb)
        assert kb.get_concept("ab").peak == 1.0

    def test_existing_out_name_fails(self, line_kb, capsys):
        code, _, err = run(capsys, "union", "a", "b", "--out", "a",
                           "--kb", str(line_kb))
        assert code == 1
        assert "already exists" in err

    def test_project_and_combine(self, tmp_path, capsys):
        path = tmp_path / "kb.json"
        assert main(["space", "init", "--kb", str(path),
                     "--domain", "color=hue", "--domain", "size=diam"]) == 0
        noun = {
            "cuboids": [{"domains": ["color", "size"],
                         "p_min": {"hue": 0.0, "diam": 1.0},
                         "p_max": {"hue": 1.0, "diam": 2.0}}],
            "mu0": 1.0, "c": 1.0,
            "weights": {"domains": {"color": 1.0, "size": 1.0},
                        "dimensions": {"hue": 1.0, "diam": 1.0}},
        }
        prop = {
            "cuboids": [{"domains": ["color"],
                         "p_min": {"hue": 0.2}, "p_max": {"hue": 0.4}}],
            "mu0": 1.0, "c": 1.0,
            "weights": {"domains": {"color": 1.0},
                        "dimensions": {"hue": 1.0}},
        }
        assert main(["concept", "add", "noun", "--kb", str(path),
                     "--json", json.dumps(noun)]) == 0
        assert main(["concept", "add", "prop", "--kb", str(path),
                     "--json", json.dumps(prop)]) == 0
        code, _, _ = run(capsys, "project", "noun", "--domains", "size",
                         "--out", "sized", "--kb", str(path))
        assert code == 0
        code, out, _ = run(capsys, "combine", "prop", "noun", "--out",
                           "green-noun", "--kb", str(path))
        assert code == 0
        kb = KnowledgeBase.load(path)
        assert kb.get_concept("sized").core.domain_set == {"size"}
        assert kb.get_concept("green-noun").peak == 1.0


class TestExportGrid:
    def test_csv_layout_and_determinism(self, cross_kb, tmp_path, capsys):
        args = ["export-grid", "cross", "--kb", str(cross_kb),
                "--dims", "x,y", "--range", "x=0:1,y=0:1", "--step", "0.5"]
        out1 = tmp_path / "one.csv"
        out2 = tmp_path / "two.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "x,y,membership"
        assert len(lines) == 1 + 3 * 3

    def test_constant_slice_through_core(self, cross_kb, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "export-grid", "cross", "--kb", str(cross_kb),
                         "--dims", "x,y", "--range", "x=1.6:2.4,y=1.6:2.4",
                         "--step", "0.2", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert all(row.endswith(",1") for row in rows)

    # a range wider than the largest float, and a step so small that the
    # range holds more steps than that, count infinitely many cells
    @pytest.mark.parametrize("ranges, step", [("x=-1e308:1e308,y=0:1", "0.5"),
                                              ("x=0:1,y=0:1", "5e-324")])
    def test_grid_past_the_cell_cap_is_an_error(self, cross_kb, capsys,
                                                tmp_path, ranges, step):
        code, _, err = run(capsys, "export-grid", "cross", "--kb",
                           str(cross_kb), "--dims", "x,y", "--range", ranges,
                           "--step", step, "--out", str(tmp_path / "g.csv"))
        assert code == 1
        assert err.startswith("error: lattice exceeds the cap")

    def test_grid_rejects_unknown_dimension(self, cross_kb, capsys, tmp_path):
        code, _, err = run(capsys, "export-grid", "cross", "--kb",
                           str(cross_kb), "--dims", "x,zzz",
                           "--range", "x=0:1,zzz=0:1", "--step", "0.5",
                           "--out", str(tmp_path / "g.csv"))
        assert code == 1
        assert "zzz" in err


class TestExportGridFunction:
    def test_symmetric_concept_gives_symmetric_grid(self):
        from conceptspaces import Concept, Weights
        concept = Concept(box_core(PLANE, [({"x": 0.0, "y": 0.0},
                                            {"x": 1.0, "y": 1.0})]),
                          1.0, 0.8, Weights.uniform(PLANE))
        grid = export_grid(concept, ("x", "y"),
                           {"x": (-1.0, 2.0), "y": (-1.0, 2.0)}, 0.1)
        flipped = grid.values[::-1, ::-1]
        assert np.allclose(grid.values, flipped, atol=1e-12)

    def test_refining_step_halves_membership_jumps(self, fig_cross):  # noqa: F811
        ranges = {"x": (-2.0, 6.0), "y": (-2.0, 6.0)}
        coarse = export_grid(fig_cross, ("x", "y"), ranges, 0.1)
        fine = export_grid(fig_cross, ("x", "y"), ranges, 0.05)

        def max_jump(values):
            dx = np.abs(np.diff(values, axis=0)).max()
            dy = np.abs(np.diff(values, axis=1)).max()
            return max(dx, dy)

        assert max_jump(fine.values) <= 0.55 * max_jump(coarse.values)

    def test_row_count_matches_axes(self, fig_cross):  # noqa: F811
        grid = export_grid(fig_cross, ("x", "y"),
                           {"x": (0.0, 1.0), "y": (0.0, 2.0)}, 0.5)
        assert grid.values.shape == (3, 5)
        assert grid.row_count == 15

    def test_cell_cap_is_checked_before_any_axis(self, fig_cross):  # noqa: F811
        # 5e6 points per axis: building the axes alone would take 80 MB
        tracemalloc.start()
        try:
            with pytest.raises(LatticeSizeError):
                export_grid(fig_cross, ("x", "y"),
                            {"x": (0.0, 1.0), "y": (0.0, 1.0)}, 2e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("x, step, message", [
        ((math.nan, 1.0), 0.5, "empty range"),
        ((0.0, math.inf), 0.5, "unbounded"),
        ((-math.inf, 1.0), 0.5, "unbounded"),
        ((0.0, 1.0), math.inf, "finite"),
    ])
    def test_lattice_rejects_what_it_cannot_build(self, fig_cross,  # noqa: F811
                                                  x, step, message):
        with pytest.raises(ValidationError, match=message):
            export_grid(fig_cross, ("x", "y"), {"x": x, "y": (0.0, 1.0)}, step)


class TestValidateAndErrors:
    def test_validate_ok(self, line_kb, capsys):
        code, out, _ = run(capsys, "validate", "--kb", str(line_kb))
        assert code == 0 and out == "ok\n"

    def test_validate_broken_file(self, tmp_path, capsys):
        path = tmp_path / "kb.json"
        path.write_text("{broken", encoding="utf-8")
        code, _, err = run(capsys, "validate", "--kb", str(path))
        assert code == 1
        assert "parse error" in err

    def test_missing_kb_argument(self, capsys, monkeypatch):
        monkeypatch.delenv("CSPACES_KB", raising=False)
        code, _, err = run(capsys, "validate")
        assert code == 1
        assert "--kb" in err

    def test_kb_env_fallback(self, line_kb, capsys, monkeypatch):
        monkeypatch.setenv("CSPACES_KB", str(line_kb))
        code, out, _ = run(capsys, "concept", "list")
        assert code == 0 and out.splitlines() == ["a", "b"]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["alpha-height"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["intersect", "a", "b", "--out", "c", "--s", "2"],
         "argument --s: '2' must lie in [0, 1]"),
        (["union", "a", "b", "--out", "c", "--t", "x"],
         "argument --t: invalid number 'x'"),
        (["combine", "a", "b", "--out", "c", "--threshold", "-1"],
         "argument --threshold: '-1' must lie in [0, 1]"),
    ])
    def test_unit_interval_options_reject_other_values(self, capsys, argv,
                                                       message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cspaces ") and message in err

    def test_output_is_deterministic_across_runs(self, line_kb, capsys):
        first = run(capsys, "alpha-height", "a", "b", "--kb", str(line_kb))
        second = run(capsys, "alpha-height", "a", "b", "--kb", str(line_kb))
        assert first == second
