"""tools/physics_identity.py names what moved between two run files: each key that only
one side has, whatever its value, and each key whose numbers moved, by how much; and
between two stdouts, each line that moved, all but the line that names where a command
or a demo wrote; and it runs each demo by its own tree's src/."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "physics_identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("physics_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def doc(**keys) -> bytes:
    return json.dumps(keys).encode()


class TestChangedKeys:
    def test_a_key_on_one_side_is_named_whatever_its_value(self):
        want = doc(status="blown-up", T_eps=3.75, censored=False, t_blow_pointwise=3.75,
                   t_blow_threshold=None, diagnostics={"t": [0.0, 1.0]})
        got = doc(status="blown-up", T_eps=3.75, criterion="pointwise", experiment={},
                  diagnostics={"t": [0.0, 1.0]})
        assert load_tool().changed_keys(want, got, "abc123") == [
            "censored: only in abc123",
            "criterion: only in the working tree",
            "experiment: only in the working tree",
            "t_blow_pointwise: only in abc123",
            "t_blow_threshold: only in abc123",
        ]

    def test_moved_values_are_named_with_their_largest_shift(self):
        want = doc(T_eps=2.0, q=0.0, samples=[{"t": 1.0}, {"t": 2.0}], rows=[1.0, 2.0],
                   max_remainder_scaled=None, status="blown-up", same=[1.0, None, "a"])
        got = doc(T_eps=2.5, q=1e-3, samples=[{"t": 1.0}, {"t": 2.2}], rows=[1.0, 2.0, 3.0],
                  max_remainder_scaled=0.5, status="reached-t-max", same=[1.0, None, "a"])
        lines = load_tool().changed_keys(want, got, "abc123")
        assert lines == [
            "T_eps: largest relative shift 2.500e-01",
            "max_remainder_scaled: null in abc123, 0.5 in the working tree",
            "q: largest relative shift inf",
            "rows[]: 2 values in abc123, 3 in the working tree",
            "samples[].t: largest relative shift 1.000e-01",
            'status: "blown-up" in abc123, "reached-t-max" in the working tree',
        ]
        assert not any("nan" in line for line in lines)

    def test_equal_documents_differ_in_no_key(self):
        text = doc(T_eps=3.75, criterion=None, diagnostics={})
        assert load_tool().changed_keys(text, text, "abc123") == []


class TestChangedLines:
    def test_each_moved_line_is_named_on_both_sides(self):
        want = "sup |phi_hat| = 1.0\nbound_value = 0.5\ntau0 = 0.25\n"
        got = "sup |phi_hat| = 1.0\nbound_value = 0.6\ntau0 = 0.25\ngamma = 0.0625\n"
        assert load_tool().changed_lines(want, got, "abc123") == [
            "line 2: abc123 'bound_value = 0.5'",
            "line 2: working tree 'bound_value = 0.6'",
            "line 4: abc123 ''",
            "line 4: working tree 'gamma = 0.0625'",
        ]

    def test_equal_stdouts_differ_in_no_line(self):
        text = "measured order = 2.0\n"
        assert load_tool().changed_lines(text, text, "abc123") == []


class TestComparableStdout:
    def test_simulate_is_compared_all_but_where_it_wrote(self):
        # the trial and row counts are compared between commits, the output path is not
        tool = load_tool()
        assert "simulate" in tool.STDOUT_COMMANDS
        lines = ["eps = 0.4\n", "status = blown-up\n", "T_eps = 3.75\n",
                 "trials: 58 accepted, 0 rejected, 0 singular, 0 capped; rows: 0 computed, "
                 "0 refused; dt in [0.005, 0.2]\n", "wrote simulate-rev/run_eps0.4.json\n"]
        assert tool.comparable("".join(lines)) == "".join(lines[:-1])


class TestDemos:
    def test_each_demo_is_run_by_its_own_trees_src_all_but_where_it_wrote(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "marker.py").write_text('WHICH = "this tree"\n')
        (tmp_path / "demos").mkdir()
        (tmp_path / "demos" / "01_reads_src.py").write_text(
            'import marker\nprint(f"bound from {marker.WHICH}")\n'
            'print("\\nwrote out/summary.csv")\n')
        (tmp_path / "demos" / "02_plain.py").write_text('print("gamma = 0.0625")\n')
        (tmp_path / "demos" / "notes.txt").write_text("not a demo\n")
        assert load_tool().demos(tmp_path) == {"01_reads_src.py": "bound from this tree\n\n",
                                               "02_plain.py": "gamma = 0.0625\n"}
