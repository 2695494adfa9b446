"""End-to-end tests for the ``repro analyze`` CLI command."""

import json

from repro.cli import main

#: A small, fast target mix: one corpus entry and one workload.
TARGETS = ["showcase_gcd", "figure4_loop"]


def _run(capsys, *argv):
    code = main(["analyze", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTextOutput:
    def test_named_targets(self, capsys):
        code, out, _ = _run(capsys, *TARGETS)
        assert code == 0
        assert "== showcase_gcd" in out
        assert "== figure4_loop" in out
        assert "2 program(s) analyzed" in out

    def test_loop_bounds_rendered(self, capsys):
        code, out, _ = _run(capsys, "figure4_loop")
        assert code == 0
        assert "loop @" in out

    def test_unknown_target_exits_2(self, capsys):
        code, _, err = _run(capsys, "no_such_program")
        assert code == 2
        assert "unknown analyze target" in err


class TestJsonOutput:
    def test_report_shape(self, capsys):
        code, out, _ = _run(capsys, "--json", *TARGETS)
        assert code == 0
        report = json.loads(out)
        assert report["version"] == 1
        names = [row["name"] for row in report["programs"]]
        assert names == TARGETS
        for row in report["programs"]:
            assert row["blocks"] > 0
            assert len(row["policy_digest"]) == 64
            assert row["soundness_violations"] == []
            assert isinstance(row["findings"], list)

    def test_selfcheck_clean(self, capsys):
        code, out, _ = _run(capsys, "--json", "--selfcheck", *TARGETS)
        assert code == 0
        report = json.loads(out)
        for row in report["programs"]:
            assert row["soundness_violations"] == []


class TestBaseline:
    def test_roundtrip_is_clean(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "--json", *TARGETS)
        assert code == 0
        baseline = tmp_path / "baseline.json"
        baseline.write_text(out)
        code, out, _ = _run(capsys, "--json", "--baseline", str(baseline),
                            *TARGETS)
        assert code == 0
        report = json.loads(out)
        for row in report["programs"]:
            assert row["new_findings"] == []

    def test_new_finding_fails(self, capsys, tmp_path):
        # An empty baseline makes every existing finding "new"; pick a
        # target that is known to carry at least one finding (the
        # vulnerable_process workload ships an intentionally dead gadget).
        code, out, _ = _run(capsys, "--json", "vulnerable_process")
        assert code == 0
        findings = json.loads(out)["programs"][0]["findings"]
        assert findings, "expected vulnerable_process to carry lint findings"

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 1, "programs": []}))
        code, out, _ = _run(capsys, "--json", "--baseline", str(baseline),
                            "vulnerable_process")
        assert code == 1
        report = json.loads(out)
        assert report["programs"][0]["new_findings"] == findings

    def test_unreadable_baseline_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = _run(capsys, "--baseline", str(bad), *TARGETS)
        assert code == 2
        assert "cannot read baseline" in err


class TestPolicyArtifacts:
    def test_policy_out_writes_valid_policies(self, capsys, tmp_path):
        from repro.dataflow import StaticPolicy

        out_dir = tmp_path / "policies"
        code, _, _ = _run(capsys, "--policy-out", str(out_dir), *TARGETS)
        assert code == 0
        for name in TARGETS:
            path = out_dir / ("%s.policy.json" % name)
            assert path.exists()
            policy = StaticPolicy.from_json(json.loads(path.read_text()))
            assert policy.valid_pairs

    def test_lang_file_target(self, capsys, tmp_path):
        source = tmp_path / "tiny.lang"
        source.write_text(
            "fn main() {\n"
            "    var i = 0;\n"
            "    while (i < 5) { i = i + 1; }\n"
            "    print(i);\n"
            "    printc(10);\n"
            "    return 0;\n"
            "}\n"
        )
        code, out, _ = _run(capsys, "--json", str(source))
        assert code == 0
        report = json.loads(out)
        assert report["programs"][0]["name"] == "tiny"
        bounds = report["programs"][0]["loop_bounds"]
        assert any(b["max_back_edges"] is not None for b in bounds)
