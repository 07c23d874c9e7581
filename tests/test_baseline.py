"""Perf-regression sentinel: record/check round-trips, drift detection.

The acceptance criterion: a clean re-measurement passes against a fresh
store, while a deliberately perturbed cost constant (simulated here by
injecting perturbed fingerprints) fails with a per-metric drift report.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.telemetry.baseline import (
    BASELINE_QUERIES,
    METRIC_TOLERANCES,
    check_baselines,
    load_baselines,
    measure_fingerprint,
    record_baselines,
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One recorded store shared by the module (measurement is fast but
    not free: 6 queries x 2 generated databases)."""
    path = str(tmp_path_factory.mktemp("baselines") / "perf_baselines.json")
    return path, record_baselines(path=path, scale_factor=0.002)


class TestRecord:
    def test_store_shape(self, store):
        path, data = store
        assert data["version"] == 1
        # Every query is fingerprinted six times: raw, under
        # compression="auto" (":compressed"), under compression="lazy"
        # (":lazy", late materialization), on the multipass engine
        # (":multipass"), on the operator-at-a-time engine (":operator")
        # and on a two-device fleet (":devices2").
        expected = {f"{workload}:{name}" for workload, name in BASELINE_QUERIES}
        expected |= {
            f"{key}:{twin}"
            for key in expected
            for twin in ("compressed", "lazy", "multipass", "operator", "devices2")
        }
        assert set(data["queries"]) == expected
        for fingerprint in data["queries"].values():
            assert set(fingerprint) == set(METRIC_TOLERANCES)
            # q3.2's filters select nothing at SF 0.002 — rows can be 0.
            assert fingerprint["rows"] >= 0
            assert fingerprint["peak_alloc_bytes"] > 0

    def test_written_file_round_trips(self, store):
        path, data = store
        assert load_baselines(path) == json.load(open(path)) == data

    def test_load_rejects_garbage(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_baselines(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ConfigurationError, match="not a baseline store"):
            load_baselines(str(bad))

    def test_measurement_is_deterministic(self, ssb_db):
        from repro.hardware.profiles import GTX970

        first = measure_fingerprint("ssb", "q1.1", ssb_db, GTX970)
        second = measure_fingerprint("ssb", "q1.1", ssb_db, GTX970)
        assert first == second


class TestCheck:
    def test_clean_remeasure_passes(self, store):
        path, _ = store
        report = check_baselines(path)
        assert report.passed, report.render()
        assert not report.missing and not report.unexpected
        assert "PASS" in report.render()

    def test_perturbed_fingerprint_fails_with_drift_report(self, store):
        """A 5% cost shift on one query must fail exactly that metric."""
        _, data = store
        current = copy.deepcopy(data["queries"])
        current["ssb:q1.1"]["sim_ms"] *= 1.05
        report = check_baselines(data, current=current)
        assert not report.passed
        failures = report.failures
        assert [(f.query, f.metric) for f in failures] == [("ssb:q1.1", "sim_ms")]
        rendered = report.render()
        assert "FAIL" in rendered
        assert "DRIFT    ssb:q1.1 sim_ms" in rendered
        assert "+5.00%" in rendered

    def test_byte_metrics_have_zero_tolerance(self, store):
        _, data = store
        current = copy.deepcopy(data["queries"])
        current["tpch:q6"]["pcie_bytes"] += 1
        report = check_baselines(data, current=current)
        assert [(f.query, f.metric) for f in report.failures] == [
            ("tpch:q6", "pcie_bytes")
        ]

    def test_tolerance_scale_widens_bands(self, store):
        _, data = store
        current = copy.deepcopy(data["queries"])
        current["ssb:q2.1"]["kernel_ms"] *= 1.05
        assert not check_baselines(data, current=current).passed
        assert check_baselines(data, current=current, tolerance_scale=10).passed

    def test_missing_and_unexpected_queries_fail(self, store):
        _, data = store
        current = copy.deepcopy(data["queries"])
        moved = current.pop("ssb:q4.1")
        current["ssb:q9.9"] = moved
        report = check_baselines(data, current=current)
        assert not report.passed
        assert report.missing == ["ssb:q4.1"]
        assert report.unexpected == ["ssb:q9.9"]
        rendered = report.render()
        assert "MISSING  ssb:q4.1" in rendered
        assert "NEW      ssb:q9.9" in rendered


class TestCommittedBaselines:
    def test_committed_store_matches_main(self):
        """The repo's committed baselines pass against a fresh run —
        the same gate CI applies."""
        report = check_baselines("benchmarks/baselines/perf_baselines.json")
        assert report.passed, report.render()


class TestCli:
    def test_record_then_check(self, tmp_path, capsys):
        path = str(tmp_path / "bl.json")
        assert main(["baseline", "record", "--baseline", path]) == 0
        assert "recorded 36 query baselines" in capsys.readouterr().out
        assert main(["baseline", "check", "--baseline", path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_fails_on_tampered_store(self, tmp_path, capsys):
        path = tmp_path / "bl.json"
        assert main(["baseline", "record", "--baseline", str(path)]) == 0
        capsys.readouterr()
        store = json.loads(path.read_text())
        store["queries"]["ssb:q1.1"]["kernel_launches"] += 2
        path.write_text(json.dumps(store))
        assert main(["baseline", "check", "--baseline", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "kernel_launches" in out

    def test_check_missing_store_is_config_error(self, capsys):
        assert main(["baseline", "check", "--baseline", "/no/such.json"]) == 2
        assert "error:" in capsys.readouterr().err
