"""Unknown engine/device names raise one well-typed error everywhere."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.cli import main
from repro.engines import make_engine
from repro.errors import ConfigurationError, ReproError
from repro.hardware import get_profile
from repro.serving import Server


class TestConfigurationError:
    def test_unknown_engine_lists_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            make_engine("warp-speed")
        message = str(excinfo.value)
        assert "warp-speed" in message
        assert "resolution" in message and "multipass" in message

    def test_unknown_device_lists_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_profile("rtx9090")
        message = str(excinfo.value)
        assert "rtx9090" in message
        assert "gtx970" in message

    def test_subclasses_both_legacy_types(self):
        """Callers that caught ReproError (engines) or KeyError
        (profiles) keep working."""
        with pytest.raises(ReproError):
            make_engine("nope")
        with pytest.raises(KeyError):
            get_profile("nope")
        # str() is the plain message, not KeyError's repr-quoting.
        assert str(ConfigurationError("plain message")) == "plain message"

    def test_session_surfaces_unknown_engine(self, tiny_db):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            Session(tiny_db, engine="warp-speed")
        session = Session(tiny_db)
        with pytest.raises(ConfigurationError, match="unknown engine"):
            session.execute("select count(*) as n from date", engine="warp-speed")

    def test_session_surfaces_unknown_device(self, tiny_db):
        with pytest.raises(ConfigurationError, match="unknown device"):
            Session(tiny_db, device="rtx9090")

    def test_server_surfaces_unknown_names(self, tiny_db):
        with pytest.raises(ConfigurationError, match="unknown device"):
            Server(tiny_db, device="rtx9090", workers=1)
        with pytest.raises(ConfigurationError, match="unknown engine"):
            Server(tiny_db, engine="warp-speed", workers=1)


class TestCliConfigurationError:
    def test_unknown_device_exits_2_with_message(self, capsys):
        code = main(
            ["query", "select count(*) as n from date",
             "--scale-factor", "0.001", "--device", "rtx9090"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "unknown device" in captured.err
        assert "gtx970" in captured.err


class TestOneConfigurationPath:
    """Session, Server and the CLI validate through the same
    ExecutionConfig, so an invalid configuration raises the same
    message from each."""

    SQL = "select count(*) as n from date"

    @pytest.fixture
    def plan_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"specs": []}')
        return str(path)

    def _cases(self, plan_path):
        engine = make_engine("resolution")
        return [
            # (library kwargs, CLI argv)
            ({"devices": "many"},
             ["query", self.SQL, "--devices", "many"]),
            ({"engine": "auto", "fault_plan": plan_path},
             ["query", self.SQL, "--engine", "auto", "--fault-plan", plan_path]),
            ({"engine": engine, "devices": "auto"},
             ["bench", "q1.1", "--devices", "auto"]),
        ]

    def test_same_message_everywhere(self, tiny_db, plan_path, capsys):
        for kwargs, argv in self._cases(plan_path):
            with pytest.raises(ConfigurationError) as from_session:
                Session(tiny_db, **kwargs)
            with pytest.raises(ConfigurationError) as from_server:
                Server(tiny_db, workers=1, **kwargs)
            message = str(from_session.value)
            assert str(from_server.value) == message
            assert main(argv + ["--scale-factor", "0.001"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
