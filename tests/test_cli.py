"""CLI tests (invoking main() in-process)."""

import pytest

from repro.cli import main, _parse_traffic
from repro.util.errors import ReproError


class TestParsing:
    def test_traffic_spec(self):
        scenario = _parse_traffic("m-6:m-8:90")
        assert len(scenario.specs) == 1
        spec = scenario.specs[0]
        assert (spec.src, spec.dst) == ("m-6", "m-8")
        assert spec.rate == 90e6

    def test_multiple_streams(self):
        scenario = _parse_traffic("m-6:m-8:90,m-1:m-2:10")
        assert len(scenario.specs) == 2

    def test_none(self):
        assert _parse_traffic(None) is None
        assert _parse_traffic("") is None

    def test_bad_spec(self):
        with pytest.raises(ReproError, match="src:dst:rateMbps"):
            _parse_traffic("m-6/m-8/90")


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Remos" in out
        assert "m-8" in out

    def test_select_dynamic_avoids_traffic(self, capsys):
        assert main(["select", "--traffic", "m-6:m-8:90", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "m-6" not in out.split("selected")[1].splitlines()[0]

    def test_select_static(self, capsys):
        assert main(["select", "--static", "--nodes", "2"]) == 0
        assert "static capacities" in capsys.readouterr().out

    def test_query(self, capsys):
        assert main(["query", "--hosts", "m-1,m-4", "--warmup", "5"]) == 0
        out = capsys.readouterr().out
        assert "m-1->m-4" in out
        assert "100Mbps" in out

    def test_query_needs_two_hosts(self, capsys):
        assert main(["query", "--hosts", "m-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_table2_single_row(self, capsys):
        assert main(["table2", "--rows", "FFT (512)/2"]) == 0
        out = capsys.readouterr().out
        assert "FFT (512)" in out
        assert "%" in out

    def test_table2_unknown_row(self, capsys):
        assert main(["table2", "--rows", "nonsense"]) == 2
        assert "unknown row" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestTop:
    def test_top_renders_one_screen_against_a_live_server(self, capsys):
        from repro import obs
        from repro.service import RemosService, serve_aio
        from repro.testbed import build_cmu_testbed

        obs.reset_observability()
        obs.configure_observability(metrics=True, tracing=True, logging=False)
        service = RemosService.from_world(
            build_cmu_testbed(poll_interval=0.5),
            sweep_interval=0.01,
            sim_step=0.5,
            slow_query_threshold=0.0,
        )
        service.start(warmup=2.0)
        server = serve_aio(service, port=0)
        base = f"http://127.0.0.1:{server.address[1]}"
        try:
            from repro.core import Flow

            service.flow_info(variable_flows=[Flow(src="m-1", dst="m-4")])
            code = main(
                ["top", "--url", base, "--iterations", "2",
                 "--interval", "0.1", "--no-clear"]
            )
        finally:
            server.stop()
            service.stop()
            obs.reset_observability()
        assert code == 0
        out = capsys.readouterr().out
        assert "remos top" in out
        assert "health: ok" in out
        assert "flow_info" in out
        assert "slow queries" in out
        assert "sweeps/s" in out  # second poll renders deltas

    def test_top_unreachable_server_exits_with_error(self, capsys):
        code = main(
            ["top", "--url", "http://127.0.0.1:1", "--iterations", "1",
             "--timeout", "0.5"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
