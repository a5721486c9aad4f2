"""CLI tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_localize_defaults(self):
        args = build_parser().parse_args(["localize"])
        assert args.app == "netflix"
        assert args.limiter == "common"
        assert not args.merge_flows

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "--limiter", "noncommon", "--seeds", "3", "--app", "zoom"]
        )
        assert args.seeds == 3
        assert args.limiter == "noncommon"

    def test_fidelity_defaults_to_packet(self):
        args = build_parser().parse_args(["sweep"])
        assert args.fidelity == "packet"
        args = build_parser().parse_args(["sweep", "--fidelity", "hybrid"])
        assert args.fidelity == "hybrid"

    def test_rejects_unknown_fidelity(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--fidelity", "quantum"])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["localize", "--app", "geocities"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_topology_command_runs(self, capsys):
        code = main(["topology", "--isps", "4", "--clients", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "complete fraction" in out
        assert "topology-db entries" in out

    def test_topology_command_policy_internet(self, capsys):
        code = main(["topology", "--ases", "200", "--isps", "4",
                     "--clients", "2", "--seed", "1",
                     "--backend", "columnar"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AS graph" in out
        assert "oracle precision" in out

    def test_topology_command_dynamics(self, capsys):
        code = main(["topology", "--ases", "200", "--isps", "4",
                     "--clients", "2", "--seed", "1",
                     "--dynamics-events", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stale entries" in out

    def test_localize_command_detects_common_limiter(self, capsys):
        code = main(
            ["localize", "--app", "zoom", "--limiter", "common",
             "--duration", "30", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert "outcome" in out
        assert code == 0  # evidence found

    def test_sweep_command_reports_rates(self, capsys):
        code = main(
            ["sweep", "--app", "zoom", "--limiter", "common",
             "--duration", "25", "--seeds", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FN rate:" in out


class TestShaperArguments:
    def test_shaper_defaults_to_none(self):
        args = build_parser().parse_args(["sweep"])
        assert args.shaper is None
        assert args.shaper_params is None

    def test_shaper_and_params_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--shaper", "red", "--shaper-params", "max_p=0.2,w_q=0.1"]
        )
        assert args.shaper == "red"
        assert args.shaper_params == "max_p=0.2,w_q=0.1"

    def test_param_value_coercion(self):
        from repro.cli import _parse_shaper_params

        assert _parse_shaper_params("max_p=0.2,count=3,ecn=true,name=x") == (
            ("max_p", 0.2),
            ("count", 3),
            ("ecn", True),
            ("name", "x"),
        )

    def test_malformed_params_are_a_usage_error(self, capsys):
        code = main(
            ["sweep", "--app", "zoom", "--seeds", "1", "--duration", "4",
             "--shaper", "red", "--shaper-params", "nonsense"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_shaper_is_a_usage_error(self, capsys):
        code = main(
            ["sweep", "--app", "zoom", "--seeds", "1", "--duration", "4",
             "--shaper", "wfq"]
        )
        assert code == 2
        assert "unknown qdisc" in capsys.readouterr().err

    def test_shaper_without_hybrid_twin_is_a_usage_error(self, capsys):
        code = main(
            ["sweep", "--app", "zoom", "--limiter", "common", "--seeds", "5",
             "--duration", "2", "--fidelity", "hybrid", "--shaper", "red"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "has no hybrid implementation" in captured.err
        assert "quarantined" not in captured.err
        assert captured.out == ""

    def test_sweep_with_shaper_runs(self, capsys):
        code = main(
            ["sweep", "--app", "zoom", "--limiter", "common", "--seeds", "1",
             "--duration", "4", "--shaper", "red"]
        )
        assert code == 0
        assert "FN rate:" in capsys.readouterr().out


class TestQdiscCommand:
    def test_lists_registered_mechanisms(self, capsys):
        code = main(["qdisc"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("tbf", "red", "codel", "pie", "dual_tbf", "conditional"):
            assert name in out

    def test_build_smoke(self, capsys):
        code = main(["qdisc", "--build"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "FAILED" not in out


class TestMultipathArguments:
    def test_multipath_defaults_off(self):
        args = build_parser().parse_args(["sweep"])
        assert args.multipath == 0
        assert args.flowlet_gap is None

    def test_multipath_and_gap_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--multipath", "4", "--flowlet-gap", "0.03"]
        )
        assert args.multipath == 4
        assert args.flowlet_gap == 0.03

    def test_scenario_threading(self):
        from repro.cli import _scenario_from

        args = build_parser().parse_args(
            ["localize", "--app", "zoom", "--multipath", "2",
             "--flowlet-gap", "0.05"]
        )
        config = _scenario_from(args)
        assert config.multipath == 2
        assert config.flowlet_gap_s == 0.05
        plain = _scenario_from(build_parser().parse_args(["localize"]))
        assert plain.multipath == 0
        assert plain.flowlet_gap_s is None

    def test_gap_without_multipath_is_a_usage_error(self, capsys):
        code = main(
            ["sweep", "--app", "zoom", "--seeds", "1", "--duration", "4",
             "--flowlet-gap", "0.03"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_with_multipath_runs(self, capsys):
        code = main(
            ["sweep", "--app", "zoom", "--limiter", "common", "--seeds", "1",
             "--duration", "4", "--multipath", "2"]
        )
        assert code == 0
        assert "FN rate:" in capsys.readouterr().out
