"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope", "txcache"])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "sps", "nope"])

    @pytest.mark.parametrize("stride", ("0", "-2"))
    def test_litmus_stride_below_one_is_a_usage_error(self, stride,
                                                      capsys):
        # a stride of 0 used to step the same cycle forever
        with pytest.raises(SystemExit) as exit_info:
            main(["litmus", "--programs", "1", "--check-every", stride])
        assert exit_info.value.code == 2
        assert "--check-every: must be >= 1" in capsys.readouterr().err


#: the model: a process that only routes or serves loads none of it
SIMULATOR_MODULES = (
    "repro.cpu.core", "repro.cache.hierarchy", "repro.memory.controller",
    "repro.persistence", "repro.core.txcache", "repro.sim.runner",
    "repro.sim.system", "repro.litmus.runner")

#: packages whose re-exports load on first access (repro._lazy)
LAZY_PACKAGES = ("repro", "repro.sim", "repro.cpu", "repro.serve",
                 "repro.cluster", "repro.litmus")


def _fresh(probe: str) -> str:
    """The last line ``probe`` prints, run in a fresh interpreter."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


class TestImport:
    def test_cli_import_keeps_numpy_out(self):
        """The package declares no dependencies: importing the CLI in a
        fresh interpreter must not load numpy, even where it is
        installed (every serve and cluster process pays its import)."""
        probe = "import sys, repro.cli; print('numpy' in sys.modules)"
        assert _fresh(probe) == "False"

    @pytest.mark.parametrize("boot", [
        "import repro",
        "import repro.serve.server",
        "import repro.cluster",
        "from repro.cli import build_parser\n"
        "try:\n    build_parser().parse_args(['serve', '--help'])\n"
        "except SystemExit:\n    pass",
        "from repro.cli import build_parser\n"
        "try:\n    build_parser().parse_args(['cluster', '--help'])\n"
        "except SystemExit:\n    pass",
    ], ids=["repro", "serve.server", "cluster", "serve-help",
            "cluster-help"])
    def test_boot_path_loads_no_simulator(self, boot):
        """The router and the node boot without the model; a node's
        pool worker imports it on its first point."""
        probe = (f"{boot}\nimport sys\n"
                 f"print([name for name in {SIMULATOR_MODULES!r} "
                 f"if name in sys.modules])")
        assert _fresh(probe) == "[]"

    def test_lazy_names_resolve_to_their_submodule_objects(self):
        """Every exported name of a lazy package is listed by ``dir``
        before it loads, and is the very object its submodule
        defines."""
        probe = f"""
import importlib
for package in {LAZY_PACKAGES!r}:
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module)), package
    lazy = {{name for names in module._LAZY.values() for name in names}}
    assert lazy <= set(module.__all__), (package, lazy - set(module.__all__))
    for submodule, names in module._LAZY.items():
        source = importlib.import_module(f"{{package}}.{{submodule}}")
        for name in names:
            assert getattr(module, name) is getattr(source, name), name
    for name in module.__all__:
        getattr(module, name)
print("ok")
"""
        assert _fresh(probe) == "ok"

    def test_star_import_binds_exactly_all(self):
        probe = ("import repro\nnames = {}\n"
                 "exec('from repro import *', names)\n"
                 "names.pop('__builtins__')\n"
                 "print(sorted(names) == sorted(repro.__all__))")
        assert _fresh(probe) == "True"


class TestTables:
    def test_tables_prints_all_three(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "Table 3" in out
        assert "CAM FIFO" in out


class TestWorkloads:
    def test_lists_paper_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("graph", "rbtree", "sps", "btree", "hashtable"):
            assert name in out


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "sps", "txcache", "--operations", "20",
                     "--cores", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sps / txcache" in out
        assert "IPC" in out

    def test_run_json_output(self, capsys):
        code = main(["run", "sps", "optimal", "--operations", "20",
                     "--cores", "1", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "sps"
        assert data["scheme"] == "optimal"
        assert data["cycles"] > 0
        assert data["transactions"] > 0


class TestCompare:
    def test_compare_prints_all_schemes(self, capsys):
        code = main(["compare", "hashtable", "--operations", "20",
                     "--cores", "1"])
        assert code == 0
        out = capsys.readouterr().out
        for scheme in ("sp", "txcache", "kiln", "optimal"):
            assert scheme in out


class TestFigures:
    CAPTIONS = (
        "Figure 6: Performance improvements (IPC), normalized to Optimal",
        "Figure 7: Performance improvements (Throughput), normalized to "
        "Optimal",
        "Figure 8: LLC miss rate, normalized to Optimal",
        "Figure 9: NVM write traffic, normalized to Optimal",
        "Figure 10: Persistent load latency, normalized to Optimal",
    )

    def test_figures_render_and_jobs_do_not_change_them(self, capsys):
        outs = []
        for jobs in ("1", "2"):
            code = main(["figures", "--cores", "1", "--operations", "5",
                         "--schemes", "kiln", "--jobs", jobs])
            assert code == 0
            outs.append(capsys.readouterr().out)
        out = outs[0]
        for caption in self.CAPTIONS:
            assert caption + "\n" in out
        assert "Stall-cycle breakdown" in out
        # every figure normalizes to Optimal, so its column rides along
        header = next(line for line in out.splitlines()
                      if line.startswith("workload"))
        assert header.split() == ["workload", "kiln", "optimal"]
        assert outs[1] == out


class TestCrash:
    def test_crash_consistent_scheme_exits_zero(self, capsys):
        code = main(["crash", "sps", "txcache", "--operations", "15",
                     "--fractions", "0.3", "0.7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CONSISTENT" in out
        assert "TORN" not in out

    def test_crash_optimal_reports_but_exits_zero(self, capsys):
        # optimal has no recovery contract; torn state is informational
        code = main(["crash", "sps", "optimal", "--operations", "15",
                     "--fractions", "0.5"])
        assert code == 0

    def test_crash_negative_control_exits_nonzero(self, capsys):
        code = main(["crash", "hashtable", "broken_commit",
                     "--operations", "20"])
        assert code == 1
        assert "TORN" in capsys.readouterr().out


class TestChaos:
    def test_chaos_negative_control_exits_nonzero(self, capsys):
        code = main(["chaos", "hashtable", "--schemes", "broken_commit",
                     "--operations", "20"])
        assert code == 1
        assert "atomicity violations" in capsys.readouterr().out


class TestMix:
    def test_mix_runs_heterogeneous_cores(self, capsys):
        code = main(["mix", "sps", "hashtable", "--operations", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "core 0 (sps.core0)" in out
        assert "core 1 (hashtable.core1)" in out


class TestValidate:
    def test_validate_sane_setup(self, capsys):
        code = main(["validate", "rbtree", "--operations", "50",
                     "--cores", "2"])
        assert code == 0
        assert "looks sane" in capsys.readouterr().out


class TestTrace:
    def test_trace_stats(self, capsys):
        code = main(["trace", "graph", "--operations", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "transactions:" in out

    def test_trace_dump_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "trace.jsonl"
        code = main(["trace", "rbtree", "--operations", "10",
                     "--out", str(out_file)])
        assert code == 0
        from repro.cpu.trace import Trace
        with open(out_file) as fp:
            trace = Trace.load(fp)
        assert trace.transactions > 0
        trace.validate()


class TestTraceSimulation:
    def test_capture_writes_valid_chrome_trace(self, tmp_path, capsys):
        out_file = tmp_path / "sim.trace.json"
        code = main(["trace", "--workload", "hashtable",
                     "--scheme", "txcache", "--operations", "20",
                     "--epoch", "50", "--out", str(out_file)])
        assert code == 0
        text = capsys.readouterr().out
        assert "stall attribution" in text
        assert "perfetto" in text
        from repro.obs.schema import validate_chrome_trace
        trace = json.loads(out_file.read_text())
        assert validate_chrome_trace(trace) == []

    def test_positional_workload_also_works(self, tmp_path):
        out_file = tmp_path / "sim.trace.json"
        code = main(["trace", "sps", "--scheme", "sp",
                     "--operations", "10", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()

    def test_workload_required(self, capsys):
        assert main(["trace"]) == 2
        assert "workload is required" in capsys.readouterr().err


class TestVersion:
    def test_version_prints_and_exits_zero(self, capsys):
        from repro.cli import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {package_version()}"

    def test_version_matches_pyproject(self):
        import pathlib
        from repro.cli import package_version

        pyproject = pathlib.Path(__file__).resolve().parent.parent \
            / "pyproject.toml"
        assert f'version = "{package_version()}"' in pyproject.read_text()


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7341
        assert args.jobs == 2
        assert args.max_queue == 64
        assert args.max_inflight is None
        assert args.cache_dir is None
        assert args.cache_max_bytes is None

    def test_all_knobs(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--jobs", "4", "--cache-dir", "/tmp/c",
             "--max-queue", "16", "--max-inflight", "2",
             "--cache-max-bytes", "1048576"])
        assert (args.port, args.jobs, args.max_queue,
                args.max_inflight, args.cache_max_bytes) \
            == (0, 4, 16, 2, 1048576)


class TestSubmit:
    def test_flags_build_the_wire_request(self):
        from repro.cli import _submit_request_from_args

        args = build_parser().parse_args(
            ["submit", "sps", "txcache", "--operations", "20",
             "--seed", "7", "--cores", "1", "--preset", "small",
             "--deadline-ms", "500"])
        assert _submit_request_from_args(args) == {
            "kind": "experiment", "workload": "sps", "scheme": "txcache",
            "operations": 20, "seed": 7, "deadline_ms": 500,
            "config": {"num_cores": 1, "preset": "small"},
        }

    def test_file_spec_is_passed_through_verbatim(self, tmp_path):
        from repro.cli import _submit_request_from_args

        spec = {"workload": "sps", "scheme": "wal", "operations": 9}
        path = tmp_path / "request.json"
        path.write_text(json.dumps(spec))
        args = build_parser().parse_args(["submit", "--file", str(path)])
        assert _submit_request_from_args(args) == spec

    def test_missing_workload_is_usage_error(self, capsys):
        assert main(["submit"]) == 2
        assert "WORKLOAD" in capsys.readouterr().err

    def test_unreachable_server_exits_one(self, capsys):
        # nothing listens on port 1
        assert main(["submit", "sps", "txcache",
                     "--port", "1", "--timeout", "2"]) == 1
        assert "connection failed" in capsys.readouterr().err


class TestClusterCommand:
    def test_mode_is_required_and_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "explode"])

    def test_defaults(self):
        args = build_parser().parse_args(["cluster", "chaos"])
        assert args.cluster_mode == "chaos"
        assert args.nodes == 3
        assert args.replication == 2
        assert args.seed == 0
        assert args.hangs is False

    def test_bad_topologies_are_usage_errors(self, capsys):
        assert main(["cluster", "chaos", "--nodes", "0"]) == 2
        assert "--nodes" in capsys.readouterr().err
        assert main(["cluster", "chaos", "--nodes", "2",
                     "--replication", "5"]) == 2
        assert "--replication" in capsys.readouterr().err
