"""The litmus engine end to end: stepped sweeps, the broken scheme,
minimization, fault composition, and the serve/CLI surfaces."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.common.config import FaultConfig, small_machine_config
from repro.common.types import SchemeName
from repro.litmus import (
    BROKEN_COMMIT,
    CLASSIC_SHAPES,
    LitmusProgram,
    check_membership,
    default_suite,
    minimize_violation,
    random_program,
    run_litmus,
    run_litmus_matrix,
    tx_summaries,
)
from repro.litmus.generator import message_passing, private_chain
from repro.litmus.runner import (MAX_VIOLATION_RECORDS, LitmusResult,
                                 iter_crash_states)
from repro.serve.protocol import ProtocolError, parse_request
from repro.sim.parallel import LitmusPoint
from repro.sim.system import System

SCHEMES = ("sp", "kiln", "txcache")
#: the six real schemes plus the negative control
STEPPED_SCHEMES = ("sp", "kiln", "txcache", "undo_log", "redo_log",
                   "hybrid_dram", BROKEN_COMMIT)


def loaded_system(program, scheme):
    system = System(small_machine_config(num_cores=program.num_cores),
                    scheme)
    system.load_traces(program.to_traces())
    return system


def reference_crash_states(system, check_every=1):
    """The model stepper: run to every stride cycle in turn and yield
    the state wherever an event executed.  It pays one ``run`` per
    stride cycle, which ``iter_crash_states`` must not."""
    cycle = 0
    last_events = -1
    while True:
        system.run(until=cycle)
        if system.events_executed != last_events:
            last_events = system.events_executed
            yield (cycle,
                   system.scheme.durably_committed(cycle),
                   system.scheme.durable_lines(cycle))
        if system.sim.pending() == 0:
            return
        cycle += check_every


def reference_litmus(program, scheme, check_every=1):
    """The model runner: the model stepper, and a fresh oracle check
    at every state.  Returns the result and the states it checked."""
    system = loaded_system(program, scheme)
    summaries = tx_summaries(program.to_traces())
    states = list(reference_crash_states(system, check_every))
    result = LitmusResult(
        program=program.name, fingerprint=program.fingerprint,
        scheme=SchemeName.parse(scheme).value,
        total_cycles=system.sim.now,
        crash_cycles=system.sim.now // check_every + 1,
        states_checked=len(states))
    for cycle, committed, recovered in states:
        messages = check_membership(summaries, committed, recovered)
        if messages:
            result.violating_cycles += 1
            if len(result.violations) < MAX_VIOLATION_RECORDS:
                result.violations.append({"crash_cycle": cycle,
                                          "committed": sorted(committed),
                                          "messages": messages})
    return result, states


def assert_steps_like_reference(program, scheme, check_every):
    reference, states = reference_litmus(program, scheme, check_every)
    stepped = list(iter_crash_states(loaded_system(program, scheme),
                                     check_every=check_every))
    assert stepped == states, f"{program.name}/{scheme}/{check_every}"
    result = run_litmus(program, scheme, check_every=check_every)
    assert result.to_dict() == reference.to_dict()


class TestCleanMatrix:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_classic_shapes_are_consistent_at_every_cycle(self, scheme):
        for shape in CLASSIC_SHAPES:
            result = run_litmus(shape(), scheme)
            assert result.consistent, (
                f"{result.program}/{scheme}: {result.first_violation}")
            # the sweep actually covered the whole run
            assert result.crash_cycles == result.total_cycles + 1
            assert 0 < result.states_checked <= result.crash_cycles

    def test_check_every_stride_covers_fewer_states(self):
        program = message_passing()
        dense = run_litmus(program, "txcache")
        strided = run_litmus(program, "txcache", check_every=8)
        assert strided.consistent
        assert strided.states_checked < dense.states_checked

    def test_matrix_report_aggregates(self):
        report = run_litmus_matrix([message_passing(), private_chain()],
                                   SCHEMES)
        assert report.total_runs == 6
        assert report.consistent_runs == 6
        assert report.violations == []
        assert "6 runs" in report.format()


class TestSteppedStatesMatchFreshRuns:
    """Soundness of the single-simulation sweep: the state the stepped
    runner checks at cycle C equals what a fresh simulation paused at
    C reports — for every scheme's recovery model."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_differential_at_sampled_cycles(self, scheme):
        program = message_passing()
        config = small_machine_config(num_cores=program.num_cores)

        stepped = System(config, scheme)
        stepped.load_traces(program.to_traces())
        states = {cycle: (committed, dict(recovered))
                  for cycle, committed, recovered
                  in iter_crash_states(stepped)}

        samples = sorted(states)[:: max(1, len(states) // 12)]
        for cycle in samples:
            fresh = System(config, scheme)
            fresh.load_traces(program.to_traces())
            fresh.run(until=cycle)
            assert fresh.scheme.durably_committed(cycle) == \
                states[cycle][0], f"committed diverged @ {cycle}"
            assert fresh.scheme.durable_lines(cycle) == \
                states[cycle][1], f"image diverged @ {cycle}"


class TestEventStepping:
    """Stepping from event to event and reusing unchanged verdicts
    yield what the cycle-by-cycle model yields."""

    @pytest.mark.parametrize("check_every", (1, 3, 8))
    @pytest.mark.parametrize("scheme", STEPPED_SCHEMES)
    def test_default_suite_matches_the_model(self, scheme, check_every):
        for program in default_suite(0):
            assert_steps_like_reference(program, scheme, check_every)

    @given(seed=st.integers(0, 2**32 - 1),
           cores=st.integers(1, 3),
           scheme=st.sampled_from(STEPPED_SCHEMES),
           check_every=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_random_programs_match_the_model(self, seed, cores, scheme,
                                             check_every):
        assert_steps_like_reference(random_program(seed, cores=cores),
                                    scheme, check_every)

    def test_work_is_one_run_per_state_and_one_check_per_change(
            self, monkeypatch):
        program = message_passing()
        states = list(iter_crash_states(loaded_system(program, "txcache")))
        changes = sum(
            index == 0 or state[1:] != states[index - 1][1:]
            for index, state in enumerate(states))
        assert changes < len(states)

        runs, checks = [], []
        real_run = System.run
        real_check = check_membership

        def counting_run(system, *args, **kwargs):
            runs.append(kwargs.get("until"))
            return real_run(system, *args, **kwargs)

        def counting_check(*args, **kwargs):
            checks.append(args[1])
            return real_check(*args, **kwargs)

        monkeypatch.setattr(System, "run", counting_run)
        monkeypatch.setattr("repro.litmus.runner.check_membership",
                            counting_check)
        result = run_litmus(program, "txcache")
        assert result.states_checked == len(states)
        assert runs == [cycle for cycle, _, _ in states]
        assert len(checks) == changes

    @pytest.mark.parametrize("check_every", (0, -1))
    def test_rejects_a_stride_below_one(self, check_every):
        program = message_passing()
        with pytest.raises(ValueError, match="check_every must be >= 1"):
            run_litmus(program, "txcache", check_every=check_every)
        with pytest.raises(ValueError, match="check_every must be >= 1"):
            next(iter_crash_states(loaded_system(program, "txcache"),
                                   check_every=check_every))
        with pytest.raises(ValueError, match="check_every must be >= 1"):
            LitmusPoint(program=program.canonical_json(),
                        scheme="txcache",
                        config=small_machine_config(num_cores=2),
                        check_every=check_every)


class TestBrokenScheme:
    def test_broken_commit_is_caught_on_every_classic_shape(self):
        for shape in CLASSIC_SHAPES:
            result = run_litmus(shape(), BROKEN_COMMIT)
            assert not result.consistent, result.program
            assert result.first_violation is not None

    def test_violation_minimizes_to_a_tiny_counterexample(self):
        small = minimize_violation(message_passing(), BROKEN_COMMIT)
        assert small.op_count <= 8
        small.validate()
        # still failing after the rename
        assert not run_litmus(small, BROKEN_COMMIT).consistent

    def test_minimizer_rejects_passing_programs(self):
        from repro.litmus import minimize_program

        with pytest.raises(ValueError, match="requires a failing"):
            minimize_program(message_passing(), lambda p: False)

    def test_unknown_scheme_raises_before_any_point_runs(self,
                                                        monkeypatch):
        executed = []
        monkeypatch.setattr("repro.sim.parallel.execute_point",
                            lambda *a, **k: executed.append(a))
        with pytest.raises(ValueError, match="bogus"):
            run_litmus_matrix([message_passing()], ["txcache", "bogus"])
        assert executed == []

    def test_broken_scheme_is_not_a_servable_scheme(self):
        with pytest.raises(ProtocolError, match="scheme must be one of"):
            parse_request({"kind": "litmus",
                           "program": message_passing().to_dict(),
                           "scheme": BROKEN_COMMIT,
                           "config": {"num_cores": 2}})


class TestFaultComposition:
    def test_consistent_under_injected_faults(self):
        faults = FaultConfig(seed=7, nvm_write_fail_rate=1e-3,
                             ack_loss_rate=1e-3, tc_bit_flip_rate=1e-4)
        report = run_litmus_matrix(
            [message_passing(), private_chain()], ["txcache"],
            fault_config=faults)
        assert report.total_runs == 2
        assert all(r.consistent for r in report.results), \
            report.violations
        assert all(r.faulty for r in report.results)

    def test_fault_seeds_differ_per_run(self):
        # the matrix derives per-run seeds chaos_sweep-style; two runs
        # of the same program must not share a fault timeline
        faults = FaultConfig(seed=0, nvm_write_fail_rate=0.05)
        program = message_passing()
        a = run_litmus(program, "txcache",
                       fault_config=FaultConfig(seed=0,
                                                nvm_write_fail_rate=0.05))
        b = run_litmus(program, "txcache",
                       fault_config=FaultConfig(seed=1,
                                                nvm_write_fail_rate=0.05))
        report = run_litmus_matrix([program, program], ["txcache"],
                                   fault_config=faults)
        assert [r.total_cycles for r in report.results] == \
            [a.total_cycles, b.total_cycles]


class TestServeProtocol:
    def request(self, **over):
        data = {"kind": "litmus",
                "program": message_passing().to_dict(),
                "scheme": "txcache",
                "config": {"num_cores": 2}}
        data.update(over)
        return data

    def test_parses_to_the_engine_identical_point(self):
        program = message_passing()
        parsed = parse_request(self.request()).point
        built = LitmusPoint(
            program=program.canonical_json(), scheme="txcache",
            config=small_machine_config(num_cores=2))
        assert parsed == built
        assert parsed.key == built.key

    def test_deadline_and_check_every(self):
        request = parse_request(self.request(check_every=4,
                                             deadline_ms=1500))
        assert request.point.check_every == 4
        assert request.deadline == 1.5

    def test_rejects_program_on_other_kinds(self):
        with pytest.raises(ProtocolError, match="only applies to litmus"):
            parse_request({"kind": "experiment", "workload": "sps",
                           "scheme": "txcache",
                           "program": message_passing().to_dict()})

    def test_rejects_workload_keys_on_litmus(self):
        with pytest.raises(ProtocolError, match="does not apply"):
            parse_request(self.request(workload="sps"))

    def test_rejects_missing_program(self):
        data = self.request()
        del data["program"]
        with pytest.raises(ProtocolError, match="requires a program"):
            parse_request(data)

    def test_rejects_malformed_program(self):
        bad = {"name": "x", "cores": [[{"op": "store", "line": 0}]]}
        with pytest.raises(ProtocolError,
                           match="store outside a transaction"):
            parse_request(self.request(program=bad))

    def test_rejects_too_few_cores(self):
        with pytest.raises(ProtocolError, match="needs 2 cores"):
            parse_request(self.request(config={"num_cores": 1}))

    def test_litmus_point_roundtrips_through_execute(self):
        program = private_chain()
        point = LitmusPoint(
            program=program.canonical_json(), scheme="kiln",
            config=small_machine_config(num_cores=2))
        payload = point.execute()
        restored = LitmusPoint.deserialize(json.loads(json.dumps(payload)))
        assert restored.consistent
        assert restored.program == program.name


class TestCli:
    def test_small_clean_matrix_exits_zero(self, capsys):
        assert main(["litmus", "--programs", "6",
                     "--schemes", "kiln", "txcache"]) == 0
        out = capsys.readouterr().out
        assert "litmus matrix: 12 runs" in out
        assert "OK" in out and "VIOLATION" not in out

    def test_broken_scheme_exits_nonzero_and_minimizes(self, capsys):
        code = main(["litmus", "--programs", "1",
                     "--schemes", "broken_commit", "--minimize"])
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "minimized mp/broken_commit" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["litmus", "--programs", "2",
                     "--schemes", "txcache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["matrix"]) == 2
        assert payload["matrix"][0]["violating_cycles"] == 0

    def test_chaos_flag_adds_fault_subset(self, capsys):
        assert main(["litmus", "--programs", "2",
                     "--schemes", "kiln", "--chaos", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["chaos"]) == 2
        assert all(r["faulty"] for r in payload["chaos"])
        assert not any(r["faulty"] for r in payload["matrix"])
