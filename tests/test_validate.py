"""Tests for pre-flight setup validation."""

from dataclasses import replace

import pytest

from repro.common.config import paper_machine_config, small_machine_config
from repro.common.types import NVM_BASE
from repro.cpu.trace import Trace, TraceBuilder, TraceOp, OpType
from repro.sim.validate import validate_config, validate_setup, validate_traces


class TestValidateConfig:
    def test_paper_config_is_clean(self):
        report = validate_config(paper_machine_config())
        assert report.ok
        assert report.warnings == []

    def test_small_config_is_usable(self):
        report = validate_config(small_machine_config())
        assert report.ok

    def test_tiny_llc_warns_about_inclusion(self):
        config = small_machine_config(num_cores=4).scaled_llc(16 * 1024)
        report = validate_config(config)
        assert report.ok
        assert any("sum of private L2s" in w for w in report.warnings)

    def test_bad_overflow_threshold(self):
        # now rejected at construction time (config validation), before
        # validate_config can even see it
        base = small_machine_config()
        with pytest.raises(ValueError, match="overflow_threshold"):
            replace(base.txcache, overflow_threshold=1.5)

    def test_oversized_issue_window_warns(self):
        base = small_machine_config(num_cores=4)
        config = replace(base, txcache=replace(base.txcache,
                                               issue_window=64))
        report = validate_config(config)
        assert any("issue window" in w for w in report.warnings)


class TestValidateTraces:
    def test_too_many_traces_is_error(self):
        config = small_machine_config(num_cores=1)
        traces = [Trace("a"), Trace("b")]
        report = validate_traces(config, traces)
        assert not report.ok

    def test_tiny_footprint_warns(self):
        builder = TraceBuilder("tiny")
        builder.begin_tx()
        builder.store(NVM_BASE)
        builder.end_tx()
        report = validate_traces(small_machine_config(num_cores=1),
                                 [builder.build()])
        assert any("fits" in w for w in report.warnings)

    def test_oversized_tx_warns_about_fallback(self):
        builder = TraceBuilder("big")
        builder.begin_tx()
        for index in range(100):
            builder.store(NVM_BASE + index * 64)
        builder.end_tx()
        report = validate_traces(small_machine_config(num_cores=1),
                                 [builder.build()])
        assert any("copy-on-write" in w for w in report.warnings)

    def test_malformed_trace_is_error(self):
        bad = Trace("bad", [TraceOp(OpType.TX_END, tx_id=1)])
        report = validate_traces(small_machine_config(num_cores=1), [bad])
        assert not report.ok

    def test_workload_traces_pass(self):
        from repro.sim.runner import make_traces
        config = small_machine_config(num_cores=2)
        traces = make_traces("rbtree", 2, 50)
        report = validate_traces(config, traces)
        assert report.ok

    def test_format_mentions_everything(self):
        config = small_machine_config(num_cores=1)
        report = validate_setup(config, [Trace("empty")])
        text = report.format()
        assert "warning" in text or text == "setup looks sane"
