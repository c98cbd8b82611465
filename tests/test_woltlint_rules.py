"""Per-rule tests for the woltlint invariant checker.

Every rule gets at least one true-positive fixture and one clean
fixture, exercised through :func:`tools.woltlint.analyze_source` with a
virtual path (several rules are path-scoped).
"""

from __future__ import annotations

import textwrap

from tools.woltlint import analyze_source
from tools.woltlint.rules import RULES


def findings_for(source: str, path: str = "core/module.py",
                 select=None):
    return analyze_source(textwrap.dedent(source), path, select=select)


def codes(source: str, path: str = "core/module.py", select=None):
    return [f.rule for f in findings_for(source, path, select=select)]


class TestRegistry:
    def test_all_fifteen_rules_registered(self):
        assert set(RULES) == {"W001", "W002", "W003", "W004", "W005",
                              "W006", "W007", "W008", "W009", "W010",
                              "W011", "W012", "W013", "W014", "W015"}

    def test_rules_carry_metadata(self):
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.name
            assert rule.description
            assert rule.rationale


class TestW001UnseededRng:
    def test_unseeded_default_rng_flagged(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()
        """
        assert codes(src) == ["W001"]

    def test_bare_default_rng_import_flagged(self):
        src = """
        from numpy.random import default_rng
        rng = default_rng()
        """
        assert codes(src) == ["W001"]

    def test_global_state_call_flagged(self):
        src = """
        import numpy as np
        np.random.seed(3)
        x = np.random.uniform(0, 1, 5)
        """
        assert codes(src) == ["W001", "W001"]

    def test_seeded_generator_clean(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(42)
        child = np.random.default_rng(np.random.SeedSequence(1))
        x = rng.uniform(0, 1, 5)
        y = rng.random(3)
        """
        assert codes(src) == []


class TestW002SeedArithmetic:
    def test_seed_plus_offset_flagged(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(seed + 1000 + trial)
        """
        assert codes(src) == ["W002"]

    def test_seed_sequence_arithmetic_flagged(self):
        src = """
        import numpy as np
        ss = np.random.SeedSequence(2 * base_seed)
        """
        assert codes(src) == ["W002"]

    def test_spawned_children_clean(self):
        src = """
        import numpy as np
        children = np.random.SeedSequence(seed).spawn(4)
        rng = np.random.default_rng(children[2])
        plain = np.random.default_rng(seed)
        """
        assert codes(src) == []

    def test_arithmetic_without_seed_name_clean(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(2 + 3)
        """
        assert codes(src) == []


class TestW003ScalarEvalInLoop:
    def test_evaluate_in_for_loop_flagged(self):
        src = """
        def search(scenario, candidates):
            best = None
            for cand in candidates:
                value = evaluate(scenario, cand).aggregate
            return best
        """
        assert codes(src) == ["W003"]

    def test_evaluate_in_while_and_comprehension_flagged(self):
        src = """
        def search(scenario, cands):
            while cands:
                engine.evaluate(scenario, cands.pop())
            return [evaluate(scenario, c) for c in cands]
        """
        assert codes(src) == ["W003", "W003"]

    def test_batch_call_in_loop_clean(self):
        src = """
        def search(scenario, chunks):
            for chunk in chunks:
                evaluate_batch(scenario, chunk)
        """
        assert codes(src) == []

    def test_evaluate_outside_loop_clean(self):
        src = """
        def score(scenario, assignment):
            return evaluate(scenario, assignment).aggregate
        """
        assert codes(src) == []

    def test_nested_function_escapes_enclosing_loop(self):
        # The def runs later, not per-iteration: lexical nesting inside
        # a loop does not make the call a per-iteration call.
        src = """
        def outer(scenario):
            for _ in range(3):
                def helper(vec):
                    return evaluate(scenario, vec)
        """
        assert codes(src) == []

    def test_scoped_to_core_and_sim(self):
        src = """
        def search(scenario, candidates):
            for cand in candidates:
                evaluate(scenario, cand)
        """
        assert codes(src, path="experiments/module.py") == []
        assert codes(src, path="src/repro/sim/module.py") == ["W003"]
        assert codes(src, path="src/repro/fleet/module.py") == ["W003"]


class TestW004ReportMutation:
    def test_attribute_assignment_flagged(self):
        src = """
        report.aggregate = 3.0
        """
        assert codes(src) == ["W004"]

    def test_augmented_and_setattr_flagged(self):
        src = """
        batch_report.user_throughputs += 1.0
        object.__setattr__(report, "aggregate", 0.0)
        """
        assert codes(src) == ["W004", "W004"]

    def test_building_and_binding_clean(self):
        src = """
        report = evaluate(scenario, assignment)
        self.report = report
        value = report.aggregate
        other.assignment = vec
        """
        assert codes(src) == []


class TestW005UnitSuffix:
    def test_float_field_without_suffix_flagged(self):
        src = """
        class Result:
            capacity: float
        """
        assert codes(src) == ["W005"]

    def test_float_parameter_without_suffix_flagged(self):
        src = """
        def allocate(total_throughput: float) -> float:
            return total_throughput
        """
        assert codes(src) == ["W005"]

    def test_suffixed_and_nonfloat_clean(self):
        src = """
        class Result:
            capacity_mbps: float
            throughputs: tuple
            n_users: int

        def allocate(link_capacity_mbps: float, alpha: float) -> float:
            return link_capacity_mbps * alpha
        """
        assert codes(src) == []


class TestW006BareExceptInEngine:
    def test_bare_except_flagged_in_engine(self):
        src = """
        try:
            allocate()
        except:
            pass
        """
        assert codes(src, path="src/repro/net/engine.py") == ["W006"]

    def test_swallowing_broad_except_flagged(self):
        src = """
        try:
            allocate()
        except Exception:
            result = None
        """
        assert codes(src, path="src/repro/plc/sharing.py") == ["W006"]

    def test_reraising_broad_except_clean(self):
        src = """
        try:
            allocate()
        except Exception as exc:
            raise RuntimeError("engine failure") from exc
        """
        assert codes(src, path="src/repro/wifi/sharing.py") == []

    def test_narrow_except_clean(self):
        src = """
        try:
            allocate()
        except ValueError:
            result = None
        """
        assert codes(src, path="src/repro/net/engine.py") == []

    def test_rule_scoped_to_engine_modules(self):
        src = """
        try:
            allocate()
        except:
            pass
        """
        assert codes(src, path="src/repro/cli.py") == []


class TestW007SwallowedTransportException:
    def test_broad_except_around_transport_call_flagged(self):
        src = """
        try:
            delivered = self.transport.deliver_directive(directive)
        except Exception:
            delivered = False
        """
        assert codes(src, path="src/repro/core/controller.py") == ["W007"]

    def test_bare_except_around_transport_method_flagged(self):
        src = """
        try:
            report = observe_report(report)
        except:
            report = None
        """
        assert codes(src, path="src/repro/sim/faults.py") == ["W007"]

    def test_reraising_broad_except_clean(self):
        src = """
        try:
            delivered = transport.deliver_directive(directive)
        except Exception as exc:
            raise RuntimeError("transport failure") from exc
        """
        assert codes(src) == []

    def test_non_transport_try_clean(self):
        src = """
        try:
            value = compute()
        except Exception:
            value = None
        """
        assert codes(src) == []

    def test_narrow_except_clean(self):
        src = """
        try:
            ok = self.transport.handoff_succeeds(directive)
        except ValueError:
            ok = False
        """
        assert codes(src) == []


class TestW008NonAtomicPersistence:
    def test_truncating_open_on_results_path_flagged(self):
        src = """
        def record(results_path, payload):
            with open(results_path, "w") as handle:
                handle.write(payload)
        """
        assert codes(src) == ["W008"]

    def test_open_inside_save_function_flagged(self):
        src = """
        def save_report(path, text):
            with open(path, "w") as handle:
                handle.write(text)
        """
        assert codes(src) == ["W008"]

    def test_write_text_on_checkpoint_path_flagged(self):
        src = """
        def finish(checkpoint_path, text):
            checkpoint_path.write_text(text)
        """
        assert codes(src) == ["W008"]

    def test_path_call_write_text_in_save_fn_flagged(self):
        # Path(path).write_text — the receiver is a call expression,
        # not a dotted name; the rule must still see the method.
        src = """
        from pathlib import Path

        def save_history(path, text):
            Path(path).write_text(text)
        """
        assert codes(src) == ["W008"]

    def test_json_dump_onto_results_handle_flagged(self):
        src = """
        import json

        def emit(payload, results_handle):
            json.dump(payload, results_handle)
        """
        assert codes(src) == ["W008"]

    def test_atomic_helper_itself_clean(self):
        # The helper is where the non-atomic write legitimately lives.
        src = """
        import os

        def atomic_write_text(path, text):
            with open(path + ".tmp", "w") as handle:
                handle.write(text)
            os.replace(path + ".tmp", path)
        """
        assert codes(src) == []

    def test_read_mode_and_unrelated_writes_clean(self):
        src = """
        def load(results_path):
            with open(results_path, "r") as handle:
                return handle.read()

        def scratch(tmp_path, text):
            tmp_path.write_text(text)
        """
        assert codes(src) == []


class TestW009UnsanitizedTelemetryScenario:
    def test_telemetry_named_function_flagged(self):
        src = """
        from repro.core.problem import Scenario

        def scenario_from_report(report_rates, plc):
            return Scenario(wifi_rates=report_rates, plc_rates=plc)
        """
        assert codes(src) == ["W009"]

    def test_telemetry_named_argument_flagged(self):
        src = """
        from repro.core.problem import Scenario

        def rebuild(measured_wifi, plc):
            return Scenario(wifi_rates=measured_wifi, plc_rates=plc)
        """
        assert codes(src) == ["W009"]

    def test_telemetry_data_in_call_flagged(self):
        src = """
        import numpy as np
        from repro.core.problem import Scenario

        def assemble(cache, plc):
            scan_rows = np.vstack(list(cache.values()))
            return Scenario(wifi_rates=scan_rows, plc_rates=plc)
        """
        assert codes(src) == ["W009"]

    def test_isfinite_gate_clean(self):
        src = """
        import numpy as np
        from repro.core.problem import Scenario

        def scenario_from_report(report_rates, plc):
            if not np.isfinite(report_rates).all():
                raise ValueError("non-finite scan rates")
            return Scenario(wifi_rates=report_rates, plc_rates=plc)
        """
        assert codes(src) == []

    def test_sanitize_helper_clean(self):
        src = """
        from repro.core.problem import Scenario

        def scenario_from_report(guard, report_rates, plc):
            clean = guard.sanitize_rates(report_rates)
            return Scenario(wifi_rates=clean, plc_rates=plc)
        """
        assert codes(src) == []

    def test_synthetic_scenario_clean(self):
        # No telemetry in sight: synthesis from a ground-truth model.
        src = """
        from repro.core.problem import Scenario

        def make_floor(wifi, plc):
            return Scenario(wifi_rates=wifi, plc_rates=plc)
        """
        assert codes(src) == []

    def test_telemetry_function_without_scenario_clean(self):
        src = """
        def receive_scan_report(self, report):
            self.cache[report.user] = report
        """
        assert codes(src) == []


class TestParseErrors:
    def test_unparsable_file_reported(self):
        assert codes("def broken(:\n") == ["E001"]


class TestSelection:
    def test_select_restricts_rules(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()
        rng2 = np.random.default_rng(seed + 1)
        """
        assert codes(src, select=["W002"]) == ["W002"]


class TestW014UnboundedDispatch:
    def test_missing_timeout_flagged(self):
        src = """
        from repro.sim.dispatch import dispatch_chunked
        dispatch_chunked(specs, config, fn, workers=4, record=record)
        """
        assert codes(src) == ["W014"]

    def test_explicit_timeout_is_clean(self):
        src = """
        from repro.sim.dispatch import dispatch_chunked
        dispatch_chunked(specs, config, fn, workers=4,
                         timeout_s=30.0, record=record)
        """
        assert codes(src) == []

    def test_explicit_none_records_the_choice(self):
        # timeout_s=None documents that unbounded waiting is
        # deliberate (e.g. no process boundary to reap across).
        src = """
        from repro.sim.dispatch import dispatch_chunked
        dispatch_chunked(specs, config, fn, workers=2, timeout_s=None,
                         record=record)
        """
        assert codes(src) == []

    def test_kwargs_splat_may_carry_a_timeout(self):
        src = """
        from repro.sim.dispatch import dispatch_chunked
        dispatch_chunked(specs, config, fn, **dispatch_opts)
        """
        assert codes(src) == []

    def test_suppression_comment_is_honored(self):
        src = """
        from repro.sim.dispatch import dispatch_chunked
        dispatch_chunked(specs, config, fn)  # woltlint: disable=W014
        """
        assert codes(src) == []

    def test_unrelated_calls_not_flagged(self):
        src = """
        pool.map_chunked(items)
        run(items, timeout=3)
        """
        assert codes(src) == []


class TestW015UnvalidatedIngest:
    def test_loads_into_scenario_flagged(self):
        src = """
        import json

        def read_snapshot(path):
            payload = json.loads(path.read_text())
            return Scenario(wifi_rates=payload["wifi_rates"],
                            plc_rates=payload["plc_rates"])
        """
        assert codes(src) == ["W015"]

    def test_yaml_into_journal_append_flagged(self):
        src = """
        import yaml

        def ingest(store, raw):
            entry = yaml.safe_load(raw)
            store.append(entry)
        """
        assert codes(src) == ["W015"]

    def test_loads_into_fingerprint_flagged(self):
        src = """
        import json

        def identity(raw):
            params = json.loads(raw)
            return fingerprint(params)
        """
        assert codes(src) == ["W015"]

    def test_validation_step_is_clean(self):
        # A validator-shaped call in the same function shows the
        # payload goes through a vetting layer before the sink.
        src = """
        import json

        def read_snapshot(path):
            payload = json.loads(path.read_text())
            check_snapshot_header(payload)
            return Scenario(wifi_rates=payload["wifi_rates"])
        """
        assert codes(src) == []

    def test_untainted_sink_args_are_clean(self):
        src = """
        import json

        def rebuild(path, rates):
            meta = json.loads(path.read_text())
            del meta
            return Scenario(wifi_rates=rates)
        """
        assert codes(src) == []

    def test_module_level_code_not_flagged(self):
        # The taint scope is per-function; module bodies are config.
        src = """
        import json
        payload = json.loads(RAW)
        scenario = Scenario(wifi_rates=payload)
        """
        assert codes(src) == []

    def test_suppression_comment_is_honored(self):
        src = """
        import json

        def read_snapshot(path):
            payload = json.loads(path.read_text())
            return Scenario(wifi_rates=payload["w"])  # woltlint: disable=W015
        """
        assert codes(src) == []

    def test_non_deserialized_names_are_clean(self):
        src = """
        def rebuild(payload):
            return Scenario(wifi_rates=payload["wifi_rates"])
        """
        assert codes(src) == []
