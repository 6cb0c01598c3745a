"""Malformed fault and arrival plans exit 2 with a message, never a traceback.

Each regression case below once escaped the loaders as a ``TypeError`` or
``ValueError`` (a traceback, or exit 1), or was accepted with a NaN in it.
The fuzz tests mutate one field of a valid plan to an arbitrary JSON value
(``NaN`` and ``Infinity`` tokens included) and drive the CLI's ``show``
commands, which must then accept the plan (exit 0) or reject it (exit 2);
a plan they accept must serialise as strict JSON.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.faults.plan import FaultPlan
from repro.workloads.arrivals import ArrivalPlan

FAULTS_V2 = {
    "schema": "repro.faults/2",
    "seed": 7,
    "task_crashes": [{"stage_ordinal": 0, "partition": 1, "attempt": 0}],
    "crash_rate": {"probability": 0.05, "max_crashes": 10},
    "executor_losses": [{"executor_id": 1, "at": 5.0}],
    "node_losses": [{"node_id": 1, "at": 10.0}],
    "disk_degradations": [
        {"node_id": 0, "at": 3.0, "duration": 20.0, "factor": 0.5}
    ],
    "stragglers": [{"node_id": 1, "at": 10.0, "duration": 120.0,
                    "cpu_factor": 0.3, "disk_factor": 0.3}],
    "speculation": {"enabled": True, "multiplier": 2.0, "quantile": 0.75},
    "cluster": {
        "node_churn": [{"node_id": 1, "down_at": 100.0, "duration": 200.0}],
        "slot_flaps": [{"node_id": 0, "at": 50.0, "duration": 30.0}],
        "poison": [{"tenant": "tenant0", "probability": 0.5,
                    "max_poisoned": 2}],
        "surges": [{"at": 100.0, "duration": 200.0, "factor": 3.0,
                    "tenant": None}],
        "protection": {"max_retries": 3, "deadline": 900.0,
                       "slo_latency": 300.0, "max_queue": 16,
                       "max_wait": 600.0, "breaker_failures": 3,
                       "degrade_queue": 8},
    },
}

ARRIVALS = {
    "schema": "repro.arrivals/1",
    "seed": 3,
    "horizon": 60.0,
    "tenants": [
        {"name": "a", "weight": 2.0, "slots": 1,
         "arrivals": {"process": "poisson", "rate": 0.1, "start": 1.0},
         "mix": [{"workload": "wordcount", "scale": 0.02, "weight": 1.0},
                 {"workload": "terasort", "policy": ["fixed", 4],
                  "seed": 7, "conf": {"spark.executor.cores": 8},
                  "name": "ts"}]},
        {"name": "b",
         "arrivals": {"process": "trace", "times": [1.0, 5.0]},
         "mix": [{"workload": "terasort", "policy": "dynamic"}]},
    ],
}


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


def write(tmp_path, doc):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    return str(path)


#: A UTF-16 byte-order mark and text: bytes no UTF-8 decoder accepts.
NOT_UTF8 = b"\xff\xfe{\x00}\x00"


def write_bytes(tmp_path, data):
    path = tmp_path / "plan.json"
    path.write_bytes(data)
    return str(path)


def test_base_plans_are_valid(tmp_path):
    assert main(["faults", "show", write(tmp_path, FAULTS_V2)]) == 0
    assert main(["arrivals", "show", write(tmp_path, ARRIVALS)]) == 0


class TestMalformedFaultPlans:
    def assert_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "error: invalid fault plan:" in capsys.readouterr().err

    def test_run_with_string_node_loss_time(self, tmp_path, capsys):
        path = write(tmp_path, {"schema": "repro.faults/1",
                                "node_losses": [{"node_id": 1, "at": "x"}]})
        self.assert_rejected(["run", "terasort", "--scale", "0.02",
                              "--faults", path], capsys)

    def test_string_crash_probability(self, tmp_path, capsys):
        path = write(tmp_path, {"schema": "repro.faults/1",
                                "crash_rate": {"probability": "x"}})
        self.assert_rejected(["faults", "show", path], capsys)

    def test_non_numeric_seed(self, tmp_path, capsys):
        path = write(tmp_path, {"schema": "repro.faults/1", "seed": "abc"})
        self.assert_rejected(["faults", "show", path], capsys)

    @pytest.mark.parametrize("command", [
        ["faults", "show"],
        ["run", "terasort", "--scale", "0.02", "--nodes", "2", "--faults"],
    ], ids=["faults-show", "run"])
    def test_nan_node_loss_time(self, command, tmp_path, capsys):
        # Once accepted: the run then finished late, with "ts":NaN events.
        path = write(tmp_path, mutated(FAULTS_V2, ("node_losses", 0, "at"),
                                       float("nan")))
        self.assert_rejected([*command, path], capsys)


    @pytest.mark.parametrize("command", [
        ["faults", "show"],
        ["run", "terasort", "--scale", "0.02", "--nodes", "2", "--faults"],
    ], ids=["faults-show", "run"])
    def test_not_utf8(self, command, tmp_path, capsys):
        # Once a bare UnicodeDecodeError at exit 1.
        assert main([*command, write_bytes(tmp_path, NOT_UTF8)]) == 2
        err = capsys.readouterr().err
        assert "error: invalid fault plan:" in err
        assert "not UTF-8" in err


class TestMalformedArrivalPlans:
    def assert_rejected(self, doc, tmp_path, capsys):
        assert main(["arrivals", "show", write(tmp_path, doc)]) == 2
        assert "error: invalid arrival plan:" in capsys.readouterr().err

    def test_tenants_not_a_list(self, tmp_path, capsys):
        self.assert_rejected(mutated(ARRIVALS, ("tenants",), 3),
                             tmp_path, capsys)

    def test_list_seed(self, tmp_path, capsys):
        self.assert_rejected(mutated(ARRIVALS, ("seed",), [1]),
                             tmp_path, capsys)

    @pytest.mark.parametrize("path", [
        ("horizon",),
        ("tenants", 0, "arrivals", "rate"),
        ("tenants", 0, "mix", 0, "scale"),
        ("tenants", 0, "mix", 0, "weight"),
        ("tenants", 0, "weight"),
        ("tenants", 0, "slots"),
    ], ids=lambda path: "-".join(map(str, path)))
    def test_string_number(self, path, tmp_path, capsys):
        self.assert_rejected(mutated(ARRIVALS, path, "x"), tmp_path, capsys)

    def test_nan_scale(self, tmp_path, capsys):
        self.assert_rejected(
            mutated(ARRIVALS, ("tenants", 0, "mix", 0, "scale"),
                    float("nan")),
            tmp_path, capsys)

    @pytest.mark.parametrize("command", [["arrivals", "show"],
                                         ["serve", "--plan"]],
                             ids=["arrivals-show", "serve"])
    def test_not_utf8(self, command, tmp_path, capsys):
        # Once a bare UnicodeDecodeError at exit 1.
        path = write_bytes(tmp_path, NOT_UTF8)
        assert main([*command, path]) == 2
        err = capsys.readouterr().err
        assert "error: invalid arrival plan:" in err
        assert "not UTF-8" in err

    def test_runaway_rate(self, tmp_path, capsys):
        """A rate too high for simulated time to advance is rejected, not
        expanded forever."""
        self.assert_rejected(
            mutated(ARRIVALS, ("tenants", 0, "arrivals", "rate"), 1e300),
            tmp_path, capsys)


def field_paths(doc, prefix=()):
    """Every key/index path inside ``doc`` (containers and leaves)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            paths.extend(field_paths(value, prefix + (key,)))
    return paths


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(), children, max_size=3)),
    max_leaves=5,
)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(path=st.sampled_from(field_paths(FAULTS_V2)), value=JSON_VALUES)
def test_fault_plan_fuzz(path, value, tmp_path):
    plan = write(tmp_path, mutated(FAULTS_V2, path, value))
    code = main(["faults", "show", plan])
    assert code in (0, 2)
    if code == 0:
        json.dumps(FaultPlan.load(plan).to_dict(), allow_nan=False)


@FUZZ
@given(path=st.sampled_from(field_paths(ARRIVALS)), value=JSON_VALUES)
def test_arrival_plan_fuzz(path, value, tmp_path):
    plan = write(tmp_path, mutated(ARRIVALS, path, value))
    code = main(["arrivals", "show", plan])
    assert code in (0, 2)
    if code == 0:
        json.dumps(ArrivalPlan.load(plan).to_dict(), allow_nan=False)
