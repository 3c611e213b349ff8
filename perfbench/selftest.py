"""Self-tests of the benchmark's own code; they run in a few seconds.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the repository's
pytest configuration collects such files anywhere in the tree, and the
benchmark stays out of the program's test suite.
"""

from __future__ import annotations

import json
import sys
import threading
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import Tracer, self_times, summarise  # noqa: E402


class FakeClock:
    """Advances by one tick per reading, so span times are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class SpanArithmetic(unittest.TestCase):

    def test_self_time_subtracts_direct_children_only(self):
        tracer = Tracer(clock=FakeClock())
        tracer.recording = True

        def leaf():
            return "leaf"

        def middle():
            tracer.call("leaf", leaf)
            return tracer.call("leaf", leaf)

        tracer.call("outer", lambda: tracer.call("middle", middle))
        names = [s.name for s in tracer.spans]
        self.assertEqual(names, ["outer", "middle", "leaf", "leaf"])
        # Clock readings: outer 1..8, middle 2..7, leaves 3..4 and 5..6.
        self.assertEqual([s.duration for s in tracer.spans],
                         [7.0, 5.0, 1.0, 1.0])
        self.assertEqual(self_times(tracer.spans), [2.0, 3.0, 1.0, 1.0])
        table = summarise(tracer.spans)
        self.assertEqual(table["leaf"], {"calls": 2, "total_s": 2.0,
                                         "self_s": 2.0})
        # Self times add up to the top-level span's duration.
        self.assertEqual(sum(self_times(tracer.spans)), 7.0)

    def test_spans_on_another_thread_have_their_own_parents(self):
        tracer = Tracer()
        tracer.recording = True

        def worker():
            tracer.call("inner", lambda: None)

        def outer():
            t = threading.Thread(target=worker)
            t.start()
            t.join(10)
            self.assertFalse(t.is_alive())

        tracer.call("outer", outer)
        by_name = {s.name: s for s in tracer.spans}
        self.assertIsNone(by_name["inner"].parent)
        self.assertNotEqual(by_name["inner"].thread,
                            by_name["outer"].thread)

    def test_not_recording_passes_through(self):
        tracer = Tracer()
        self.assertEqual(tracer.call("x", lambda a: a + 1, 1), 2)
        self.assertEqual(tracer.spans, [])


class Patching(unittest.TestCase):

    def test_wrap_and_restore_by_identity(self):
        def helper(x):
            return x * 2

        class Thing:
            def method(self, x):
                return x + 1

            @classmethod
            def build(cls, x):
                return cls, x

        defining = types.ModuleType("defining")
        caller = types.ModuleType("caller")
        defining.helper = caller.helper = helper
        originals = (Thing.__dict__["method"], Thing.__dict__["build"])

        tracer = Tracer()
        tracer.wrap([defining, caller], "helper", "helper")
        tracer.wrap([Thing], "method", "method")
        tracer.wrap([Thing], "build", "build")
        tracer.recording = True
        self.assertEqual(caller.helper(3), 6)
        self.assertEqual(Thing().method(3), 4)
        self.assertEqual(Thing.build(5), (Thing, 5))
        self.assertEqual([s.name for s in tracer.spans],
                         ["helper", "method", "build"])
        tracer.restore()
        self.assertIs(defining.helper, helper)
        self.assertIs(caller.helper, helper)
        self.assertIs(Thing.__dict__["method"], originals[0])
        self.assertIs(Thing.__dict__["build"], originals[1])

    def test_owners_must_agree(self):
        a, b = types.ModuleType("a"), types.ModuleType("b")
        a.f, b.f = (lambda: 1), (lambda: 2)
        with self.assertRaises(ValueError):
            Tracer().wrap([a, b], "f", "f")


class BenchmarkSpec(unittest.TestCase):
    """``BENCHMARK.json`` names exactly what ``workload.py`` reports."""

    @classmethod
    def setUpClass(cls):
        import workload
        cls.workload = workload
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(self.workload.WORKLOADS))

    def test_end_to_end_metrics(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["end_to_end"]],
                         self.workload.END_TO_END)
        names = {m["name"] for m in self.spec["end_to_end"]}
        self.assertIn("setup_s", names)
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertEqual(m["better"], "lower"
                             if m["name"] != "throughput_per_s"
                             else "higher")

    def test_per_layer_metrics(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["per_layer"]],
                         self.workload.PER_LAYER)

    def test_instance_log_keeps_instances_until_drained(self):
        class Registry:
            def __init__(self, size):
                self.size = size

        original = Registry.__init__
        with self.workload.InstanceLog(Registry) as log:
            Registry(3)                 # dropped at once, like a trainer's
            self.assertEqual([r.size for r in log.drain()], [3])
            self.assertEqual(log.drain(), [])
        self.assertIs(Registry.__init__, original)

    def test_every_layer_wrapper_installs_and_restores(self):
        from repro.tensor import Tensor
        original = Tensor.__dict__["backward"]
        tracer = Tracer()
        self.workload.install_layer_spans(tracer)
        try:
            self.assertIsNot(Tensor.__dict__["backward"], original)
        finally:
            tracer.restore()
        self.assertIs(Tensor.__dict__["backward"], original)


if __name__ == "__main__":
    unittest.main()
