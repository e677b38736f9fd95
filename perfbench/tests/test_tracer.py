"""Self-time arithmetic, generator spans, and restoration of every patched binding."""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import mexkit  # noqa: E402,F401  (loads every mexkit module)
from mexkit import constructions, extremal, graphs, oracle, processes  # noqa: E402

import metrics  # noqa: E402
from tracer import Tracer, _wrap, package_modules, traced  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; then a second a [20, 21]
        tracer = Tracer(FakeClock([0, 1, 4, 5, 6, 8, 9, 10, 20, 21]))
        tracer.enter("a")
        tracer.enter("b")
        tracer.exit()
        tracer.enter("c")
        tracer.enter("d")
        tracer.exit()
        tracer.exit()
        tracer.exit()
        tracer.enter("a")
        tracer.exit()
        self.assertEqual(dict(tracer.self_s), {"a": 10 - 3 - 4 + 1, "b": 3, "c": 4 - 2, "d": 2})

    def test_generator_counts_one_call_and_sums_resumptions(self):
        def numbers():
            yield 1
            yield 2

        tracer = Tracer(FakeClock([0, 1, 10, 12, 20, 23]))
        with_spans = _wrap(tracer, "m.numbers", "m", numbers, None)
        self.assertEqual(list(with_spans()), [1, 2])
        self.assertEqual(tracer.calls("m.numbers"), 1)
        self.assertEqual(tracer.self_s["m.numbers"], 1 + 2 + 3)


def _bindings():
    return {(m.__name__, k): v for m in package_modules() for k, v in vars(m).items()}


class PatchingTest(unittest.TestCase):
    def test_every_binding_is_wrapped_then_restored(self):
        before = _bindings()
        with traced(Tracer(), metrics.TARGETS):
            # count_cliques is imported by name into these modules
            for module in (graphs, oracle, processes, extremal):
                self.assertIsNot(module.count_cliques, before[(module.__name__, "count_cliques")])
            self.assertIsNot(constructions.colex_unrank, before[("mexkit.constructions", "colex_unrank")])
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_restored_when_the_body_raises(self):
        before = _bindings()
        with self.assertRaises(RuntimeError):
            with traced(Tracer(), metrics.TARGETS):
                raise RuntimeError
        after = _bindings()
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_call_sites_and_result_hooks(self):
        tracer = Tracer()
        k4 = constructions.complete_graph(4)
        with traced(tracer, metrics.TARGETS, metrics.HOOKS):
            result = oracle.brute_force_mex(5, 3, k4)
        values = metrics.per_layer_values(tracer.to_json())
        self.assertEqual(values["oracle.search_space"], result.search_space_size)
        self.assertEqual(values["oracle.brute_force_mex.calls"], 1)
        self.assertEqual(values["oracle.enumerate_graphs.calls"], 1)
        self.assertEqual(values["graphs.contains_clique.calls"], result.search_space_size)
        self.assertTrue(0 < values["oracle.free_ratio"] <= 1)
        spans = tracer.to_json()["self_s"]
        self.assertGreater(spans["oracle.enumerate_graphs"], 0)


if __name__ == "__main__":
    unittest.main()
