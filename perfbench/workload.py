"""One run of one benchmark workload, measured in this process.

``run.py`` starts this file in a fresh interpreter with a cleaned
environment; run it directly only to debug.  The last line of standard
output is the result object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics).

Every workload sets up several times, releasing the previous set-up's
objects first (``setup_s`` is the median), then
repeats whole rounds of the same operations for about ``--seconds``, so
the share of failed operations never depends on run length.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import ctypes
import gc
import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import datasets
from repro.core import (DatasetStructures, FlybackAggregator,
                        HyperNodeFeatures)
from repro.core import model as core_model
from repro.core import pooling as core_pooling
from repro.core import structure as core_structure
from repro.core.fitness import FitnessScorer
from repro.datasets import NodeDataset
from repro.datasets.base import NodeTaskSplits, split_nodes
from repro.datasets.proteins import PROTEIN_CONFIGS
from repro.datasets.sbm import scaled_sbm_config
from repro.graph import CSCGraph
from repro.inference import Predictor
from repro.layers import GCNConv
from repro.optim import Adam
from repro.serving import GraphServer
from repro.tensor import (Tensor, TrainingTape, get_num_workers,
                          naive_kernels, segment_plan_stats)
from repro.training import (GraphClassificationTrainer,
                            NodeClassificationTrainer, TrainConfig)
from repro.training import graph_trainer, node_trainer
from repro.training.capture import StepCapture
from repro.training.experiment import (make_graph_classifier,
                                       make_node_classifier)

from run import DROP_KEYS, DROP_PREFIXES
from spans import Tracer, summarise

ROOT = Path(__file__).resolve().parent.parent

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_item", "ms"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
]
#: Per-layer metrics read from wrapped calls: metric → span name.  Each is
#: the span's total self time per training step or served micro-batch.
SPAN_METRICS = {
    "core.collate_ms": "core.collate",
    "core.egonet_ms": "core.egonet",
    "core.fitness_ms": "core.fitness",
    "core.selection_ms": "core.selection",
    "core.hyper_features_ms": "core.hyper_features",
    "core.connectivity_ms": "core.connectivity",
    "core.unpool_ms": "core.unpool",
    "core.flyback_ms": "core.flyback",
    "core.kl_loss_ms": "core.kl_loss",
    "core.recon_loss_ms": "core.recon_loss",
    "layers.conv_ms": "layers.conv",
    "tensor.backward_ms": "tensor.backward",
    "optim.step_ms": "optim.step",
    "graph.csc_build_ms": "graph.csc_build",
    "graph.ego_net_ms": "graph.ego_net",
    "graph.sample_neighbors_ms": "graph.sample_neighbors",
}

#: (name, unit) of every per-layer metric, in output order.
PER_LAYER = (
    [("datasets.generate_s", "s")]
    + [(name, "ms") for name in SPAN_METRICS]
    + [("core.collation_hit_ratio", "ratio"),
       ("tensor.segment_plan_hit_ratio", "ratio"),
       ("training.tape_hit_ratio", "ratio"),
       ("training.grad_arena_mb", "MB"),
       ("inference.predict_batch_ms", "ms"),
       ("inference.arena_allocations_per_batch", "count"),
       ("inference.arena_mb", "MB"),
       ("serving.mean_batch_size", "count"),
       ("serving.dedup_ratio", "ratio"),
       ("serving.worker_busy_share", "ratio"),
       ("trace.steps", "count"),
       ("trace.unattributed_share", "ratio"),
       ("trace.overhead_share", "ratio")])

def leaked_env() -> List[str]:
    """Configuration variables ``run.py`` would have removed: a run started
    by hand reports them, since they change what is measured."""
    return sorted(key for key in os.environ
                  if key.startswith(DROP_PREFIXES) or key in DROP_KEYS)


# --------------------------------------------------------------------------
# Run context
# --------------------------------------------------------------------------

def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that NumPy loaded, if it is one."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_identity() -> Dict[str, str]:
    """The git commit when there is one, and a digest of ``src/``."""
    commit = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def peak_rss_mb() -> float:
    """High-water resident memory of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def seed_rng(*key: int) -> np.random.Generator:
    """A generator keyed on the run seed plus a purpose tag."""
    return np.random.default_rng([int(k) for k in key])


# --------------------------------------------------------------------------
# Layer wrappers
# --------------------------------------------------------------------------

def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public calls behind each per-layer metric.

    Functions are patched in the modules that call them, methods on
    their classes, so every caller in the program goes through a span.
    """
    tracer.wrap([core_pooling, core_structure], "build_ego_networks",
                "core.egonet")
    tracer.wrap([core_pooling, core_structure], "one_hop_neighbors",
                "core.egonet")
    tracer.wrap([FitnessScorer], "pair_scores", "core.fitness")
    tracer.wrap([core_pooling], "select_egos", "core.selection")
    tracer.wrap([core_pooling], "build_assignment", "core.selection")
    tracer.wrap([HyperNodeFeatures], "forward", "core.hyper_features")
    tracer.wrap([core_pooling], "hyper_graph_connectivity",
                "core.connectivity")
    tracer.wrap([core_model], "unpool", "core.unpool")
    tracer.wrap([FlybackAggregator], "forward", "core.flyback")
    tracer.wrap([graph_trainer, node_trainer], "self_optimisation_loss",
                "core.kl_loss")
    tracer.wrap([graph_trainer, node_trainer],
                "sampled_reconstruction_loss", "core.recon_loss")
    tracer.wrap([DatasetStructures], "batch", "core.collate")
    tracer.wrap([GCNConv], "forward", "layers.conv")
    tracer.wrap([Tensor], "backward", "tensor.backward")
    tracer.wrap([TrainingTape], "backward", "tensor.backward")
    tracer.wrap([Adam], "step", "optim.step")
    tracer.wrap([CSCGraph], "from_graph", "graph.csc_build")
    tracer.wrap([CSCGraph], "ego_net", "graph.ego_net")
    tracer.wrap([CSCGraph], "sample_neighbors", "graph.sample_neighbors")
    tracer.wrap([Predictor], "predict_batch", "inference.predict_batch")
    tracer.wrap([GraphClassificationTrainer], "fit", "training.fit")
    tracer.wrap([NodeClassificationTrainer], "fit", "training.fit")


class InstanceLog:
    """Objects of one class built while the log is attached.

    Attaching wraps the class's ``__init__``; the benchmark reads the
    public ``stats()`` of each instance right after the round that built
    it, and the log holds the instances only until then.
    """

    def __init__(self, cls: type):
        self.cls = cls
        self.built: list = []
        self._original = cls.__init__

    def __enter__(self) -> "InstanceLog":
        original, log = self._original, self

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            log.built.append(obj)
        self.cls.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        self.cls.__init__ = self._original

    def drain(self) -> list:
        """The instances built since the last drain, released by the log."""
        out, self.built = self.built, []
        return out


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

@dataclass
class Window:
    """What one timed window did."""

    items: int
    wall_s: float
    attempted: int
    #: (items, wall seconds, CPU seconds) of each round
    rounds: List[Tuple[int, float, float]] = field(default_factory=list)
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """A named load: set-up, a timed window of whole rounds, checks."""

    name = ""
    #: span names whose self time is *not* a layer's (window roots)
    root_spans: Tuple[str, ...] = ()
    #: operation that a training step or served micro-batch is counted by
    step_span = "optim.step"
    #: set-ups per run; ``setup_s`` is their median.  Cheap set-ups repeat
    #: more often, so that each workload spends 4–9 s setting up.
    setups = 4
    #: attributes set-up creates; teardown drops them
    setup_state: Tuple[str, ...] = ("dataset", "model")

    def __init__(self, seed: int, tracer: Tracer):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        raise NotImplementedError

    def window(self, seconds: float) -> Window:
        raise NotImplementedError

    def finish(self, win: Window) -> None:
        """Checks that run after a window, outside its timing."""

    def counters(self) -> Dict[str, float]:
        """Public counters to difference across the traced window."""
        hits_misses = segment_plan_stats()
        return {"plan_hits": hits_misses["hits"],
                "plan_misses": hits_misses["misses"]}

    def teardown(self) -> None:
        """Release what set-up made, so that a repeated set-up does not
        hold two copies and raise the peak memory."""
        for attr in self.setup_state:
            self.__dict__.pop(attr, None)


class StepClock:
    """Timestamps every optimizer step.

    A training workload's latency samples are the intervals between
    consecutive ``Adam.step`` calls of one ``fit`` (the first measured
    from the start of the fit): one training step each, plus the epoch's
    evaluation where an epoch ends.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.last = 0.0
        self._original = Adam.__dict__["step"]

    def __enter__(self) -> "StepClock":
        original, clock = self._original, self

        def step(optimizer):
            original(optimizer)
            now = time.perf_counter()
            clock.samples.append(now - clock.last)
            clock.last = now
        Adam.step = step
        return self

    def __exit__(self, *exc) -> None:
        Adam.step = self._original

    def start(self) -> None:
        self.last = time.perf_counter()


class TrainingWorkload(Workload):
    """Rounds of ``fit`` on a fresh model, each ``epochs`` long with
    patience no shorter, so every requested epoch runs."""

    root_spans = ("bench.window", "training.fit")
    epochs = 1
    accuracy_floor = 0.0
    model_name = ""
    #: latency percentile with at least ten step intervals beyond it in a
    #: run of the benchmark's length
    tail_percentile = 50.0

    def __init__(self, seed: int, tracer: Tracer):
        super().__init__(seed, tracer)
        #: training-tape counters summed over the rounds' trainers
        self.tape = {"tape_hits": 0, "tape_steps": 0, "arena_mb": 0.0}
        self._captures: Optional[InstanceLog] = None

    def items_per_epoch(self) -> int:
        raise NotImplementedError

    def run_round(self, r: int):
        """One ``fit``; returns the trainer's result."""
        raise NotImplementedError

    def config(self, r: int, **kwargs) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, patience=self.epochs,
                           seed=int(seed_rng(self.seed, 11, r)
                                    .integers(0, 2 ** 31)),
                           **kwargs)

    def fold_tape(self, stats: Dict[str, int]) -> None:
        """Add one step-capture registry's counters to the totals."""
        for key, value in tape_counters(stats).items():
            self.tape[key] = (max(self.tape[key], value) if key == "arena_mb"
                              else self.tape[key] + value)

    def watch(self, on: bool) -> None:
        """Start or stop logging the rounds' step-capture registries."""
        if on:
            self._captures = InstanceLog(StepCapture).__enter__()
        elif self._captures is not None:
            self._captures.__exit__()
            self._captures = None

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out.update(self.tape)
        return out

    def window(self, seconds: float) -> Window:
        problems: List[str] = []
        items = attempted = failed = rounds = 0
        per_round: List[Tuple[int, float, float]] = []
        with StepClock() as clock:
            t0 = time.perf_counter()
            while True:
                clock.start()
                r0, rc0 = time.perf_counter(), time.process_time()
                result = self.run_round(rounds)
                done = result.epochs_run * self.items_per_epoch()
                per_round.append((done, time.perf_counter() - r0,
                                  time.process_time() - rc0))
                if self._captures is not None:
                    for capture in self._captures.drain():
                        self.fold_tape(capture.stats())
                rounds += 1
                attempted += self.epochs
                items += done
                found = len(problems)
                if result.epochs_run != self.epochs:
                    problems.append(f"round {rounds}: {result.epochs_run} "
                                    f"of {self.epochs} epochs ran")
                if not all(np.isfinite(p.data).all()
                           for p in self.model.parameters()):
                    problems.append(f"round {rounds}: non-finite parameter")
                if not result.test_accuracy >= self.accuracy_floor:
                    problems.append(
                        f"round {rounds}: test accuracy "
                        f"{result.test_accuracy:.3f} < {self.accuracy_floor}")
                if len(problems) > found:
                    failed += self.epochs     # every epoch of the round
                if window_done(t0, seconds, per_round[-1][1]):
                    break
            wall = time.perf_counter() - t0
        return Window(items=items, wall_s=wall,
                      attempted=attempted, rounds=per_round,
                      failed=failed, problems=problems,
                      extra={"rounds": rounds,
                             **latency_summary(clock.samples,
                                               self.tail_percentile)})


def window_done(t0: float, seconds: float, last_round_s: float) -> bool:
    """Whether the window ends after the round just run: at the round
    boundary nearest to ``seconds`` after ``t0``, assuming the next round
    lasts as long as the last.  A window has at least one round."""
    return time.perf_counter() - t0 + last_round_s / 2 >= seconds


def tape_counters(stats: Dict[str, int]) -> Dict[str, float]:
    """Replayed steps, all steps and gradient-arena size of a registry."""
    return {"tape_hits": stats["hits"],
            "tape_steps": (stats["hits"] + stats["misses"]
                           + stats["uncaptured_steps"]),
            "arena_mb": stats["grad_arena_bytes"] / 1e6}


def latency_summary(seconds: List[float], tail: float) -> Dict[str, float]:
    """Median and tail percentile (ms) of latency samples, with counts."""
    ms = 1000.0 * np.asarray(seconds)
    return {"latency_samples": int(ms.size),
            "latency_p50_ms": float(np.percentile(ms, 50)),
            "latency_tail_ms": float(np.percentile(ms, tail)),
            "tail_percentile": tail,
            "samples_beyond_tail": int((ms > np.percentile(ms, tail)).sum())}


class TrainProteins(TrainingWorkload):
    """AdamGNN graph classification on a 1,113-graph PROTEINS-like set.

    One trainer serves every round, as one long ``fit`` would: set-up
    warms its per-graph structure pipeline with an evaluation pass, and
    each round swaps in a freshly seeded config, so every epoch still
    reshuffles into batches never collated before.
    """

    name = "train-proteins"
    epochs = 2
    accuracy_floor = 0.6      # 2 balanced classes: chance is 0.5
    tail_percentile = 75.0
    num_graphs = 1113         # the real PROTEINS size (Table 4)
    setup_state = ("dataset", "model", "trainer")

    def setup(self) -> None:
        cfg = replace(PROTEIN_CONFIGS["proteins"], num_graphs=self.num_graphs)
        self.dataset = self.tracer.call(
            "datasets.generate", datasets.generate_protein_dataset,
            "proteins", cfg, seed=self.seed)
        self.model = self.make_model(0)
        self.trainer = GraphClassificationTrainer(self.config(0))
        self.trainer.evaluate(self.model, self.dataset,
                              np.arange(len(self.dataset.graphs)))

    def make_model(self, r: int):
        return make_graph_classifier(
            "adamgnn", self.dataset.num_features, self.dataset.num_classes,
            seed=int(seed_rng(self.seed, 12, r).integers(0, 2 ** 31)))

    def items_per_epoch(self) -> int:
        return len(self.dataset.train_index)

    def run_round(self, r: int):
        self.model = self.make_model(r)
        self.trainer.config = self.config(r)
        return self.trainer.fit(self.model, self.dataset)

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        stats = self.trainer.cache_stats()
        out.update(tape_counters(stats["training_tape"]))
        out["collation_hits"] = stats["batch_cache"]["hits"]
        out["collation_misses"] = stats["batch_cache"]["misses"]
        return out


class NodeWorkload(TrainingWorkload):
    """Node classification on one scaled SBM graph."""

    num_nodes = 0
    eval_cap: Optional[int] = None
    train_kwargs: Dict = {}

    def setup(self) -> None:
        cfg = scaled_sbm_config(self.num_nodes)
        graph = self.tracer.call("datasets.generate",
                                 datasets.sbm.generate_sbm_graph, cfg,
                                 seed=self.seed)
        splits = split_nodes(graph.num_nodes, seed_rng(self.seed, 13))
        if self.eval_cap is not None:
            splits = NodeTaskSplits(train=splits.train,
                                    val=splits.val[:self.eval_cap],
                                    test=splits.test[:self.eval_cap])
        self.dataset = NodeDataset(name=f"sbm-{self.num_nodes}", graph=graph,
                                   num_classes=cfg.num_classes,
                                   splits=splits)
        self.num_features = cfg.num_features
        self.model = self.make_model(0)

    def make_model(self, r: int):
        return make_node_classifier(
            self.model_name, self.num_features, self.dataset.num_classes,
            seed=int(seed_rng(self.seed, 12, r).integers(0, 2 ** 31)))

    def run_round(self, r: int):
        self.model = self.make_model(r)
        trainer = NodeClassificationTrainer(
            self.config(r, **self.train_kwargs))
        return trainer.fit(self.model, self.dataset)


class TrainSBMFull(NodeWorkload):
    """Full-batch AdamGNN: the workload where the training tape replays."""

    name = "train-sbm-full"
    model_name = "adamgnn"
    num_nodes = 4000
    epochs = 8
    accuracy_floor = 0.3      # 8 classes: chance is 0.125
    setups = 9

    def items_per_epoch(self) -> int:
        return len(self.dataset.splits.train)


class TrainSBMSampled(NodeWorkload):
    """Sampled GCN minibatches on 10^5 nodes: CSC sampling, no AGP."""

    name = "train-sbm-sampled"
    model_name = "gcn"
    num_nodes = 100_000
    eval_cap = 2048           # as the node-scaling benchmark caps val/test
    epochs = 2
    steps_per_epoch = 8
    accuracy_floor = 0.3      # 8 classes: chance is 0.125
    setups = 6
    train_kwargs = {"sampled": True, "max_steps_per_epoch": steps_per_epoch}

    def items_per_epoch(self) -> int:
        # Seed nodes per epoch: full batches of TrainConfig's default size.
        return self.steps_per_epoch * TrainConfig().node_batch_size


class ServeProteins(Workload):
    """Closed-loop serving of the registry PROTEINS set.

    One client sends 32 single-graph requests at once (an atomic
    ``submit_many``) and waits for all of them before sending the next
    32.  Batches then form from each burst's content alone.  A loop that
    refills each answered slot at once was not steady: its batch
    composition, and with it the server's speed, fed back on timing.
    """

    name = "serve-proteins"
    root_spans = ("inference.predict_batch",)
    step_span = "inference.predict_batch"
    burst = 32                # requests in flight per client turn
    round_requests = 1280     # requests per round (40 bursts)
    tail_percentile = 95.0
    atol = rtol = 1e-4        # float32 serving vs the float64 reference
    setup_state = ("dataset", "reference")

    def setup(self) -> None:
        self.dataset = self.tracer.call("datasets.generate",
                                        datasets.load_graph_dataset,
                                        "proteins", seed=0)
        self.universe = len(self.dataset.graphs)
        model = make_graph_classifier("adamgnn", self.dataset.num_features,
                                      self.dataset.num_classes, seed=0)
        self.reference = self.standalone_reference(model)
        model.astype("float32")
        self.server = GraphServer(model, self.dataset)
        self.deterministic_pass()       # warm pass

    def standalone_reference(self, model) -> np.ndarray:
        """Float64 reference-kernel logits of every graph served alone."""
        model64 = copy.deepcopy(model).astype("float64")
        with naive_kernels():
            predictor = Predictor(model64, dtype=np.float64)
            structures = DatasetStructures(
                self.dataset.graphs, radius=model64.encoder.radius,
                labels=self.dataset.label_array, dtype=np.float64)
            return np.stack([
                predictor.predict_batch(*structures.batch(np.array([g])))[0]
                for g in range(self.universe)])

    def matches(self, gid: int, logits: np.ndarray) -> bool:
        ref = self.reference[gid]
        return bool(np.all(np.abs(logits - ref)
                           <= self.atol + self.rtol * np.abs(ref)))

    def deterministic_pass(self) -> List[int]:
        """The whole universe in one atomic ``submit_many``; returns the
        graph ids whose logits differ from their stand-alone reference."""
        handles = self.server.submit_many(range(self.universe))
        bad = []
        for gid, handle in zip(range(self.universe), handles):
            served = handle.result(timeout=60)
            if served.graph_id != gid or not self.matches(gid,
                                                          served.logits):
                bad.append(gid)
        return bad

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        s = self.server.stats()
        out.update({
            "batches": s["batches"],
            "served": s["mean_batch_size"] * s["batches"],
            "submitted": s["submitted"],
            "dedup_hits": s["dedup_hits"],
            "collation_hits": s["collation"]["hits"],
            "collation_misses": s["collation"]["misses"],
            "arena_allocations": s["arenas"]["allocations"],
            "arena_bytes": s["arenas"]["nbytes"],
        })
        return out

    def window(self, seconds: float) -> Window:
        answered: List[Tuple[int, object]] = []
        per_round: List[Tuple[int, float, float]] = []
        rounds = 0
        t0 = time.perf_counter()
        while True:
            r0, rc0 = time.perf_counter(), time.process_time()
            ids = seed_rng(self.seed, 21, rounds).integers(
                0, self.universe, size=self.round_requests)
            for lo in range(0, ids.size, self.burst):
                burst = [int(g) for g in ids[lo:lo + self.burst]]
                handles = self.server.submit_many(burst)
                concurrent.futures.wait(handles, timeout=60)
                answered.extend(zip(burst, handles))
            per_round.append((ids.size, time.perf_counter() - r0,
                              time.process_time() - rc0))
            rounds += 1
            if window_done(t0, seconds, per_round[-1][1]):
                break
        wall = time.perf_counter() - t0

        # Answers are checked after the window, so the client's checking
        # never competes with the server's threads for the interpreter.
        latencies: List[float] = []
        problems: List[str] = []
        mismatched: Dict[int, int] = {}
        for gid, handle in answered:
            exc = handle.exception(timeout=0)
            if exc is not None:
                problems.append(f"graph {gid}: {type(exc).__name__}: {exc}")
                continue
            served = handle.result()
            latencies.append(handle.latency_ms / 1000.0)
            if served.graph_id != gid:
                problems.append(f"asked for graph {gid}, "
                                f"got {served.graph_id}")
            elif not self.matches(gid, served.logits):
                mismatched[gid] = mismatched.get(gid, 0) + 1
        self.mismatched = mismatched
        return Window(
            items=rounds * self.round_requests, wall_s=wall,
            attempted=rounds * self.round_requests, rounds=per_round,
            problems=problems,
            extra={"rounds": rounds,
                   **latency_summary(latencies, self.tail_percentile),
                   "timed_fault_responses": sum(mismatched.values())})

    def finish(self, win: Window) -> None:
        """Count the batch-composition fault on deterministic passes.

        Graphs whose logits depend on their batch partners answer wrongly
        whenever a burst puts them next to another graph of their size
        bucket, which depends on the seed.  One atomic pass of the whole
        universe per round counts them independently of it: its batches
        are fixed by the bucket policy alone.  A timed mismatch on any
        graph those passes do not show is an error.
        """
        faulty: set = set()
        for _ in range(int(win.extra["rounds"])):
            bad = self.deterministic_pass()
            win.attempted += self.universe
            win.failed += len(bad)
            faulty.update(bad)
        for gid in sorted(set(self.mismatched) - faulty):
            win.problems.append(
                f"graph {gid}: served logits differ from the stand-alone "
                f"reference {self.mismatched[gid]} times")

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close()
            self.server = None
        super().teardown()


WORKLOADS = {cls.name: cls for cls in (TrainProteins, TrainSBMFull,
                                       TrainSBMSampled, ServeProteins)}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def end_to_end(workload: Workload, setup_s: float,
               win: Window) -> Dict[str, Dict[str, object]]:
    values = {
        "setup_s": setup_s,
        "throughput_per_s": statistics.median(
            n / wall for n, wall, _ in win.rounds),
        "cpu_ms_per_item": statistics.median(
            1000.0 * cpu / n for n, _, cpu in win.rounds),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": win.extra["latency_p50_ms"],
        "latency_tail_ms": win.extra["latency_tail_ms"],
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(workload: Workload, tracer: Tracer, generate_s: float,
              win: Window, base: Window, before: Dict[str, float],
              after: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """The per-layer table of a traced window.

    Time metrics are total self time per step (training step or served
    micro-batch).  ``trace.unattributed_share`` is the self time of the
    window's root spans over their duration: the part of the wall time no
    layer span covers.
    """
    table = summarise(tracer.spans)
    delta = {k: after[k] - before[k] for k in after}
    steps = table.get(workload.step_span, {}).get("calls", 0)
    per_step = 1000.0 / steps if steps else 0.0

    def self_ms(span: str) -> float:
        return table.get(span, {}).get("self_s", 0.0) * per_step

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    top = sum(s.duration for s in tracer.spans if s.parent is None)
    unattributed = sum(table.get(name, {}).get("self_s", 0.0)
                       for name in workload.root_spans)
    values: Dict[str, float] = {"datasets.generate_s": generate_s}
    values.update({m: self_ms(span) for m, span in SPAN_METRICS.items()})
    values.update({
        "tensor.segment_plan_hit_ratio": ratio(
            delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]),
        "trace.steps": steps,
        "trace.unattributed_share": ratio(unattributed, top),
        "trace.overhead_share": (win.wall_s / win.items)
        / (base.wall_s / base.items) - 1.0,
    })
    if "collation_hits" in delta:
        values["core.collation_hit_ratio"] = ratio(
            delta["collation_hits"],
            delta["collation_hits"] + delta["collation_misses"])
    if isinstance(workload, TrainingWorkload):
        values.update({
            "training.tape_hit_ratio": ratio(delta["tape_hits"],
                                             delta["tape_steps"]),
            "training.grad_arena_mb": after["arena_mb"],
        })
    else:
        busy = table.get("inference.predict_batch", {}).get("total_s", 0.0)
        values.update({
            # The worker's whole call is the root here: report its mean
            # inclusive time, not its (unattributed) self time.
            "inference.predict_batch_ms": busy * per_step,
            "inference.arena_allocations_per_batch": ratio(
                delta["arena_allocations"], delta["batches"]),
            "inference.arena_mb": after["arena_bytes"] / 1e6,
            "serving.mean_batch_size": ratio(delta["served"],
                                             delta["batches"]),
            "serving.dedup_ratio": ratio(delta["dedup_hits"],
                                         delta["submitted"]),
            "serving.worker_busy_share": ratio(
                busy, win.wall_s * workload.server.config.workers),
        })
    return {name: metric(values.get(name, 0.0), unit)
            for name, unit in PER_LAYER}


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def timed_setups(workload: Workload) -> Tuple[List[float], float]:
    """Set up ``workload.setups`` times, each after releasing the last;
    every set-up's seconds and the median generation seconds."""
    setups, generations = [], []
    for _ in range(workload.setups):
        workload.teardown()
        gc.collect()
        workload.tracer.reset()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        generations.append(sum(s.duration for s in workload.tracer.spans
                               if s.name == "datasets.generate"))
    workload.tracer.reset()
    return setups, statistics.median(generations)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer()
    workload = WORKLOADS[name](seed, tracer)
    tracer.recording = trace
    try:
        setups, generate_s = timed_setups(workload)
        setup_s = statistics.median(setups)
        tracer.recording = False
        win = workload.window(seconds)
        workload.finish(win)
        info = {"window_s": round(win.wall_s, 3),
                "setups_s": [round(t, 3) for t in setups], **win.extra}
        if trace:
            base = win
            install_layer_spans(tracer)
            training = isinstance(workload, TrainingWorkload)
            if training:
                workload.watch(True)
            before = workload.counters()
            tracer.recording = True
            win = (tracer.call("bench.window", workload.window, seconds)
                   if training else workload.window(seconds))
            tracer.recording = False
            after = workload.counters()
            if training:
                workload.watch(False)
            tracer.restore()
            workload.finish(win)
            metrics = per_layer(workload, tracer, generate_s, win, base,
                                before, after)
            info.update({"traced_window_s": round(win.wall_s, 3),
                         "spans": len(tracer.spans)})
            win.attempted += base.attempted
            win.failed += base.failed
            win.problems = base.problems + win.problems
        else:
            metrics = end_to_end(workload, setup_s, win)
    finally:
        workload.teardown()
    print("info " + json.dumps(info, sort_keys=True))
    for problem in win.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return {"correct": not win.problems, "attempted": win.attempted,
            "failed": win.failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "kernel_workers": get_num_workers(),
               "blas_threads": blas_threads(), "cpu_count": os.cpu_count(),
               "leaked_env": leaked_env(), "repro": repro.__version__,
               **source_identity()}
    print("env " + json.dumps(context, sort_keys=True), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
