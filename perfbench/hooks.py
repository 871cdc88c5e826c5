"""Wrappers around the program's public functions, and the run log.

Everything the benchmark learns about a pass it learns by wrapping
public entry points from outside the program: :class:`Patcher` installs
a wrapper and puts the original back afterwards, and :class:`RunLog`
holds the only wrappers an untraced pass installs — a couple of
timestamps per simulation run, the stage boundaries.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, List, NamedTuple, Optional


class Patcher:
    """Installs wrappers around program functions and removes them again.

    A target is ``"module:function"`` or ``"module:Class.method"``.  A
    module-level function is replaced in every loaded ``repro`` module
    that imported it by name, so ``from x import f`` call sites see the
    wrapper too.  Wrappers must be installed before the objects whose
    bound methods they should catch are built.
    """

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def wrap(self, target: str, make: Callable,
             required: bool = True) -> bool:
        """Wrap ``target`` in ``make(original)``; False if it is gone.

        A missing target raises unless ``required`` is false, so a
        layer span whose function a later change deletes reads 0
        instead of breaking the traced run.
        """
        module_name, _, path = target.partition(":")
        owner_name, _, attr = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            if required:
                raise
            return False
        wrapped = make(original)
        if owner_name:
            self._set(owner, attr, wrapped)
            return True
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped)
        return True

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, newest wrapper first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class RunRecord(NamedTuple):
    """One simulation run of a pass, as the run log saw it end."""

    run_id: str
    label: str
    result: object          # repro.core.system.SimulationResult
    mem_final: int          # host bytes still allocated after the run
    mem_peak: int           # host allocator high-water mark
    mode: str               # "batch" / "scalar" / "" (reference engine)


class RunLog:
    """Stage boundaries and simulation results of one pass.

    Run ids are ``<label>/<scheme>#<n>``: the label names the study or
    the campaign cell (benchmark plus every simulation parameter that
    differs from the pass's base parameters), and ``n`` counts earlier
    runs with the same label and scheme, so ids are the same under
    every engine.
    """

    def __init__(self, base_params) -> None:
        self.base = base_params.checkpoint_fields()
        #: id of the run (or label of the study) in progress; spans read it
        self.current = [""]
        self.first_run_at: Optional[float] = None
        self.replay_s = 0.0
        self.refs = 0
        self.records: List[RunRecord] = []
        #: exception type names of runs or studies that raised
        self.errors: List[str] = []
        self._seen: Counter = Counter()
        self._label = ""

    @property
    def label(self) -> str:
        return self._label

    @label.setter
    def label(self, value: str) -> None:
        self._label = value
        self.current[0] = value

    def variant(self, params) -> str:
        fields = params.checkpoint_fields()
        return "".join(f"+{name}={value!r}"
                       for name, value in sorted(fields.items())
                       if self.base.get(name) != value)

    def next_id(self, scheme: str) -> str:
        key = f"{self._label}/{scheme}"
        number = self._seen[key]
        self._seen[key] += 1
        return f"{key}#{number}"

    def add(self, run_id: str, result, mem_final: int = 0,
            mem_peak: int = 0, mode: str = "") -> None:
        self.records.append(RunRecord(run_id, self._label, result,
                                      mem_final, mem_peak, mode))

    def install(self, patcher: Patcher) -> None:
        """Timestamp every ``Machine.run`` and label campaign runs."""
        log = self

        def wrap_run(original):
            def run(machine, streams, *args, **kwargs):
                streams = list(streams)
                refs = sum(len(stream) for stream in streams)
                run_id = log.next_id(machine.scheme.name)
                outer, log.current[0] = log.current[0], run_id
                start = perf_counter()
                if log.first_run_at is None:
                    log.first_run_at = start
                try:
                    result = original(machine, streams, *args, **kwargs)
                    log.replay_s += perf_counter() - start
                finally:
                    log.current[0] = outer
                log.refs += refs
                memory = machine.host.memory
                log.add(run_id, result, memory.bytes_allocated,
                        memory.peak_bytes, machine.last_replay_mode)
                return result
            return run

        def wrap_simulate(original):
            def simulate_run(benchmark, scheme, params, *args, **kwargs):
                outer = log.label
                log.label = benchmark + log.variant(params)
                log.current[0] = f"{log.label}/{scheme}"
                try:
                    return original(benchmark, scheme, params,
                                    *args, **kwargs)
                finally:
                    log.label = outer
            return simulate_run

        patcher.wrap("repro.core.system:Machine.run", wrap_run)
        patcher.wrap("repro.experiments.runner:simulate_run", wrap_simulate)
