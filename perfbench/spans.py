"""Span recorder that wraps public ``pld`` functions from outside the package.

Each wrapped call records one span: its name, start, end and the span that
was open when it began (its parent).  Spans stay in flat arrays until
``summary`` runs; a span's self time is its duration minus the durations of
its children, which nest inside it because they run on the same call stack.

The package's modules import names directly (``from .fbl import
packet_error_rate``), so a function is re-bound in every ``pld`` module that
holds it; wrapping only its home module would miss those calls.  A target
that names a class wraps its ``__init__``, which counts every construction,
including the ones ``dataclasses.replace`` makes.

The open-span stack is shared, so install the tracer only around
single-threaded work.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable

import numpy as np

Observer = Callable[[tuple, dict, object], None]


class Tracer:
    """Wraps named ``pld`` functions and keeps one span per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._label = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, label: int, fn: Callable, observe: Observer | None) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        labels, parents, starts, ends = self._label, self._parent, self._start, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            labels.append(label)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets: dict[str, Observer | None]) -> None:
        """Wrap each ``"module.name"`` target (relative to ``pld``).

        A name the package no longer defines is skipped; its counts read 0.
        """
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "pld" or key.startswith("pld.")
        ]
        for name, observe in targets.items():
            label = len(self.names)
            self.names.append(name)
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules.get(f"pld.{module_name}"), attr, None)
            if original is None:
                continue
            if isinstance(original, type):
                init = original.__init__
                self._undo.append((original, "__init__", init))
                original.__init__ = self._wrap(label, init, observe)
                continue
            wrapper = self._wrap(label, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Restore every name ``install`` re-bound."""
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target: ``calls``, total ``s``, ``self_s`` and median ``ms``."""
        label = np.frombuffer(self._label, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        own = duration - child
        out = {}
        for idx, name in enumerate(self.names):
            mine = label == idx
            calls = int(mine.sum())
            out[name] = {
                "calls": calls,
                "s": float(duration[mine].sum()),
                "self_s": float(own[mine].sum()),
                "ms_p50": float(np.median(duration[mine])) * 1e3 if calls else 0.0,
            }
        return out
