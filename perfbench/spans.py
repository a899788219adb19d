"""In-memory span recorder for the traced benchmark run.

Wraps named functions at their module or class attributes so every call
records a span (name, start, end, parent span, run id).  Spans live in
flat typed arrays until the run ends; self time is the span's duration
minus the time its child spans cover.  Every wrapped attribute is put back
when the `installed` context exits, so untraced runs in the same process
measure unpatched code.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array

import numpy as np


def self_times(start, end, parent) -> np.ndarray:
    """Span durations minus the summed durations of their direct children.

    Spans recorded in one thread nest strictly, so the children of a span
    never overlap and their summed duration is the part of the parent's
    interval they cover.  parent holds the index of the parent span, -1
    for a root span.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur - child


class Tracer:
    """Records one span per call of each installed target.

    A target is (owner, attribute, span name, size_arg).  owner is a module
    or class; size_arg, when not None, is the index of the positional
    argument holding a file path whose size after the call is recorded as
    the span's bytes.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.nbytes = array("q")
        self.run_id = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, size_arg):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        start, end, name_id = self.start, self.end, self.name_id
        parent, run, nbytes, stack = self.parent, self.run, self.nbytes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            nbytes.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if size_arg is not None:
                nbytes[i] = os.path.getsize(args[size_arg])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every target for the duration of the block, then restore
        the exact original attribute objects."""
        saved = []
        try:
            for owner, attr, name, size_arg in targets:
                raw = vars(owner)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self._wrap(name, raw.__func__, size_arg))
                else:
                    patched = self._wrap(name, raw, size_arg)
                saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def arrays(self) -> dict:
        return {
            "names": np.asarray(self.names, dtype=str),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "run": np.asarray(self.run, dtype=np.int64),
            "bytes": np.asarray(self.nbytes, dtype=np.int64),
        }

    def per_run(self) -> dict:
        """{run id: {span name: {"calls", "self_s", "bytes"}}} over every
        recorded span; names never called in a run are absent from it."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        out: dict = {}
        for r in np.unique(a["run"]).tolist():
            sel = a["run"] == r
            ids = a["name_id"][sel]
            calls = np.bincount(ids, minlength=len(self.names))
            secs = np.bincount(ids, weights=own[sel], minlength=len(self.names))
            size = np.bincount(ids, weights=a["bytes"][sel], minlength=len(self.names))
            out[r] = {
                name: {"calls": int(calls[i]), "self_s": float(secs[i]), "bytes": int(size[i])}
                for i, name in enumerate(self.names) if calls[i]
            }
        return out

    def save(self, path) -> None:
        np.savez(path, **self.arrays())
