"""In-memory span recorder placed around each call into a library layer.

Every job calls the library through ``Recorder.call(name, fn, ...)``, where
``name`` is ``<module>.<public function>``.  The recorder has three modes:

* ``off``: a direct call, used for the untraced end-to-end figures;
* ``spans``: one span per call (name, start, end, parent job span, job id),
  kept in memory and written out once the run is over;
* ``memory``: the ``tracemalloc`` peak of each call above the memory held
  when it started, for the ``peak_mb`` metrics.  Kept apart from ``spans``
  because tracemalloc slows every allocation and would inflate busy time.
"""

from __future__ import annotations

import json
import tracemalloc
from collections import Counter
from time import perf_counter


class Recorder:
    def __init__(self, mode: str = "off"):
        if mode not in ("off", "spans", "memory"):
            raise ValueError(f"unknown recorder mode {mode!r}")
        self.mode = mode
        # span: [name, start, end, parent span index or None, job id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peak_mb: dict[str, float] = {}
        self._job_span = None
        self._job_id = None

    def begin_job(self, job_id: str, name: str):
        if self.mode == "spans":
            self._job_span = len(self.spans)
            self.spans.append([f"job:{name}", perf_counter(), None, None, job_id])
        self._job_id = job_id

    def end_job(self):
        if self.mode == "spans":
            self.spans[self._job_span][2] = perf_counter()
        self._job_span = None
        self._job_id = None

    def call(self, name: str, fn, *args, **kwargs):
        if self.mode == "off":
            return fn(*args, **kwargs)
        self.counts[name] += 1
        if self.mode == "memory":
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            peak = (tracemalloc.get_traced_memory()[1] - held) / 2**20
            self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)
            return out
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append([name, start, perf_counter(), self._job_span, self._job_id])
        return out

    def busy_by_round(self) -> dict[str, dict[int, float]]:
        """Summed span time per layer call name and round (job ids are
        ``<round>:<job>``, or ``sweep:<job>`` for the layer sweep, round 0)."""
        out: dict[str, dict[int, float]] = {}
        for name, start, end, _parent, job_id in self.spans:
            if name.startswith("job:"):
                continue
            head = job_id.split(":", 1)[0]
            rnd = int(head) if head.isdigit() else 0
            per = out.setdefault(name, {})
            per[rnd] = per.get(rnd, 0.0) + (end - start)
        return out

    def write(self, path):
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "job_id"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
