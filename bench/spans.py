"""In-memory spans recorded around calls into the cereduce layers.

Each span carries a name, start and end times, the id of the enclosing
span, an op id shared by every span of one operation (one model's
reduction, one verify, one simulate batch) and the round of the run it
belongs to.  Spans stay in memory while the benchmark runs and are
written out as JSON lines when it ends.

The names are ``<module>.<function>`` of the layer being called, so an
in-program tracer can later emit the same records.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    op: str
    round: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans when enabled; a no-op otherwise."""

    def __init__(self, enabled: bool, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = ""
        self.round = 0

    @contextmanager
    def op(self, op_id: str):
        """Tag every span opened inside the block with ``op_id``."""
        outer, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = outer

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1].id if self._stack else None
        sp = Span(id=len(self.spans), name=name, op=self._op, round=self.round,
                  parent=parent, start=self.clock(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover.

        Spans nest on one thread, so children never overlap each other.
        """
        own = {sp.id: sp.duration for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.duration
        return own

    def write_jsonl(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for sp in self.spans:
                rec = asdict(sp)
                rec["self"] = selfs[sp.id]
                fh.write(json.dumps(rec) + "\n")
