"""In-memory spans around calls into the bfwave layers.

The benchmark does not edit the package. For the duration of a traced
operation it rebinds the public (and a few internal) names that bfwave.cli,
bfwave.observer and bfwave.diagnostics look up at call time to wrappers that
record a span: name, start, end, parent span and the operation it belongs
to; untraced operations run the original bindings. Spans stay in memory
until the run ends. A name that a later version no longer has is reported
as missing and its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

START, END, PARENT, OP, NAME, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        """Trace calls made through module.attr (see wrapper)."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.add(f"{module.__name__}.{attr}")
            return
        self.patch(vars(module), attr, self.wrapper(fn, name, attrs))

    def patch(self, namespace: dict, key: str, replacement) -> None:
        """Bind namespace[key] to replacement while an operation is traced."""
        self._patches.append((namespace, key, namespace[key], replacement))

    def wrapper(self, fn, name: str, attrs=None):
        """fn wrapped to record a span named name around each call.

        attrs(arguments, result) returns what the span keeps about the call;
        arguments maps parameter names to the values passed (defaults left
        out). It runs after the span has ended.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        params = list(inspect.signature(fn).parameters) if attrs is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [clock(), 0.0, stack[-1] if stack else -1, self.op, name, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if params is not None:
                arguments = dict(zip(params, args))
                arguments.update(kwargs)
                try:
                    rec[ATTRS] = attrs(arguments, result)
                except (KeyError, AttributeError, TypeError) as e:
                    # a changed signature costs this span its counts, not the run
                    self.missing.add(f"{name} arguments ({e!r})")
            return result

        return wrapper

    def root(self, name: str, fn, *args):
        """Run fn(*args) traced, as the root span of a new operation."""
        self.op += 1
        traced = self.wrapper(fn, name)
        for namespace, key, _, replacement in self._patches:
            namespace[key] = replacement
        try:
            return traced(*args)
        finally:
            for namespace, key, original, _ in self._patches:
                namespace[key] = original

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "op": s[OP], "name": s[NAME], "parent": s[PARENT],
                         "start": s[START], "end": s[END]}
                    )
                    + "\n"
                )


def self_times(tracer: Tracer) -> dict[int, float]:
    """Span index -> duration minus the time its child spans cover.

    Spans come from one thread and nest strictly, so children never overlap
    and their durations can simply be subtracted.
    """
    own = {i: s[END] - s[START] for i, s in enumerate(tracer.spans)}
    for s in tracer.spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
