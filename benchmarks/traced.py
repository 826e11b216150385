"""Run one nbdisc command with a span around every call into each layer.

    python3 benchmarks/traced.py SPANS.jsonl RUN_ID -- bench manifest.json

Wrappers go around every public function of the layer modules (plus the
private distance kernel, to count the pairs it computes) and replace each
reference to the original in every loaded nbdisc module, so calls between
modules and within a module are traced alike.  Spans stay in memory and are
written to SPANS.jsonl when the command returns.  The source tree is not
modified.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import spans as span_io

PRIVATE = {"pseudo._distance_sq"}


def _counters(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts recorded on a span, read from its arguments and result."""
    if name == "data.load_csv":
        return {"rows": result.n_rows}
    if name == "discretize.build_scheme":
        return {"cuts": sum(len(c) for c in result.cuts)}
    if name == "pseudo._distance_sq":
        return {"pairs": int(args[1].shape[0]) * int(args[2].shape[0])}
    if name.startswith("weighted_nb.train_"):
        opts = args[2] if len(args) > 2 else kwargs.get("opts")
        max_iter = opts.max_iter if opts is not None else 500
        return {"iters": len(result.objectives) - 1, "max_iter": max_iter}
    return {}


class Recorder:
    """Collects spans of one process; ``wrap`` makes a traced function."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = {"run": self.run_id, "id": span_id, "parent": parent,
                        "name": name, "start": start, "end": end}
                if result is not None:
                    span.update(_counters(name, args, kwargs, result))
                self.spans.append(span)

        return traced


def install(recorder: Recorder) -> int:
    """Wrap the layer functions; return how many were wrapped."""
    wrapped = {}
    for layer in span_io.LAYERS:
        module = importlib.import_module(f"nbdisc.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and (not attr.startswith("_") or name in PRIVATE)
            ):
                wrapped[id(obj)] = recorder.wrap(name, obj)
    for module_name, module in list(sys.modules.items()):
        if module_name == "nbdisc" or module_name.startswith("nbdisc."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
    return len(wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, run_id, command = argv[0], argv[1], argv[3:]
    import nbdisc.cli

    recorder = Recorder(run_id)
    install(recorder)
    try:
        return nbdisc.cli.main(command)
    finally:
        span_io.write_jsonl(out_path, recorder.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
