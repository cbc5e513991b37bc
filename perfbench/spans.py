"""In-memory span recording around the library's public functions.

The tracer replaces a function in the module that calls it (for example
`lapdiff.experiments.run_instance`, which `run_sweep` reaches through the
experiments module) by a wrapper that records a span: its layer name,
start, end, parent span and operation id. Spans stay in memory and are
written out once, when the run ends. Uninstalling restores every original
function, so a traced pass never leaks into an untraced one.
"""

import json
import os
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_op = 0
        self._installed = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, new_op):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if new_op:
                op = self._next_op
                self._next_op += 1
            else:
                op = self.spans[parent]["op"] if parent is not None else None
            index = len(self.spans)
            self.spans.append(
                {"name": name, "start": time.perf_counter(), "end": None,
                 "parent": parent, "op": op, "thread": threading.get_ident()}
            )
        stack.append(index)
        return index

    def _close(self, index, fields):
        self._stack().pop()
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span.update(fields)

    def call(self, name, fn, args, kwargs, new_op=False, note=None):
        """Run fn(*args, **kwargs) inside a span; note(args, kwargs, result) adds fields."""
        index = self._open(name, new_op)
        fields = {}
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                fields = note(args, kwargs, result)
            return result
        finally:
            self._close(index, fields)

    def wrap(self, module, attr, name, new_op=False, note=None):
        """Replace module.attr by a span-recording wrapper until uninstall()."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, new_op=new_op, note=note)

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def adopt(self, spans):
        """Append spans recorded by another process, as one new operation."""
        offset = len(self.spans)
        with self._lock:
            op = self._next_op
            self._next_op += 1
        for span in spans:
            span["parent"] = None if span["parent"] is None else span["parent"] + offset
            span["op"] = op
            self.spans.append(span)

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Write the spans as JSON, dropping fields that are not plain scalars."""
        plain = [
            {k: v for k, v in span.items() if isinstance(v, (str, int, float, bool, type(None)))}
            for span in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(plain, fh)


def install_library(tracer, capture_estimates=False):
    """Wrap every traced layer of the library where its caller bound it."""
    import lapdiff
    import lapdiff.cli as cli
    import lapdiff.estimator as estimator
    import lapdiff.experiments as experiments
    import lapdiff.sampling as sampling

    def cell_note(args, kwargs, result):
        scenario, n1 = args[0], args[1]
        return {"n": int(n1), "truth": scenario.delta_true}

    def solve_note(args, kwargs, result):
        fields = {"iterations": int(result.iterations), "converged": bool(result.converged)}
        if capture_estimates:
            fields["estimate"] = result.delta
        return fields

    def size_note(args, kwargs, result):
        return {"mb": os.path.getsize(args[0]) / 1e6}

    tracer.wrap(experiments, "run_instance", "experiments.cell", new_op=True, note=cell_note)
    tracer.wrap(experiments, "sample_potentials", "sampling.sample")
    for module in (experiments, cli):
        tracer.wrap(module, "precision_factor", "sampling.factor")
        tracer.wrap(module, "estimate_delta", "estimator.solve", note=solve_note)
    tracer.wrap(sampling, "sqrt_psd", "linalg.root")
    tracer.wrap(estimator, "run_admm", "estimator.admm")
    tracer.wrap(estimator, "penalized_objective", "estimator.objective")
    for module in (experiments, lapdiff):
        tracer.wrap(module, "load_case118", "matpower.load")
        tracer.wrap(module, "case_laplacian", "network.build")
        tracer.wrap(module, "reduce_ground_node", "network.build")
    tracer.wrap(cli, "read_samples_csv", "matio.read", note=size_note)
    tracer.wrap(cli, "read_matrix_csv", "matio.read", note=size_note)
    tracer.wrap(cli, "write_matrix_csv", "matio.write", note=size_note)
    tracer.wrap(cli, "write_keyvalue", "matio.write", note=size_note)


def self_times(spans):
    """Each span's duration minus the time its child spans cover, in seconds."""
    out = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]] -= span["end"] - span["start"]
    return out
