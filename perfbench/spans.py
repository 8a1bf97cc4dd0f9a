"""Span tracing for the traced benchmark run, from outside the package.

:func:`instrument` rebinds, for the duration of a ``with`` block, the
names each calling module looks up -- ``susycdr.cli.run``, the oracle
names in ``susycdr.cli`` and ``susycdr.verify``, ``eval_fields`` and
``integrate`` as ``susycdr.verify`` sees them, the ``Eigenstate`` value
and derivative methods, ``laguerre_values`` in ``susycdr.quantum`` and
``susycdr.mathfn``, and ``susycdr._kernels.cn_evolve`` -- so spans nest
cli -> verify -> cdr/mathfn -> quantum -> _kernels. The package itself
is not changed.

Each span records its name, start, end, parent and the item it belongs
to; spans stay in memory (compact arrays) until :meth:`Tracer.summary`.
Counts are taken from the wrapped calls' arguments and results as the
calls happen.
"""

import array
import contextlib
import gzip
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from susycdr import _kernels, cli, mathfn, quantum, verify

VERIFY_ORACLES = ("schrodinger_residual", "ode_residual", "pde_residual",
                  "orthonormality_matrix", "node_count",
                  "positive_diffusion_x_max", "evolve_oracle")

# Metric names of the traced run, in report order, with their units.
PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "cli.bytes_written": "count",
    "verify.evolve_oracle.ms": "ms",
    "verify.evolve_oracle.cell_steps": "count",
    "verify.orthonormality_matrix.ms": "ms",
    "verify.orthonormality_matrix.entries": "count",
    "verify.pde_residual.ms": "ms",
    "verify.pde_residual.points": "count",
    "verify.schrodinger_residual.ms": "ms",
    "verify.ode_residual.ms": "ms",
    "verify.node_count.ms": "ms",
    "verify.positive_diffusion_x_max.ms": "ms",
    "verify.self_ms": "ms",
    "mathfn.integrate.calls": "count",
    "mathfn.integrate.integrand_points": "count",
    "mathfn.integrate.self_ms": "ms",
    "cdr.eval_fields.calls": "count",
    "cdr.eval_fields.points": "count",
    "cdr.eval_fields.self_ms": "ms",
    "quantum.eigenstate.calls": "count",
    "quantum.eigenstate.points": "count",
    "quantum.eigenstate.self_ms": "ms",
    "kernels.laguerre_values.calls": "count",
    "kernels.laguerre_values.recurrence_steps": "count",
    "kernels.laguerre_values.ms": "ms",
    "kernels.cn_evolve.calls": "count",
    "kernels.cn_evolve.ms": "ms",
    "kernels.cn_evolve.ns_per_cell_step": "ns",
    "trace.overhead_s": "s",
}
COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u == "count")

# The cn_evolve cell steps divide its time; they are not reported alone.
_CN_CELL_STEPS = "kernels.cn_evolve.cell_steps"


class Tracer:
    """Spans and counts of the wrapped calls made since the last reset."""

    def __init__(self):
        self.names = []
        self.item = -1
        self.reset()

    def reset(self):
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.item_id = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(counts, args, result)``
        adds to the counts after the call returns."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            stack = self._stack
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.item_id.append(self.item)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def summary(self):
        """Per-layer metrics of the spans and counts since the last reset."""
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        incl = np.bincount(names, weights=dur, minlength=len(self.names))
        own = np.bincount(names, weights=self_ns, minlength=len(self.names))

        def ms(values, prefix):
            return sum(float(v) for n, v in zip(self.names, values)
                       if n == prefix or n.startswith(prefix + ".")) / 1e6

        out = {name: 0 for name in COUNT_METRICS}
        out.update({k: v for k, v in self.counts.items() if k in out})
        out["cli.self_ms"] = ms(own, "cli.run")
        for oracle in VERIFY_ORACLES:
            out[f"verify.{oracle}.ms"] = ms(incl, f"verify.{oracle}")
        out["verify.self_ms"] = ms(own, "verify")
        out["mathfn.integrate.self_ms"] = ms(own, "mathfn.integrate")
        out["cdr.eval_fields.self_ms"] = ms(own, "cdr.eval_fields")
        out["quantum.eigenstate.self_ms"] = ms(own, "quantum.eigenstate")
        out["kernels.laguerre_values.ms"] = ms(incl, "kernels.laguerre_values")
        cn_ms = ms(incl, "kernels.cn_evolve")
        out["kernels.cn_evolve.ms"] = cn_ms
        cells = self.counts[_CN_CELL_STEPS]
        out["kernels.cn_evolve.ns_per_cell_step"] = (
            cn_ms * 1e6 / cells if cells else 0.0)
        return out

    def write(self, path: Path):
        """Spans as gzip'd CSV: name, item, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name,item,start_ns,end_ns,parent\n")
            for nid, item, t0, t1, par in zip(self.name_id, self.item_id,
                                              self.start, self.end,
                                              self.parent):
                fh.write(f"{self.names[nid]},{item},{t0},{t1},{par}\n")


# -- counts taken from arguments and results ---------------------------------

def _count_cli(counts, args, kwargs, result):
    argv = args[0]
    out = Path(argv[argv.index("--out") + 1])
    counts["cli.bytes_written"] += sum(
        p.stat().st_size for p in out.rglob("*") if p.is_file())


def _count_evolve(counts, args, kwargs, result):
    counts["verify.evolve_oracle.cell_steps"] += sum(
        nx * nt for nx, nt, _ in result.entries)


def _count_gram(counts, args, kwargs, result):
    counts["verify.orthonormality_matrix.entries"] += result.size


def _count_pde(counts, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    counts["verify.pde_residual.points"] += grid.nx * grid.nt


def _count_fields(counts, args, kwargs, result):
    counts["cdr.eval_fields.calls"] += 1
    counts["cdr.eval_fields.points"] += np.broadcast(args[1], args[2]).size


def _count_eigenstate(counts, args, kwargs, result):
    counts["quantum.eigenstate.calls"] += 1
    counts["quantum.eigenstate.points"] += np.size(args[1])


def _count_laguerre(counts, args, kwargs, result):
    n, _, y = args
    counts["kernels.laguerre_values.calls"] += 1
    counts["kernels.laguerre_values.recurrence_steps"] += np.size(y) * n


def _count_cn(counts, args, kwargs, result):
    p0, r_half = args[0], args[3]
    counts["kernels.cn_evolve.calls"] += 1
    counts[_CN_CELL_STEPS] += p0.shape[0] * r_half.shape[0]


def _counted_integrate(tracer, integrate):
    """integrate() whose integrand counts the points it is evaluated at."""
    inner = tracer.wrap("mathfn.integrate", integrate)

    def traced(f, *args, **kwargs):
        tracer.counts["mathfn.integrate.calls"] += 1

        def counted(x):
            tracer.counts["mathfn.integrate.integrand_points"] += np.size(x)
            return f(x)

        return inner(counted, *args, **kwargs)

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the package names the layers call through to traced wrappers."""
    saved = []

    def rebind(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    oracle_counts = {"evolve_oracle": _count_evolve,
                     "orthonormality_matrix": _count_gram,
                     "pde_residual": _count_pde}
    try:
        rebind(cli, "run", tracer.wrap("cli.run", cli.run, _count_cli))
        for oracle in VERIFY_ORACLES:
            wrapped = tracer.wrap(f"verify.{oracle}", getattr(verify, oracle),
                                  oracle_counts.get(oracle))
            rebind(verify, oracle, wrapped)
            if hasattr(cli, oracle):
                rebind(cli, oracle, wrapped)
        fields = tracer.wrap("cdr.eval_fields", verify.eval_fields,
                             _count_fields)
        rebind(cli, "eval_fields", fields)
        rebind(verify, "eval_fields", fields)
        rebind(verify, "integrate", _counted_integrate(tracer, verify.integrate))
        for method in ("__call__", "deriv", "deriv2"):
            rebind(quantum.Eigenstate, method, tracer.wrap(
                f"quantum.eigenstate.{method.strip('_')}",
                getattr(quantum.Eigenstate, method), _count_eigenstate))
        laguerre = tracer.wrap("kernels.laguerre_values",
                               quantum.laguerre_values, _count_laguerre)
        rebind(quantum, "laguerre_values", laguerre)
        rebind(mathfn, "laguerre_values", laguerre)
        rebind(_kernels, "cn_evolve", tracer.wrap(
            "kernels.cn_evolve", _kernels.cn_evolve, _count_cn))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
