"""Step clock and layer tracer that wrap gradsync from the outside.

Nothing under ``src/`` is edited.  Both objects replace public functions
and methods on the gradsync modules (every module-level alias too, so
``gradsync.lars.f32_to_f16`` is wrapped as well as
``gradsync.halfprec.f32_to_f16``) and put the originals back on
``uninstall``.

``StepClock`` is always on.  It takes one timestamp per training step, at
the first ``DenseNet.forward_backward`` call of the step, runs the
machine probe between steps (outside every step interval), marks the
end of the last step at the first ``TcpCluster.close`` or ``evaluate``
call, and times ``TcpCluster.close``.  ``Tracer`` is only installed for
the traced run: it records one span per call into each layer, keeps the
spans in memory, and counts
elements, bytes and calls at the same boundaries.  TCP frames are
counted in every process, through a shared anonymous mapping that the
forked workers inherit.
"""

from __future__ import annotations

import mmap
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from checks import check_bucket_mean

perf_ns = time.perf_counter_ns


def _gradsync_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gradsync" or name.startswith("gradsync."))]


class Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def everywhere(self, original, new) -> int:
        """Rebind every gradsync module attribute that is ``original``."""
        hits = 0
        for mod in _gradsync_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, new)
                    hits += 1
        if not hits:
            raise RuntimeError(f"nothing to wrap for {original!r}")
        return hits

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


# --- step boundaries ----------------------------------------------------------


@dataclass
class RoundTimes:
    """Wall-clock marks of one ``run_experiment`` call (perf_counter ns)."""

    call: int = 0
    step_starts: list = field(default_factory=list)
    step_ends: list = field(default_factory=list)
    eval_end: int = 0
    ret: int = 0
    close_ns: int = 0          # time inside TcpCluster.close (train-tcp only)
    probes_ns: list = field(default_factory=list)   # before each step but the first
    probe_before_ns: int = 0
    probe_after_ns: int = 0

    @property
    def setup_ns(self) -> int:
        return self.step_starts[0] - self.call

    @property
    def teardown_ns(self) -> int:
        """From the end of the last step to the return, less the wait in
        ``TcpCluster.close`` for the forked workers to exit, which follows
        the other load on the machine rather than the program."""
        return self.ret - self.step_ends[-1] - self.close_ns

    @property
    def write_ns(self) -> int:
        return self.ret - self.eval_end

    @property
    def steps(self) -> int:
        return len(self.step_starts)

    def step_ns(self) -> list[int]:
        return [e - s for s, e in zip(self.step_starts, self.step_ends)]

    def factors(self, reference_ns: float) -> list[float]:
        """Scale factors to the reference probe time: one for setup and
        step 0, one per later step, the last one shared with teardown.

        Each is ``reference_ns`` over the mean of the probe runs on either
        side of the interval, so drift in the machine's speed cancels."""
        probes = [self.probe_before_ns, *self.probes_ns, self.probe_after_ns]
        return [2 * reference_ns / (a + b) for a, b in zip(probes, probes[1:])]


class StepClock:
    """Marks step boundaries and runs the probe between steps."""

    def __init__(self, gradsync, workers: int, probe):
        self.g = gradsync
        self.workers = workers
        self.probe = probe
        self.tracer: Tracer | None = None
        self.current: RoundTimes | None = None
        self._calls = 0
        self._patch = Patcher()

    def install(self) -> None:
        g, clock = self.g, self
        fwd = g.toymodel.DenseNet.forward_backward
        evaluate = g.toymodel.evaluate
        close = g.tcp.TcpCluster.close

        def forward_backward(net, *args, **kwargs):
            rt = clock.current
            if clock._calls % clock.workers == 0:
                now = perf_ns()
                if rt.step_starts:
                    clock._mark(rt.step_ends, now)
                    if clock.tracer is not None:
                        clock.tracer.check_samples()
                    rt.probes_ns.append(clock.probe())
                    now = perf_ns()
                clock._mark(rt.step_starts, now)
            clock._calls += 1
            return fwd(net, *args, **kwargs)

        def end_of_steps():
            rt = clock.current
            if rt is not None and len(rt.step_ends) < len(rt.step_starts):
                clock._mark(rt.step_ends, perf_ns())

        def evaluate_(*args, **kwargs):
            end_of_steps()
            try:
                return evaluate(*args, **kwargs)
            finally:
                clock.current.eval_end = perf_ns()

        def close_(cluster, *args, **kwargs):
            end_of_steps()
            t0 = perf_ns()
            try:
                return close(cluster, *args, **kwargs)
            finally:
                if clock.current is not None:
                    clock.current.close_ns += perf_ns() - t0

        self._patch.set(g.toymodel.DenseNet, "forward_backward", forward_backward)
        self._patch.everywhere(evaluate, evaluate_)
        self._patch.set(g.tcp.TcpCluster, "close", close_)

    def _mark(self, marks: list, t: int) -> None:
        marks.append(t)
        if self.tracer is not None:
            self.tracer.mark(t)

    def uninstall(self) -> None:
        self._patch.restore()

    def run(self, cfg, out_root) -> tuple[dict, RoundTimes]:
        """One timed ``run_experiment`` call."""
        rt = self.current = RoundTimes()
        self._calls = 0
        rt.probe_before_ns = self.probe()
        rt.call = perf_ns()
        report = self.g.experiment.run_experiment(cfg, out_root=out_root)
        rt.ret = perf_ns()
        rt.probe_after_ns = self.probe()
        self.current = None
        if len(rt.step_starts) != cfg.steps or len(rt.step_ends) != cfg.steps:
            raise RuntimeError(f"saw {len(rt.step_starts)} step starts and "
                               f"{len(rt.step_ends)} ends for {cfg.steps} steps")
        return report, rt


# --- layer spans ----------------------------------------------------------------

# counters shared with forked TCP workers: one row per process slot
_FRAMES, _MESH_BYTES, _COORD_BYTES = range(3)
_SLOTS = 65
# buckets per traced step checked bitwise against the benchmark's own mean
SAMPLE_BUCKETS = 2


class Tracer:
    """Spans and counts at every public gradsync layer boundary.

    A span is (category, start ns, end ns, parent span index, count);
    the parent is the innermost open span when the call began, so a
    layer's self time is its duration minus its children's.
    """

    def __init__(self, gradsync):
        self.g = gradsync
        self.spans: list = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patch = Patcher()
        self.samples: list[tuple] = []       # (inputs, result, op), not yet checked
        self.sample_checks: list[tuple] = []
        self._bucket_in_step = 0
        self.modeled: list[tuple] = []       # (t ns, modeled seconds, modeled bytes)
        self.frame_marks: dict[int, list] = {}  # t ns -> [frames, mesh, coord]
        self._mm = mmap.mmap(-1, _SLOTS * 3 * 8)
        self.counts = np.frombuffer(self._mm, dtype=np.int64).reshape(_SLOTS, 3)
        self.slot = 0
        self.coord_port = None
        self._coord_fd: dict[int, bool] = {}

    def _cat(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, count=None, after=None):
        """Wrap ``fn`` so each call records a span of ``name``."""
        cat, spans, stack = self._cat(name), self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_ns()
                stack.pop()
                spans[idx] = (cat, t0, t1, parent, 1)
            if count is not None:
                spans[idx] = (cat, t0, t1, parent, count(args, kwargs, out))
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def mark(self, t: int) -> None:
        """Called by the clock at each step start and end."""
        self._bucket_in_step = 0
        self.frame_marks[t] = self.counts.sum(axis=0).tolist()

    # sampling for the independent mean check
    def _sample(self, args, kwargs, out, buffers_at=0) -> None:
        b = self._bucket_in_step
        self._bucket_in_step += 1
        if b < SAMPLE_BUCKETS:
            self.samples.append((list(args[buffers_at]), out[0][0], kwargs.get("op", "sum")))

    def check_samples(self) -> None:
        """Check the buckets sampled so far and drop them; the clock calls
        this between steps, outside every step interval."""
        self.sample_checks += [check_bucket_mean(*s) for s in self.samples]
        self.samples.clear()

    def install(self) -> None:
        g, p, tr = self.g, self._patch, self

        def elems(args, kwargs, out):
            return int(np.size(args[0]))

        p.everywhere(g.halfprec.f32_to_f16,
                     self.span("halfprec.narrow", g.halfprec.f32_to_f16, elems))
        p.everywhere(g.halfprec.f16_to_f32,
                     self.span("halfprec.widen", g.halfprec.f16_to_f32, elems))
        p.set(g.halfprec.LossScale, "update",
              self.span("halfprec.loss_scale", g.halfprec.LossScale.update))
        p.everywhere(g.halfprec.unscale_gradients,
                     self.span("halfprec.loss_scale", g.halfprec.unscale_gradients))

        def packed_bytes(args, kwargs, out):
            return 0 if out is None else out.nbytes

        for meth in ("enqueue", "flush"):
            p.set(g.fusion.FusionBuffer, meth,
                  self.span("fusion.pack", getattr(g.fusion.FusionBuffer, meth),
                            count=packed_bytes))
        p.everywhere(g.fusion.unpack, self.span("fusion.unpack", g.fusion.unpack))

        p.everywhere(g.collectives.ring_schedule,
                     self.span("collectives.ring_schedule", g.collectives.ring_schedule))
        p.everywhere(g.collectives.hierarchical_schedule,
                     self.span("collectives.hierarchical_schedule",
                               g.collectives.hierarchical_schedule))
        p.everywhere(g.collectives.fold_ascending,
                     self.span("collectives.fold", g.collectives.fold_ascending))
        for name in ("ring_allreduce", "hierarchical_allreduce"):
            fn = getattr(g.collectives, name)
            p.everywhere(fn, self.span("collectives.allreduce", fn,
                                       after=self._sample))

        def modeled(args, kwargs, report):
            tr.modeled.append((perf_ns(), report.total_time, report.bytes_on_wire))

        p.everywhere(g.netsim.simulate,
                     self.span("netsim.simulate", g.netsim.simulate, after=modeled))
        p.everywhere(g.lars.lars_step,
                     self.span("lars.step", g.lars.lars_step,
                               count=lambda a, k, out: len(a[0])))
        p.set(g.toymodel.DenseNet, "forward_backward",
              self.span("toymodel.fwd_bwd", g.toymodel.DenseNet.forward_backward))
        p.everywhere(g.toymodel.evaluate,
                     self.span("toymodel.evaluate", g.toymodel.evaluate))

        cluster = g.tcp.TcpCluster

        def tcp_sample(args, kwargs, out):
            self._sample(args, kwargs, out, buffers_at=1)

        p.set(cluster, "allreduce",
              self.span("tcp.allreduce", cluster.allreduce, after=tcp_sample))
        p.set(cluster, "__init__", self.span("tcp.spawn", cluster.__init__))
        p.set(cluster, "close", self.span("tcp.close", cluster.close))
        self.count_frames()

    def count_frames(self) -> None:
        """Count frames and bytes at ``tcp.send_frame`` in every process.

        Install before a ``TcpCluster`` forks, so its workers inherit the
        wrapper and the shared counter rows."""
        tcp, tr = self.g.tcp, self
        send_frame, run_worker = tcp.send_frame, tcp.run_worker

        def counted_send(sock, tag, payload):
            row = tr.counts[tr.slot]
            row[_FRAMES] += 1
            if tr.slot and not tr._is_coord(sock):
                if tag in (tcp.TAG_F32, tcp.TAG_U16):
                    row[_MESH_BYTES] += len(payload)
            else:
                row[_COORD_BYTES] += 5 + len(payload)
            return send_frame(sock, tag, payload)

        def worker(coord_host, coord_port, rank, *args, **kwargs):
            # runs in the forked worker: claim this rank's counter row
            tr.slot, tr.coord_port = rank + 1, coord_port
            tr._coord_fd.clear()
            return run_worker(coord_host, coord_port, rank, *args, **kwargs)

        self._patch.everywhere(send_frame, counted_send)
        self._patch.everywhere(run_worker, worker)

    def _is_coord(self, sock) -> bool:
        fd = sock.fileno()
        hit = self._coord_fd.get(fd)
        if hit is None:
            hit = self._coord_fd[fd] = sock.getpeername()[1] == self.coord_port
        return hit

    def uninstall(self) -> None:
        self._patch.restore()

    def frame_totals(self) -> tuple[int, int, int]:
        frames, mesh, coord = self.counts.sum(axis=0).tolist()
        return frames, mesh, coord

    def write(self, path) -> None:
        """Spans as CSV: category, start ns, end ns, parent index, count."""
        with open(path, "w") as fh:
            fh.write("index,category,start_ns,end_ns,parent,count\n")
            for i, (cat, t0, t1, parent, n) in enumerate(self.spans):
                fh.write(f"{i},{self.names[cat]},{t0},{t1},{parent},{n}\n")
