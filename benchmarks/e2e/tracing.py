"""Span tracing installed from the benchmark's side.

The program under test is not edited: a :class:`Tracer` *wraps* the
functions at each layer boundary (see :func:`client_targets` and
friends), records one span per call, and is removed again after the
traced run.  Per-layer numbers come from per-operation aggregates:

* a span's **self time** is its duration minus the time its child
  spans cover (children are the spans opened on the same thread while
  it was on top of the stack);
* every span belongs to one **operation** (a query, an update, a
  session): nested spans inherit their parent's operation, root spans
  take the tracer's current operation (closed loops, one operation at
  a time) or derive it from their arguments (the server subprocess
  keys on session ids);
* the first :data:`FOLD_AFTER` calls per (operation, name, parent) are
  kept as full spans for the ``.spans.jsonl`` dump; later calls only
  grow that key's (count, total, child total) aggregate, which keeps a
  1,300-page scan query at a few dozen records instead of thousands.

Hot leaf functions (``decode_record``) get a count-only wrapper: one
integer add, no clock reads.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Full spans kept per (operation, name, parent) before folding.
FOLD_AFTER = 64

#: (operation, span name, parent span name or None)
AggKey = Tuple[Any, str, Optional[str]]

#: "This attribute was not in the owner's own __dict__ before patching."
_ABSENT = object()


class _ThreadState:
    __slots__ = ("stack", "aggs", "thread")

    def __init__(self) -> None:
        #: Open frames: [name, start, child_total, op].
        self.stack: List[list] = []
        #: AggKey -> [count, total_s, child_total_s]
        self.aggs: Dict[AggKey, List[float]] = {}
        self.thread = threading.current_thread().name


class Tracer:
    """Records spans and per-operation aggregates; owns the wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        #: (op, name, parent, start, end, thread) — appended from any
        #: thread (``list.append`` is atomic under the GIL).
        self.spans: List[tuple] = []
        #: Operation new root spans are charged to (closed-loop drivers
        #: set it around each operation).
        self.current_op: Any = None
        #: op -> kind ("query", "update", "session").
        self.op_kinds: Dict[Any, str] = {}
        #: Count-only wrappers: name -> [calls, calls already folded].
        self._counts: Dict[str, List[int]] = {}
        self._count_aggs: Dict[AggKey, List[float]] = {}
        #: (owner, attribute, original) for :meth:`uninstall`.
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- operations -----------------------------------------------------

    def begin_op(self, op: Any, kind: str) -> None:
        self._fold_counts(None)  # calls made between operations
        self.op_kinds[op] = kind
        self.current_op = op

    def end_op(self) -> None:
        self._fold_counts(self.current_op)
        self.current_op = None

    def _fold_counts(self, op: Any) -> None:
        """Charge the count-only calls made since the last fold to ``op``."""
        for name, cell in self._counts.items():
            calls = cell[0] - cell[1]
            if calls:
                cell[1] = cell[0]
                agg = self._count_aggs.setdefault(
                    (op, name, None), [0, 0.0, 0.0]
                )
                agg[0] += calls

    # -- wrappers ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def span_wrapper(
        self,
        name: str,
        fn: Callable,
        op_from_args: Optional[Callable[..., Any]] = None,
        op_from_result: Optional[Callable[[Any], Any]] = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        The span's operation is ``op_from_args(*args)`` when given, else
        the enclosing span's, else :attr:`current_op`;
        ``op_from_result`` re-keys it on the return value (a session id
        only exists once ``open_session`` has returned).
        """
        tracer = self
        clock = self._clock
        spans = self.spans

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if op_from_args is not None:
                op = op_from_args(*args, **kwargs)
            elif stack:
                op = stack[-1][3]
            else:
                op = tracer.current_op
            frame = [name, clock(), 0.0, op]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if op_from_result is not None:
                    frame[3] = op_from_result(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                parent = None
                if stack:
                    outer = stack[-1]
                    outer[2] += duration
                    parent = outer[0]
                key = (frame[3], name, parent)
                agg = state.aggs.get(key)
                if agg is None:
                    agg = state.aggs[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += frame[2]
                if agg[0] <= FOLD_AFTER:
                    spans.append(
                        (frame[3], name, parent, frame[1], end,
                         state.thread)
                    )

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and nothing else."""
        cell = self._counts.setdefault(name, [0, 0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    # -- installation -----------------------------------------------------

    def install(self, targets: Iterable["Target"]) -> None:
        for target in targets:
            target.install(self)

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patched.append(
            (owner, attribute, owner.__dict__.get(attribute, _ABSENT))
        )
        setattr(owner, attribute, replacement)

    def wrap_attribute(self, owner: Any, attribute: str, name: str) -> None:
        """Wrap whatever ``owner.attribute`` resolves to right now — for
        callables rebound on one instance, which class-level targets
        cannot reach."""
        self._patch(owner, attribute,
                    self.span_wrapper(name, getattr(owner, attribute)))

    def uninstall(self) -> None:
        """Restore every wrapped function (reverse order)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- results ----------------------------------------------------------

    def aggregates(self) -> Dict[AggKey, List[float]]:
        """All threads' aggregates merged: AggKey -> [count, total, child]."""
        self._fold_counts(self.current_op)
        merged: Dict[AggKey, List[float]] = {
            key: list(value) for key, value in self._count_aggs.items()
        }
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (count, total, child) in list(state.aggs.items()):
                into = merged.get(key)
                if into is None:
                    merged[key] = [count, total, child]
                else:
                    into[0] += count
                    into[1] += total
                    into[2] += child
        return merged

    def dump(self) -> Dict[str, list]:
        """JSON-ready spans and aggregates (server subprocess hand-off)."""
        return {
            "spans": [list(span) for span in self.spans],
            "aggregates": [
                [op, name, parent, count, total, child]
                for (op, name, parent), (count, total, child)
                in self.aggregates().items()
            ],
        }


class Target:
    """One function to wrap: ``module:Class.method`` or ``module:function``.

    ``count_only`` installs :meth:`Tracer.count_wrapper`.  A module-level
    function is replaced in *every* loaded ``repro`` module that imported
    it by name, since ``from x import f`` call sites never look at
    ``x.f`` again.
    """

    def __init__(
        self,
        span: str,
        path: str,
        count_only: bool = False,
        op_from_args: Optional[Callable[..., Any]] = None,
        op_from_result: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.span = span
        self.module_name, self.qualname = path.split(":")
        self.count_only = count_only
        self.op_from_args = op_from_args
        self.op_from_result = op_from_result

    def _wrap(self, tracer: Tracer, fn: Callable) -> Callable:
        if self.count_only:
            return tracer.count_wrapper(self.span, fn)
        return tracer.span_wrapper(
            self.span, fn, self.op_from_args, self.op_from_result
        )

    def install(self, tracer: Tracer) -> None:
        module = importlib.import_module(self.module_name)
        parts = self.qualname.split(".")
        if len(parts) == 2:
            owner = getattr(module, parts[0])
            raw = owner.__dict__[parts[1]]
            if isinstance(raw, staticmethod):
                wrapped: Any = staticmethod(self._wrap(tracer, raw.__func__))
            elif isinstance(raw, classmethod):
                inner = self._wrap(tracer, raw.__func__)
                wrapped = classmethod(inner)
            else:
                wrapped = self._wrap(tracer, raw)
            tracer._patch(owner, parts[1], wrapped)
            return
        original = getattr(module, parts[0])
        wrapped = self._wrap(tracer, original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            if loaded.__dict__.get(parts[0]) is original:
                tracer._patch(loaded, parts[0], wrapped)


# ----------------------------------------------------------------------
# Layer boundaries (span name, function)
# ----------------------------------------------------------------------


def session_op(session_id: int) -> str:
    """Operation key of the server-side spans of one ISP session."""
    return f"sid:{session_id}"


def _session_arg(position: int) -> Callable[..., Any]:
    def pick(*args, **_kwargs):
        return session_op(args[position])
    return pick


_RPC_METHODS = (
    "get_certificate", "open_session", "get_file_meta", "get_page",
    "validate_path", "finalize_session", "fetch_chain_heads",
)

_CODEC_ENCODERS = (
    "frame", "encode_get_certificate", "encode_open_session",
    "encode_get_file_meta", "encode_get_page", "encode_validate_path",
    "encode_finalize_session", "encode_chain_heads_request",
    "encode_certificate", "encode_session", "encode_file_meta",
    "encode_page", "encode_validation", "encode_vo",
    "encode_chain_heads", "encode_error",
)


def client_targets() -> List[Target]:
    """Verifying client: query root, certificate, engine, VFS, VO check."""
    return [
        Target("client.query", "repro.client.query_client:QueryClient.query"),
        Target("cert.verify",
               "repro.core.certificate:V2fsCertificate.verify_signature"),
        Target("chain.check_header", "repro.chain.consensus:check_header"),
        Target("vbf.decode", "repro.core.certificate:V2fsCertificate.vbf"),
        Target("client.session_open",
               "repro.client.vfs:ClientSession.__init__"),
        Target("db.exec", "repro.db.engine:Engine.execute"),
        Target("db.parse", "repro.db.sql.parser:parse_statement"),
        Target("db.plan", "repro.db.plan.planner:plan_select"),
        Target("db.record_decode", "repro.db.record:decode_record",
               count_only=True),
        Target("pager.read", "repro.db.pager:Pager.read_page"),
        Target("vfs.access_page",
               "repro.client.vfs:ClientSession.access_page"),
        Target("vfs.file_meta", "repro.client.vfs:ClientSession.file_meta"),
        Target("vbf.check",
               "repro.vbf.versioned_bloom:VersionedBloomFilter.positions"),
        Target("vbf.check",
               "repro.vbf.versioned_bloom:VersionedBloomFilter.fresh_since"),
        Target("client.finalize", "repro.client.vfs:ClientSession.finalize"),
        Target("vo.verify", "repro.merkle.ads:V2fsAds.verify_read_proof"),
    ]


def rpc_targets() -> List[Target]:
    """RPC proxy methods and the wire codec (both ends)."""
    targets = [
        Target(f"rpc.call.{method}", f"repro.rpc.client:RemoteIsp.{method}")
        for method in _RPC_METHODS
    ]
    targets += [
        Target("codec.encode", f"repro.rpc.codec:{name}")
        for name in _CODEC_ENCODERS
    ]
    targets += [
        Target("codec.decode", "repro.rpc.codec:decode_request"),
        Target("codec.decode", "repro.rpc.codec:decode_response"),
        Target("codec.decode", "repro.rpc.codec:FrameDecoder.frames"),
        Target("vo.decode", "repro.merkle.proof:AdsProof.decode"),
    ]
    return targets


def isp_targets(by_session: bool = False) -> List[Target]:
    """ISP service, VO build, and the Merkle ADS beneath it.

    The page/meta/validate wrappers sit on the ``_get_page``-style seam
    both serving paths share: the batched path (``serve_batch``) never
    calls the public one-at-a-time methods.  ``by_session`` keys each
    span on its session id instead of the tracer's current operation
    (the server subprocess serves many sessions at once).
    """
    sid = _session_arg(2) if by_session else None
    sid_public = _session_arg(1) if by_session else None
    return [
        Target("isp.get_certificate",
               "repro.isp.server:IspServer.get_certificate"),
        Target("isp.open_session", "repro.isp.server:IspServer.open_session",
               op_from_result=session_op if by_session else None),
        Target("isp.get_page", "repro.isp.server:IspServer._get_page",
               op_from_args=sid),
        Target("isp.get_file_meta",
               "repro.isp.server:IspServer._get_file_meta",
               op_from_args=sid),
        Target("isp.validate_path",
               "repro.isp.server:IspServer._validate_path",
               op_from_args=sid),
        Target("isp.finalize", "repro.isp.server:IspServer.finalize_session",
               op_from_args=sid_public),
        Target("isp.serve_batch", "repro.isp.server:IspServer.serve_batch"),
        Target("vo.build", "repro.isp.vo:VOBuilder.build"),
        Target("ads.get_page", "repro.merkle.ads:V2fsAds.get_page"),
        Target("ads.gen_read_proof",
               "repro.merkle.ads:V2fsAds.gen_read_proof"),
        Target("ads.apply_writes", "repro.merkle.ads:V2fsAds.apply_writes"),
        Target("ads.prune", "repro.merkle.ads:V2fsAds.prune"),
        # The in-memory NodeStore does not feed obs' store.get/store.put
        # counters (only the persistent store does), so count here.
        Target("store.get", "repro.merkle.node_store:NodeStore.get",
               count_only=True),
        Target("store.put", "repro.merkle.node_store:NodeStore.put",
               count_only=True),
    ]


def update_targets() -> List[Target]:
    """Block pipeline: generate → DCert → CI maintenance → ISP publish."""
    return [
        Target("update.advance_block",
               "repro.core.system:V2FSSystem.advance_block"),
        Target("chain.generate",
               "repro.chain.datagen:_GeneratorBase.advance_block"),
        Target("dcert.certify", "repro.dcert.certifier:DCertIssuer.certify"),
        Target("ci.process_blocks",
               "repro.core.ci:V2fsCertificateIssuer.process_blocks"),
    ]


# ----------------------------------------------------------------------
# Reading aggregates
# ----------------------------------------------------------------------


class LayerTotals:
    """Sums over aggregates, filtered by operation kind.

    ``select(name)`` matches a span name exactly, or by prefix when the
    name ends in ``*``; ``parent`` (when given) must match the parent
    span name, with ``""`` meaning "a root span".
    """

    def __init__(
        self,
        aggregates: Dict[AggKey, List[float]],
        op_kinds: Dict[Any, str],
        op_scale: Optional[Dict[Any, float]] = None,
    ) -> None:
        #: ``op_scale`` multiplies each operation's times (the
        #: reference-speed scaling of speed.py, one factor per op).
        op_scale = op_scale or {}
        self._rows = [
            (op_kinds.get(op), name, parent, count,
             total * op_scale.get(op, 1.0), child * op_scale.get(op, 1.0))
            for (op, name, parent), (count, total, child)
            in aggregates.items()
        ]

    def select(
        self,
        name: str,
        kind: Optional[str] = None,
        parent: Optional[str] = None,
    ) -> Tuple[float, float, float]:
        """(calls, total seconds, self seconds) over matching spans."""
        prefix = name[:-1] if name.endswith("*") else None
        calls = total = own = 0.0
        for row_kind, row_name, row_parent, count, span_s, child_s in (
            self._rows
        ):
            if kind is not None and row_kind != kind:
                continue
            if prefix is not None:
                if not row_name.startswith(prefix):
                    continue
            elif row_name != name:
                continue
            if parent is not None and (row_parent or "") != parent:
                continue
            calls += count
            total += span_s
            own += span_s - child_s
        return calls, total, own


def write_spans_jsonl(path: str, spans: Iterable[tuple]) -> int:
    """One JSON object per span; returns how many were written."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for op, name, parent, start, end, thread in spans:
            handle.write(json.dumps({
                "op": op, "name": name, "parent": parent,
                "start": start, "end": end, "thread": thread,
            }))
            handle.write("\n")
            written += 1
    return written
