"""One supervised-child executor: every fan-out of the harness runs here.

:func:`supervise` runs ``child_fn(item)`` for a list of items, each in its
own ``os.fork()`` child, and streams each result back to the parent over
a pipe (length-prefixed pickle).  Plain, journaled and forked sweeps,
``compare``, ``whatif`` and the serve oracle all go through it, so they
share one failure contract:

* a child that raises, dies without reporting, or outlives ``timeout``
  wall-clock seconds is killed and retried after an exponential backoff
  (:func:`~repro.faults.plan.exponential_backoff`);
* after ``max_attempts`` failures the item is **quarantined**:
  :class:`QuarantinedConfigError` carries the child's ``Type: message``,
  or, with ``allow_quarantine``, the item's result slot is ``None``;
* ``on_result(index, result)`` runs in the parent after each success --
  the hook a sweep journal and ``stop_after`` hang off.  If it (or
  anything else in the parent) raises, every child still in flight is
  killed and reaped before the exception propagates.

A fork per item costs little because the child inherits the parent's warm
interpreter copy-on-write.  Two things keep those pages shared: callers
import the modules their children use before the first fork, and the
parent freezes its garbage collector around the fork loop, so a child's
collections never write to the parent's objects.

``in_process=True`` runs the same loop without forking, one item at a
time; that is also the fallback where ``os.fork`` is unavailable, where a
``timeout`` raises :class:`ForkUnavailableError` instead.

A ``child_fn`` may return :data:`CONTINUE` to keep executing after
:func:`supervise` returns (the what-if barrier resumes a suspended
simulation this way); it then reports through :func:`child_finish` or
:func:`child_abort`.
"""

from __future__ import annotations

import gc
import os
import pickle
import selectors
import signal
import struct
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.faults.plan import exponential_backoff

#: Sentinel a ``child_fn`` returns to say "my result is not ready yet --
#: I will keep executing after :func:`supervise` returns and report
#: through :func:`child_finish`".
CONTINUE = object()

#: What :func:`supervise` returns *in a forked child* whose ``child_fn``
#: returned :data:`CONTINUE`; the caller is the child now and keeps going.
CHILD_CONTINUES = object()

#: Longest wall-clock wait between two attempts of one item.
BACKOFF_CAP = 30.0

_HEADER = struct.Struct(">cI")  # status byte + payload length
_CHUNK = 1 << 16


class ForkUnavailableError(RuntimeError):
    """``os.fork`` does not exist on this platform."""


class QuarantinedConfigError(RuntimeError):
    """An item exhausted its retry budget (or was already quarantined)."""

    def __init__(self, config: Any, attempts: int, reason: str) -> None:
        super().__init__(
            f"config key={getattr(config, 'key', config)!r} quarantined "
            f"after {attempts} failed attempt(s): {reason}"
        )
        self.config = config
        self.attempts = attempts
        self.reason = reason


def resolve_parallel(parallel: Optional[int]) -> int:
    """Normalise a ``--parallel`` value: ``0``/``None`` means all cores."""
    if not parallel:
        return os.cpu_count() or 1
    if parallel < 0:
        raise ValueError(f"parallel must be >= 0, got {parallel}")
    return parallel


def fork_available() -> bool:
    """True when OS-level copy-on-write forking is usable here."""
    return hasattr(os, "fork") and sys.platform not in ("win32", "emscripten")


# -- child side --------------------------------------------------------------


@dataclass
class _ChildTicket:
    """Per-process marker: set only in a forked child, holds its pipe."""

    fd: int
    key: Any


#: Non-None exactly while this process is a child forked by supervise().
_ACTIVE_CHILD: Optional[_ChildTicket] = None


def in_forked_child() -> bool:
    """True inside a child forked by :func:`supervise`."""
    return _ACTIVE_CHILD is not None


def current_child_key() -> Any:
    """The key of the item this forked child is executing."""
    if _ACTIVE_CHILD is None:
        raise RuntimeError("not inside a forked child")
    return _ACTIVE_CHILD.key


def _send(fd: int, status: bytes, payload: Any) -> None:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    os.write(fd, _HEADER.pack(status, len(blob)))
    view = memoryview(blob)
    while view:
        written = os.write(fd, view[:_CHUNK])
        view = view[written:]


def _parse(buf: bytes):
    """``(ok, payload)`` from a child's complete pipe output, or None."""
    if len(buf) < _HEADER.size:
        return None
    status, length = _HEADER.unpack_from(buf)
    if len(buf) < _HEADER.size + length:
        return None
    payload = pickle.loads(buf[_HEADER.size:_HEADER.size + length])
    return status == b"R", payload


def child_finish(result: Any) -> "NoReturn":  # noqa: F821 - py3.11 typing
    """Report this forked child's result and exit the process.

    Used by the :data:`CONTINUE` protocol: the child resumed a suspended
    simulation after :func:`supervise` returned, and calls this once the
    run completes.  Never returns.
    """
    if _ACTIVE_CHILD is None:
        raise RuntimeError("child_finish() outside a forked child")
    try:
        _send(_ACTIVE_CHILD.fd, b"R", result)
    except BaseException:  # noqa: BLE001 - the child must never unwind out
        os._exit(1)
    os._exit(0)


def child_abort(exc: BaseException) -> "NoReturn":  # noqa: F821
    """Report a failure from a forked child and exit."""
    if _ACTIVE_CHILD is None:
        raise RuntimeError("child_abort() outside a forked child")
    try:
        _send(_ACTIVE_CHILD.fd, b"E", f"{type(exc).__name__}: {exc}")
    except BaseException:  # noqa: BLE001
        pass
    os._exit(1)


def _spawn(child_fn: Callable[[Any], Any], item: Any, key: Any):
    """Fork one child.  Parent: ``(pid, read_fd)``.  Child that got
    :data:`CONTINUE` back from ``child_fn``: ``None`` (the caller continues
    *as the child*); any other child never returns."""
    global _ACTIVE_CHILD
    # Flush inherited stdio buffers so the child cannot replay pending
    # parent output on exit.
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # -- child ------------------------------------------------
        os.close(read_fd)
        _ACTIVE_CHILD = _ChildTicket(write_fd, key)
        try:
            result = child_fn(item)
        except BaseException as exc:  # noqa: BLE001 - report, never unwind
            child_abort(exc)
        if result is CONTINUE:
            return None
        child_finish(result)
    # -- parent --------------------------------------------------------------
    os.close(write_fd)
    os.set_blocking(read_fd, False)
    return pid, read_fd


# -- parent side -------------------------------------------------------------


@dataclass
class _Child:
    """One live forked child from the parent's point of view."""

    pid: int
    fd: int
    index: int
    deadline: Optional[float]
    buf: bytearray = field(default_factory=bytearray)


def supervise(
    items: Sequence[Any],
    child_fn: Callable[[Any], Any],
    *,
    parallel: int = 1,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    backoff: float = 0.5,
    allow_quarantine: bool = False,
    on_result: Optional[Callable[[int, Any], None]] = None,
    on_quarantine: Optional[Callable[[int, int, str], None]] = None,
    in_process: bool = False,
):
    """Run ``child_fn(item)`` for every item; results come back in order.

    At most ``parallel`` children run at once (``0`` = one per core).  An
    item's ``key`` attribute, where it has one, names it in errors.
    ``on_quarantine(index, attempts, reason)`` runs when an item is
    quarantined, before :class:`QuarantinedConfigError` is raised.

    In a forked child whose ``child_fn`` returned :data:`CONTINUE`, this
    returns :data:`CHILD_CONTINUES` instead of a result list.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if in_forked_child():
        raise RuntimeError("nested supervise() inside a forked child")
    forked = not in_process and fork_available()
    if timeout is not None and not forked:
        raise ForkUnavailableError(
            "a run timeout needs a child process to kill, and os.fork is "
            "unavailable on this platform"
        )
    items = list(items)
    if not items:
        return []
    slots = resolve_parallel(parallel) if forked else 1
    results: List[Optional[Any]] = [None] * len(items)
    failures = [0] * len(items)
    ready_at = [0.0] * len(items)
    waiting = list(range(len(items)))
    running: Dict[int, _Child] = {}  # pid -> child
    sel = selectors.DefaultSelector() if forked else None

    def _failed(index: int, reason: str,
                cause: Optional[BaseException] = None) -> None:
        failures[index] += 1
        if failures[index] >= max_attempts:
            if on_quarantine is not None:
                on_quarantine(index, failures[index], reason)
            if not allow_quarantine:
                raise QuarantinedConfigError(
                    items[index], failures[index], reason
                ) from cause
            return
        ready_at[index] = time.monotonic() + exponential_backoff(
            backoff, failures[index], BACKOFF_CAP)
        waiting.append(index)

    def _succeeded(index: int, result: Any) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)

    def _reap(child: _Child) -> int:
        running.pop(child.pid, None)
        sel.unregister(child.fd)
        os.close(child.fd)
        _pid, status = os.waitpid(child.pid, 0)
        return os.waitstatus_to_exitcode(status)

    def _kill(child: _Child) -> None:
        try:
            os.kill(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _reap(child)

    def _drain(child: _Child) -> None:
        while True:
            try:
                data = os.read(child.fd, _CHUNK)
            except BlockingIOError:
                return
            if data:
                child.buf.extend(data)
                continue
            # EOF: the child exited (or crashed); settle it.
            exitcode = _reap(child)
            parsed = _parse(bytes(child.buf))
            if parsed is None:
                _failed(child.index, f"child died with exit code "
                                     f"{exitcode} before reporting a result")
            elif parsed[0]:
                _succeeded(child.index, parsed[1])
            else:
                _failed(child.index, str(parsed[1]))
            return

    if forked:
        # Nothing the parent allocated so far is garbage a child needs to
        # collect: freeze it, so children share those pages untouched.
        gc.collect()
        gc.freeze()
    try:
        while waiting or running:
            now = time.monotonic()
            launched = False
            for index in [i for i in waiting if ready_at[i] <= now]:
                if len(running) >= slots:
                    break
                waiting.remove(index)
                launched = True
                if not forked:
                    try:
                        result = child_fn(items[index])
                    except Exception as exc:
                        _failed(index, f"{type(exc).__name__}: {exc}", exc)
                    else:
                        _succeeded(index, result)
                    continue
                spawned = _spawn(child_fn, items[index],
                                 getattr(items[index], "key", index))
                if spawned is None:
                    return CHILD_CONTINUES
                pid, fd = spawned
                child = _Child(
                    pid=pid, fd=fd, index=index,
                    deadline=(now + timeout) if timeout is not None else None,
                )
                sel.register(fd, selectors.EVENT_READ, child)
                running[pid] = child
            if running:
                for key_event, _mask in sel.select(timeout=0.05):
                    if key_event.data.pid in running:
                        _drain(key_event.data)
                now = time.monotonic()
                for child in list(running.values()):
                    if child.deadline is not None and now >= child.deadline:
                        _kill(child)
                        _failed(child.index, f"timed out after {timeout:.1f}s")
            elif waiting and not launched:
                # Everything left is backing off: sleep to the nearest
                # ready time instead of spinning.
                delay = min(ready_at[i] for i in waiting) - time.monotonic()
                if delay > 0:
                    time.sleep(min(delay, 0.5))
    finally:
        # A CONTINUE child unwinds through here too, holding a copy of
        # ``running`` that lists its *siblings*: only the parent may kill
        # and reap them.
        if forked and not in_forked_child():
            for child in list(running.values()):
                _kill(child)
            sel.close()
            gc.unfreeze()
    return results
