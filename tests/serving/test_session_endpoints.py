"""The session endpoint table: both front ends expose it, and agree on it.

Every :data:`~repro.serving.sessions.SESSION_ENDPOINTS` entry is a plain
function in the ``__dict__`` of ``SketchServer`` and ``AsyncSketchServer``
with its manager method's signature (without ``root`` on the runtime), and
gives the same answer through both front ends on the same input.  The
runtime checks a call's session kind at admission: a call on a session of
the other kind, or on an unknown id, raises that kind's ``KeyError`` before
anything is admitted.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import threading

import numpy as np
import pytest

from repro.serving import AsyncSketchServer, SketchServer
from repro.serving.server import SESSION_MANAGERS
from repro.serving.sessions import SESSION_ENDPOINTS

pytestmark = pytest.mark.serving

DOMAIN = 1 << 10


def _args(name, sid, fid, rng):
    """Arguments of one call to endpoint ``name`` on the prepared sessions."""
    rows = rng.standard_normal((16, 4))
    ids = rng.zipf(1.3, size=256) % DOMAIN
    return {
        "open_stream": ((4,), {"mode": "decay", "bucket_rows": 16, "seed": 3}),
        "append_rows": ((sid, rows, rows @ np.arange(1.0, 5.0)), {}),
        "query_solution": ((sid,), {}),
        "close_stream": ((sid,), {}),
        "open_frequency_stream": ((DOMAIN,), {"phi": 0.1, "seed": 3}),
        "append_items": ((fid, ids, np.full(ids.size, 0.5)), {}),
        "query_heavy_hitters": ((fid,), {"k": 4}),
        "query_norm": ((fid,), {}),
        "query_range": ((fid, 3, DOMAIN // 2), {}),
        "query_point": ((fid, [0, 1, 2, 3, 7]), {}),
        "close_frequency_stream": ((fid,), {}),
    }[name]


def _answer(front, resolve, name):
    """Prepare one session of each kind on ``front``, then call ``name`` once."""
    rng = np.random.default_rng(11)
    sid = front.open_stream(4, mode="sliding", bucket_rows=16, window_buckets=2, seed=7)
    fid = front.open_frequency_stream(DOMAIN, phi=0.05, need_ranges=True, seed=5)
    for _ in range(3):
        rows = rng.standard_normal((16, 4))
        resolve(front.append_rows(sid, rows, rows @ np.ones(4) + rng.standard_normal(16)))
        resolve(front.append_items(fid, rng.zipf(1.3, size=512) % DOMAIN))
    args, kwargs = _args(name, sid, fid, rng)
    answer = getattr(front, name)(*args, **kwargs)
    return resolve(answer) if SESSION_ENDPOINTS[name][2] is not None else answer


def _plain(value):
    """A response as nested builtins, arrays as lists, for ``==``."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@pytest.mark.parametrize("name", sorted(SESSION_ENDPOINTS))
def test_endpoint_answers_the_same_through_both_front_ends(name):
    server = SketchServer(shards=2, seed=0)
    with AsyncSketchServer(shards=2, workers=1, seed=0) as runtime:
        got = _answer(runtime, lambda future: future.result(timeout=60.0), name)
    want = _answer(server, lambda response: response, name)
    assert _plain(got) == _plain(want)


@pytest.mark.parametrize("name", sorted(SESSION_ENDPOINTS))
def test_endpoint_is_declared_on_both_front_ends_with_the_manager_signature(name):
    attr, method, _op = SESSION_ENDPOINTS[name]
    target = getattr(SESSION_MANAGERS[attr], method)
    want = inspect.signature(target)
    for cls in (SketchServer, AsyncSketchServer):
        endpoint = vars(cls)[name]
        assert inspect.isfunction(endpoint) and endpoint.__name__ == name
    assert vars(SketchServer)[name].__doc__ == target.__doc__
    assert inspect.signature(vars(SketchServer)[name]) == want
    runtime_params = list(inspect.signature(vars(AsyncSketchServer)[name]).parameters.values())
    assert runtime_params == [p for p in want.parameters.values() if p.name != "root"]


@pytest.mark.parametrize("name", sorted(SESSION_ENDPOINTS))
def test_runtime_endpoint_documents_only_its_own_parameters(name):
    """The runtime's docstring names no manager parameter it does not take (``root``),
    and a queued endpoint says it returns a ``RuntimeFuture``."""
    attr, method, op = SESSION_ENDPOINTS[name]
    endpoint = vars(AsyncSketchServer)[name]
    own = set(inspect.signature(endpoint).parameters)
    manager = set(inspect.signature(getattr(SESSION_MANAGERS[attr], method)).parameters)
    documented = set(re.findall(r"``(\w+)``", endpoint.__doc__))
    assert documented & manager <= own
    if op is not None:
        assert "RuntimeFuture" in endpoint.__doc__


def test_runtime_rejects_a_session_call_of_the_wrong_kind_at_admission():
    with AsyncSketchServer(shards=1, workers=1, seed=0) as runtime:
        sid = runtime.open_stream(4)
        fid = runtime.open_frequency_stream(DOMAIN)
        with pytest.raises(KeyError, match=f"unknown or closed streaming session {fid}"):
            runtime.append_rows(fid, np.zeros((1, 4)), np.zeros(1))
        with pytest.raises(KeyError, match=f"unknown or closed streaming session {fid}"):
            runtime.query_solution(fid)
        with pytest.raises(KeyError, match=f"unknown or closed frequency session {sid}"):
            runtime.query_norm(sid)
        with pytest.raises(KeyError, match="unknown or closed frequency session 999"):
            runtime.append_items(999, np.arange(4))
        assert runtime.telemetry.requests_admitted == 0
        assert runtime.tracer.traces_started == 0
        assert runtime.pending == 0


def test_runtime_rejects_a_malformed_session_call_before_admission():
    with AsyncSketchServer(shards=1, workers=1, seed=0) as runtime:
        sid = runtime.open_stream(4)
        fid = runtime.open_frequency_stream(DOMAIN)
        with pytest.raises(TypeError):
            runtime.append_rows(sid, np.zeros((1, 4)))  # no targets
        with pytest.raises(TypeError):
            runtime.query_range(fid, 0, 8, root=None)  # the runtime owns the root
        with pytest.raises(TypeError):
            runtime.query_heavy_hitters(fid, top=3)
        assert runtime.telemetry.requests_admitted == 0


def test_runtime_rejects_a_close_of_the_wrong_kind_without_waiting():
    """A wrong-kind close raises at once, although the id has queued work."""
    with AsyncSketchServer(shards=1, workers=1, seed=0) as runtime:
        fid = runtime.open_frequency_stream(DOMAIN)
        runtime.pause()
        queued = runtime.append_items(fid, np.arange(8))
        raised = []

        def close():
            try:
                runtime.close_stream(fid)
            except KeyError as exc:
                raised.append(str(exc))

        closer = threading.Thread(target=close, daemon=True)
        closer.start()
        closer.join(timeout=10.0)
        blocked = closer.is_alive()
        done_while_paused = queued.done()
        runtime.resume()
        closer.join(timeout=60.0)
        assert not blocked, "close_stream waited for the frequency session's queue"
        assert not closer.is_alive()
        assert raised == [repr(f"unknown or closed streaming session {fid}")]
        assert not done_while_paused
        assert queued.result(timeout=60.0).items_seen == 8
        runtime.close_frequency_stream(fid)
