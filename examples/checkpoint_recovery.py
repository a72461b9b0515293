#!/usr/bin/env python3
"""Crash-proof sessions: checkpoint, kill, restore, verify.

A durable SketchServer streams a regression problem into a sliding-window
session and an item stream into a heavy-hitter (frequency) session.
Every appended batch is write-ahead-logged (fsync'd to the checkpoint
directory) *before* it is folded into its sketch, and every few appends
the whole engine state -- sketch accumulators or counter tables, operator
seed, row index, cached solution -- is snapshotted and the WAL truncated.

Then the process "dies": the server object is dropped without a save.  A
fresh server pointed at the same directory restores both sessions from
their last checkpoints plus WAL replay, and answers the same queries *bit
identically* -- hashed row and item identity are pure functions of the
restored state and seeds, so recovery is exact, not approximate.

Run:  PYTHONPATH=src python examples/checkpoint_recovery.py
"""

import tempfile

import numpy as np

from repro import DirectoryCheckpointStore, DurabilityConfig, SketchServer

N = 16          # features
BATCH = 256     # rows per arriving batch
BATCHES = 11    # not a multiple of the interval: leaves a live WAL tail
DOMAIN = 4096   # item ids of the frequency session
TOP_K = 10


def make_server(checkpoint_dir: str) -> SketchServer:
    durability = DurabilityConfig(
        store=DirectoryCheckpointStore(checkpoint_dir),
        checkpoint_interval_batches=4,
    )
    return SketchServer(shards=2, seed=0, durability=durability)


def main() -> None:
    rng = np.random.default_rng(3)
    x_true = np.linspace(-1.0, 1.0, N)
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
    print(f"checkpoint directory: {checkpoint_dir}")

    server = make_server(checkpoint_dir)
    sid = server.open_stream(N, mode="sliding", bucket_rows=512,
                             window_buckets=4, detector=False)
    fid = server.open_frequency_stream(DOMAIN, phi=0.02)
    for _ in range(BATCHES):
        rows = rng.standard_normal((BATCH, N))
        targets = rows @ x_true + 0.05 * rng.standard_normal(BATCH)
        server.append_rows(sid, rows, targets)  # WAL'd, then folded
        server.append_items(fid, rng.zipf(1.3, 2 * BATCH) % DOMAIN)
    before = server.query_solution(sid)
    top_before = server.query_heavy_hitters(fid, k=TOP_K).value
    telemetry = server.telemetry
    print(f"streamed {BATCHES} batches into sessions {sid} and {fid}: "
          f"{telemetry.checkpoints_written} checkpoints, "
          f"{telemetry.wal_appends} WAL appends")
    print(f"pre-crash  x[:4] = {np.round(before.x[:4], 6)}")
    print(f"pre-crash  top-3 = {top_before[:3]}")

    del server  # crash: no save(), no clean close -- only the files survive

    recovered = make_server(checkpoint_dir)
    report = recovered.restore()
    assert report.ok, f"restore failed: {report.failed}"
    for restored in (sid, fid):
        print(f"restored session {restored}: last checkpoint + "
              f"{report.restored[restored]} WAL batch(es) replayed")

    after = recovered.query_solution(sid)
    print(f"post-crash x[:4] = {np.round(after.x[:4], 6)}")
    exact = np.array_equal(before.x, after.x)
    print(f"recovered solution identical to pre-crash: {exact}")
    assert exact, "recovery should be exact"

    top_after = recovered.query_heavy_hitters(fid, k=TOP_K).value
    same_top = top_after == top_before
    print(f"recovered top-{TOP_K} identical to pre-crash: {same_top}")
    assert same_top, "frequency recovery should be exact"

    recovered.close_stream(sid)  # terminal: deletes the durable state too
    recovered.close_frequency_stream(fid)


if __name__ == "__main__":
    main()
