"""The Monte Carlo chunks' reusable workspaces: the samplers that draw into
them give the draws of fresh arrays bit for bit, warm chunks allocate no
chunk-sized array, nested chunks on one thread do not share one, and a
chunk whose sampler raises hands its workspace back."""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from ntglab.blyth import BlythContext
from ntglab.numint import _MC_CHUNK, mc_estimate
from ntglab.risk import _pivot_values, default_c, risk_difference_mc
from ntglab.verify import check_lemma_smoments, lemma_smoments_check

_ROW_BYTES = _MC_CHUNK * 8  # one chunk row of doubles, 512 KB


def _fresh_mc(sampler, n, seed):
    # mc_estimate's chunking and merge with a fresh array for every value:
    # the same spawned seeds and chunk sizes, each chunk's (count, mean,
    # squared deviations), merged in chunk order.  The samplers get no
    # workspace (None).
    n_chunks = (n + _MC_CHUNK - 1) // _MC_CHUNK
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    stats = []
    for i, ss in enumerate(seeds):
        vals = sampler(np.random.default_rng(ss), min(_MC_CHUNK, n - i * _MC_CHUNK), None)
        mean = float(vals.sum()) / vals.size
        stats.append((vals.size, mean, float(np.square(vals - mean).sum())))
    count, mean, m2 = stats[0]
    for nb, mean_b, m2_b in stats[1:]:
        delta = mean_b - mean
        total = count + nb
        mean += delta * nb / total
        m2 += m2_b + delta * delta * count * nb / total
        count = total
    return mean, math.sqrt(m2 / count / count)


def _fresh_risk_difference(ctx, n, seed):
    def sampler(rng, size, ws):
        rng.random(size)
        z1 = rng.standard_normal((size, ctx.p))
        z2 = rng.standard_normal((size, ctx.p))
        return _pivot_values(ctx, z1, z2, rng.chisquare(ctx.m, size))

    return _fresh_mc(sampler, n, seed)


def _fresh_smoments(p, m, eps, n, seed):
    def sampler(rng, size, ws):
        u = rng.random(size)
        lam = eps * u ** (-2.0 / p)
        s = rng.chisquare(m, size) / lam
        return s ** (0.5 * p)

    return _fresh_mc(sampler, n, seed)


@pytest.mark.parametrize("m", [1, 2, 5, 17, 200])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [1000, 65_536, 65_537, 100_000])
def test_draw_stream_matches_fresh_arrays(report_cores, n, p, m):
    # Value and SE bit for bit, on one core and on every core of the mask;
    # 65,537 ends in a one-draw chunk and 100,000 in an uneven one.
    seed = 1000 * p + m + n
    ctx = BlythContext(p=p, m=m, c=default_c(p, m, 0.95), kappa=0.5, eps=1.0)
    want_rd = _fresh_risk_difference(ctx, n, seed)
    want_sm = _fresh_smoments(p, m, 0.7, n, seed)
    for cores in (1, len(os.sched_getaffinity(0))):
        report_cores(cores)
        rd = risk_difference_mc(ctx, n, seed)
        sm, _ = lemma_smoments_check(p, m, 0.7, n, seed)
        assert (rd.value, rd.error) == want_rd, cores
        assert (sm.value, sm.error) == want_sm, cores


def test_warm_chunks_allocate_no_chunk_row(report_cores):
    # A chunk-sized allocation raises the traced peak by at least one row;
    # what a warm call allocates (the pivot's 8,192-draw blocks) stays
    # below it.  On one core, so no other thread allocates meanwhile.
    report_cores(1)
    ctx = BlythContext(p=2, m=5, c=default_c(2, 5, 0.95), kappa=0.25, eps=1.0)
    calls = {"risk_difference_mc": lambda seed: risk_difference_mc(ctx, 10 ** 5, seed),
             "check_lemma_smoments": lambda seed: check_lemma_smoments(seed, 10 ** 5)}
    for call in calls.values():
        call(1)
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call(2)
            assert tracemalloc.get_traced_memory()[1] - start < _ROW_BYTES, name
    finally:
        tracemalloc.stop()


def test_raising_sampler_hands_its_workspace_back(report_cores):
    # The first chunk draws into its workspace and raises.  Had the chunk
    # kept that workspace, the next warm call on the thread would make a
    # new one and allocate its chunk rows.  On one core, as above.
    report_cores(1)
    ctx = BlythContext(p=2, m=5, c=default_c(2, 5, 0.95), kappa=0.25, eps=1.0)
    risk_difference_mc(ctx, 10 ** 5, 1)

    class ChunkError(RuntimeError):
        pass

    def failing(rng, n, ws):
        rng.random(out=ws.row("a", n))
        raise ChunkError

    with pytest.raises(ChunkError):
        mc_estimate(failing, 10 ** 5, seed=2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        risk_difference_mc(ctx, 10 ** 5, 3)
        assert tracemalloc.get_traced_memory()[1] - start < _ROW_BYTES
    finally:
        tracemalloc.stop()


def test_nested_workspace_samplers_match_fresh_arrays(report_cores):
    # Each outer chunk draws into its workspace row "a", runs a nested
    # risk_difference_mc, whose chunks draw into rows "a" to "d" of theirs,
    # and only then reads its row: a workspace handed to the inner chunks
    # while the outer one holds it changes the outer values.  Serially,
    # on a mask of forty cores (more than the pool's threads), and against
    # the same sums on fresh arrays.
    ctx = BlythContext(p=2, m=5, c=default_c(2, 5, 0.95), kappa=0.25, eps=1.0)

    def outer(draw, inner):
        def sampler(rng, n, ws):
            u = draw(rng, n, ws)
            return u + inner(ctx, 2 << 16, int(rng.integers(1 << 32)))

        return sampler

    def reused(rng, n, ws):
        return rng.random(out=ws.row("a", n))

    def inner_value(ctx, n, seed):
        return risk_difference_mc(ctx, n, seed).value

    want = _fresh_mc(outer(lambda rng, n, ws: rng.random(n),
                           lambda ctx, n, seed: _fresh_risk_difference(ctx, n, seed)[0]),
                     12 << 16, 4)
    report_cores(1)
    serial = mc_estimate(outer(reused, inner_value), 12 << 16, seed=4)
    assert (serial.value, serial.error) == want
    report_cores(40)
    got = {}
    thread = threading.Thread(
        target=lambda: got.update(nested=mc_estimate(outer(reused, inner_value), 12 << 16,
                                                     seed=4)),
        daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "nested mc_estimate calls did not finish"
    assert got["nested"] == serial
