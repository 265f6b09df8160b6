"""The worker pool gives the serial loop's bits, errors and exceptions.

Paper-scale calls hand blocks to the pool; tiny runs are forced onto it by
lowering the private size thresholds, and kept off it by leaving no spare
core. Bits must not depend on which: `test_pinned.py`'s digests hold with
the pool forced on, and at one and at two BLAS threads. Those runs'
products are too small for OpenBLAS to thread; a large GEMM can give other
bits at two BLAS threads, and nothing here claims otherwise. The
forward-GEMM split floor is not lowered, since it decides the bits: split
products are checked at their own sizes.
"""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from cogent import optim, parallel, tensor, trainer
from cogent.cli import main
from cogent.config import resolve_config, settings_from_config
from cogent.data import DatasetMeta, gen_synthetic
from cogent.tensor import Tensor, matmul, no_grad, tsum

ROOT = Path(__file__).resolve().parents[1]

# every threshold at its floor and blocks of 64 elements: each gelu and
# Adam pass of a tiny run spans several blocks, and every 2-D product
# hands its weight gradient to the pool. `tensor._SPLIT_MACS` stays: halves
# of tiny products take OpenBLAS's small-matrix and gemv paths, other bits.
FORCED = {
    (tensor, "_GELU_BLOCK"): 64,
    (tensor, "_POOL_GELU"): 1,
    (tensor, "_POOL_MACS"): 1,
    (optim, "_BLOCK"): 64,
    (optim, "_POOL_SWEEP"): 1,
    (optim, "_POOL_CHECK"): 1,
}


def force_pool(monkeypatch, on: bool = True) -> list:
    """Lower every threshold; with `on`, give the pool a worker even on one
    core and count the tasks handed to it, else leave it none."""
    for (module, name), value in FORCED.items():
        monkeypatch.setattr(module, name, value)
    return count_forks(monkeypatch, on)


def count_forks(monkeypatch, on: bool = True) -> list:
    """One BLAS thread; with `on`, a pool worker even on one core, else
    none; returns the list of tasks handed to the pool."""
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    monkeypatch.setattr(parallel, "_spare", max(parallel._spare, 1) if on else 0)
    forks = []
    fork = parallel._fork

    def counting(fn):
        forks.append(fn)
        return fork(fn)

    monkeypatch.setattr(parallel, "_fork", counting)
    return forks


TINY = {
    "seed": "3",
    "patch.L": "8",
    "model.d_model": "16",
    "model.n_heads": "2",
    "model.mlp_ratio": "2",
    "model.proj_dim": "8",
    "train.batch_size": "4",
    "train.epochs_pretrain": "2",
    "train.epochs_finetune": "2",
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    meta = DatasetMeta(T=32, D=1, num_classes=3, name="pool")
    return gen_synthetic(
        tmp_path_factory.mktemp("pool"), meta, per_class=8, seed=2, sigma=0.3
    )


def tiny_run(corpus):
    settings = settings_from_config(resolve_config(None, TINY, env={}), corpus.meta)
    pre, log = trainer.pretrain(corpus, settings)
    tuned, report = trainer.finetune(pre, corpus, settings)
    return log, pre.params, tuned.params, report


def test_pool_on_and_off_give_the_same_bits(corpus):
    with pytest.MonkeyPatch.context() as mp:
        forks = force_pool(mp, on=True)
        on = tiny_run(corpus)
    assert forks, "the forced run handed nothing to the pool"
    with pytest.MonkeyPatch.context() as mp:
        assert not force_pool(mp, on=False) and parallel._spare == 0
        off = tiny_run(corpus)
    log_on, pre_on, tuned_on, report_on = on
    log_off, pre_off, tuned_off, report_off = off
    assert log_on == log_off and report_on == report_off
    for on_params, off_params in ((pre_on, pre_off), (tuned_on, tuned_off)):
        assert sorted(on_params) == sorted(off_params)
        for name in on_params:
            assert on_params[name].tobytes() == off_params[name].tobytes(), name


def test_overflow_in_a_worker_ends_as_it_does_serially(tmp_path, capsys):
    # numpy's error state reaches the workers: the step's overflow raises
    # there, and the CLI refuses the run with the serial run's message
    data = tmp_path / "corpus"
    assert main(["gen-synthetic", "--out", str(data), "--T", "32",
                 "--per-class", "8"]) == 0
    capsys.readouterr()
    args = [
        "finetune", "--data", str(data),
        "--patch.L", "8", "--model.d_model", "8", "--model.n_heads", "2",
        "--model.mlp_ratio", "2", "--model.proj_dim", "4",
        "--train.epochs_finetune", "2", "--train.batch_size", "4",
        "--train.lr_finetune", "1e30",
    ]
    errors = []
    for on in (True, False):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            forks = force_pool(mp, on)
            out = tmp_path / f"out-{on}"
            assert main(args + ["--out", str(out)]) == 1
        assert bool(forks) == on
        assert not list(out.glob("*.ckpt"))
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: fine-tuning turned non-finite at epoch ")
    assert "train.lr_finetune=1e+30" in errors[0] and "Traceback" not in errors[0]


def test_each_raises_the_lowest_failing_block_after_the_rest_finish(monkeypatch):
    # block 5 fails last, after a thread has run on to block 11 and failed
    # there; the serial loop would have raised block 5's error
    monkeypatch.setattr(parallel, "_spare", max(parallel._spare, 1))
    ran = []

    def block(i):
        ran.append(i)
        if i < 5:
            threading.Event().wait(0.01)  # time for a worker to start
        if i == 5:
            threading.Event().wait(0.2)
        if i in (5, 11):
            raise ValueError(f"block {i}")

    with pytest.raises(ValueError, match="block 5"):
        parallel.each(block, 40)
    assert 11 in ran and max(ran) < 39, ran


def test_workers_keep_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(parallel, "_spare", max(parallel._spare, 1))
    raised: dict[str, list[bool]] = {}
    big = np.full(4, 3e38, np.float32)

    def block(i):
        try:
            big * np.float32(10)
            overflowed = False
        except FloatingPointError:
            overflowed = True
        raised.setdefault(threading.current_thread().name, []).append(overflowed)
        threading.Event().wait(0.002)

    with np.errstate(over="raise"):
        parallel.each(block, 64)
    assert len(raised) >= 2, "no worker took a block"
    assert all(all(flags) for flags in raised.values()), raised


def test_every_block_runs_once_with_more_workers_than_cores(monkeypatch):
    # a fresh pool of four workers, switching threads every microsecond: a
    # block index handed out twice, or never, breaks the counts
    monkeypatch.setattr(parallel, "_tasks", None)
    monkeypatch.setattr(parallel, "_spare", 4)
    counts = np.zeros(5000, int)

    def block(i):
        counts[i] += 1

    finished = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: (parallel.each(block, counts.size), finished.set()),
            daemon=True,
        )
        runner.start()
        runner.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert finished.is_set() and not runner.is_alive()
    assert (counts == 1).all()


def test_each_from_a_worker_runs_serially_and_finishes(monkeypatch):
    monkeypatch.setattr(parallel, "_spare", max(parallel._spare, 1))
    done = np.zeros((8, 8), int)

    def outer(i):
        def inner(j):
            done[i, j] += 1

        threading.Event().wait(0.01)  # time for the worker to take blocks
        parallel.each(inner, 8)

    finished = threading.Event()

    def run():
        parallel.each(outer, 8)
        finished.set()

    threading.Thread(target=run, daemon=True).start()
    assert finished.wait(20), "a nested each did not finish"
    assert (done == 1).all()


def test_a_quickstart_size_run_starts_no_worker(monkeypatch, tmp_path):
    # README quickstart model sizes on a small corpus: every call stays under
    # the thresholds, so the pool never starts
    started = []
    monkeypatch.setattr(parallel, "_tasks", None)
    monkeypatch.setattr(parallel, "_start_pool", lambda: started.append(1))
    meta = DatasetMeta(T=96, D=1, num_classes=3, name="quick")
    corpus = gen_synthetic(tmp_path, meta, per_class=20, seed=1, sigma=0.1)
    overrides = {
        "patch.L": "16", "model.d_model": "64", "model.n_heads": "4",
        "model.proj_dim": "32", "train.epochs_pretrain": "2",
        "train.epochs_finetune": "2",
    }
    settings = settings_from_config(resolve_config(None, overrides, env={}), meta)
    pre, _ = trainer.pretrain(corpus, settings)
    tuned, _ = trainer.finetune(pre, corpus, settings)
    trainer.evaluate(tuned, corpus.test)
    assert started == [] and parallel._tasks is None


def test_a_quickstart_size_step_and_sanity_pass_fork_nothing(monkeypatch, tmp_path):
    # a spare core and one BLAS thread, so only the size floors keep work off
    # the pool. One step of B=16 and a sanity split of 705 samples, whose
    # first stack holds 18 batches, the most `_STACK_ROWS` lets this model
    # stack, so its products are the largest any pass of this model runs
    # (1,728 x 64 x 256 multiply-adds). None is split either, so the
    # quickstart keeps the bits of one whole GEMM
    forks = count_forks(monkeypatch)
    macs = []
    gemm = tensor._gemm
    monkeypatch.setattr(
        tensor, "_gemm", lambda a2, b2: macs.append(a2.size * b2.shape[1]) or gemm(a2, b2)
    )
    meta = DatasetMeta(T=96, D=1, num_classes=3, name="quick")
    corpus = gen_synthetic(tmp_path, meta, per_class=250, seed=1, sigma=0.1)
    overrides = {
        "patch.L": "16", "model.d_model": "64", "model.n_heads": "4",
        "model.proj_dim": "32", "train.batch_size": "16",
        "train.epochs_pretrain": "1", "split.pretrain_fraction": "0.06",
    }
    settings = settings_from_config(resolve_config(None, overrides, env={}), meta)
    calls = []
    sanity = trainer._sanity_loss
    monkeypatch.setattr(
        trainer, "_sanity_loss", lambda s, *a: calls.append(len(s)) or sanity(s, *a)
    )
    trainer.pretrain(corpus, settings)
    assert calls == [705]
    assert forks == []
    assert max(macs) == 1728 * 64 * 256 < tensor._SPLIT_MACS


# above the split floor: one product split by rows, one by columns
@pytest.mark.parametrize("rows, k, n", [(300, 512, 512), (24, 4096, 1024)])
def test_a_split_product_has_the_same_bits_on_and_off_the_pool(monkeypatch, rows, k, n):
    assert rows * k * n >= tensor._SPLIT_MACS
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, k), dtype=np.float32)
    w = rng.standard_normal((k, n), dtype=np.float32)
    out = []
    for on in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            forks = force_pool(mp, on)
            with no_grad():
                out.append(matmul(Tensor(x), Tensor(w)).data.tobytes())
        assert len(forks) == on
    assert out[0] == out[1]


WORKLOAD_GEMMS = [
    (rows, k, n)
    for rows in (1344, 336, 294)
    for k, n in ((512, 512), (512, 2048), (2048, 512))
] + [(rows, 10240, 1024) for rows in (64, 16, 14)]


@pytest.mark.parametrize("rows, k, n", WORKLOAD_GEMMS)
def test_split_halves_equal_the_whole_gemm_on_this_kernel(monkeypatch, rows, k, n):
    """The forward GEMMs of the paper-scale benchmark runs (attention and
    MLP layers at batches of 64, 16 and 14, and the classifier's first
    layer), split into halves, give the bits of one whole `a2 @ w`, so the
    split moved no digest.

    Checked with numpy 2.4.6 on its bundled OpenBLAS 0.3.31 (DYNAMIC_ARCH),
    SkylakeX kernel, on an x86_64 Xeon with AVX-512; it also held under
    `OPENBLAS_CORETYPE=Sandybridge`. OpenBLAS picks its kernels for the CPU
    it runs on, and under `OPENBLAS_CORETYPE=Haswell` most of these shapes
    gave other bits split than whole. A failure on another host means the
    split gives that host other digests than the whole product would, not by
    itself a regression: the split's bits still depend only on the shape.
    """
    assert rows * k * n >= tensor._SPLIT_MACS
    forks = count_forks(monkeypatch)
    rng = np.random.default_rng(rows + k + n)
    a2 = rng.standard_normal((rows, k), dtype=np.float32)
    w = rng.standard_normal((k, n), dtype=np.float32) * np.float32(0.02)
    with no_grad():
        split = matmul(Tensor(a2), Tensor(w)).data
    assert len(forks) == 1
    assert split.tobytes() == (a2 @ w).tobytes()


@pytest.mark.parametrize("threads, forks", [(1, 1), (2, 0), (None, 0)])
def test_matmul_forks_a_gemm_only_beside_one_blas_thread(monkeypatch, threads, forks):
    counted = force_pool(monkeypatch)
    monkeypatch.setattr(parallel, "blas_threads", lambda: threads)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((6, 5)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 4)).astype(np.float32), requires_grad=True)
    tsum(matmul(x, w)).backward()
    assert len(counted) == forks
    g = np.ones((6, 4), np.float32)
    assert np.array_equal(x.grad, g @ w.data.T)
    assert np.array_equal(w.grad, x.data.T @ g)


def test_blas_thread_count_is_read_or_unknown():
    threads = parallel.blas_threads()
    assert threads is None or threads >= 1


# loaded into a pytest child with `-p`: reports whether the pool started and
# the BLAS thread count it read; FORCING, prepended, forces the pool on as
# `force_pool` does
REPORTING_PLUGIN = """
from cogent import parallel


def pytest_unconfigure(config):
    print(f"pool started: {parallel._tasks is not None}")
    print(f"blas threads: {parallel.blas_threads()}")
"""
FORCING = """
from cogent import optim, parallel, tensor

for module, name, value in (
    (tensor, "_GELU_BLOCK", 64), (tensor, "_POOL_GELU", 1), (tensor, "_POOL_MACS", 1),
    (optim, "_BLOCK", 64), (optim, "_POOL_SWEEP", 1), (optim, "_POOL_CHECK", 1),
):
    setattr(module, name, value)
parallel._spare = max(parallel._spare, 1)
"""


@pytest.mark.parametrize("blas, forced", [("1", True), ("2", False)])
def test_pinned_digests_hold_at_any_blas_thread_count(tmp_path, blas, forced):
    # a child process, since OpenBLAS reads its thread count when numpy
    # loads; with two BLAS threads no GEMM forks, but gelu and Adam may
    # still use the pool
    plugin = (FORCING if forced else "") + REPORTING_PLUGIN
    (tmp_path / "pool_report.py").write_text(plugin)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(tmp_path)]),
        "OPENBLAS_NUM_THREADS": blas,
        "OMP_NUM_THREADS": blas,
        "MKL_NUM_THREADS": blas,
    }
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "pool_report", str(ROOT / "tests" / "test_pinned.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "3 passed" in out.stdout
    assert f"pool started: {forced}" in out.stdout, out.stdout
    read = parallel.blas_threads()
    assert f"blas threads: {blas if read else None}" in out.stdout, out.stdout
