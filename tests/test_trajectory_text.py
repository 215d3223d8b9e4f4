"""Trajectory CSV text: every float exactly as its repr, against the one-float-at-a-time oracle."""

import io
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from jkoflow import _trajectory_text
from jkoflow.flow import FlowTrajectory, trajectory_csv

from oracle import trajectory_text

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _assert_reprs(values) -> None:
    """Column 0 of the 2-D values as the times, the others as the positions."""
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    fh = io.BytesIO()
    _trajectory_text.write(fh, values[:, 0].tolist(), values[:, 1:])
    assert fh.getvalue() == trajectory_text(values[:, 0].tolist(), values[:, 1:])


def test_trajectory_csv_writes_joined_reprs(tmp_path):
    # walls, negative positions, a repr with an exponent, and N = 1 and 1024
    rng = np.random.default_rng(5)
    wide = np.sort(rng.uniform(-1.0, 1.0, size=(4, 1024)), axis=1)
    wide[:, 0], wide[:, 1], wide[:, 512], wide[:, -1] = -1.0, -0.5, 3.0e-05, 1.0
    wide[1, 511] = 0.0
    positions = (np.array([[0.0], [1.0], [-1.0], [2.5e-06]]), wide,
                 np.array([[-1.0, 0.0, 1.0]] * 4))
    times = tuple(k * 0.1 for k in range(4))  # 0.30000000000000004 among them
    traj = FlowTrajectory(None, times, positions, {})  # trajectory_csv reads only these
    for i, x in enumerate(positions):
        trajectory_csv(traj, i, tmp_path / f"trajectory_pop{i}.csv")
        assert (tmp_path / f"trajectory_pop{i}.csv").read_bytes() == trajectory_text(times, x)
    assert b"e-05," in (tmp_path / "trajectory_pop1.csv").read_bytes()


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=40),
              elements=st.floats(width=64)))
def test_any_float_is_its_repr(values):
    # st.floats draws +-0.0, subnormals, +-inf and nan among the others
    _assert_reprs(values)


def test_seeded_batch_is_its_reprs():
    # every binary exponent in [-60, 60] 1000 times, and every decimal scale
    # 10^-5 ... 10^17 4000 times, of either sign: 213 000 values, 27 blocks
    rng = np.random.default_rng(26)
    binary = rng.uniform(1.0, 2.0, (121, 1000)) * np.exp2(np.arange(-60, 61))[:, None]
    decimal = rng.uniform(0.1, 1.0, (23, 4000)) * 10.0 ** np.arange(-5, 18)[:, None]
    values = np.concatenate((binary.ravel(), decimal.ravel()))
    values *= rng.choice((-1.0, 1.0), values.size)
    _assert_reprs(values.reshape(426, 500))
    # repr is the exception: the fast path takes every value of its range below 2^32,
    # where V's many fraction bits leave no tie
    a = np.abs(values)
    fast = values[(a >= 1e-4) & (a < 2.0 ** 32)]
    for block in np.split(fast, range(_trajectory_text.BLOCK, fast.size, _trajectory_text.BLOCK)):
        assert _trajectory_text._shortest(block, _trajectory_text._work(block.size))[2].all()


def test_hand_picked_values_are_their_reprs():
    steps = [yaml.safe_load(path.read_text())["flow"]["h"] for path in SCENARIO_DIR.glob("*.yaml")]
    assert sorted(set(steps)) == [0.002, 0.01, 0.1]
    values = [
        1e-4, np.nextafter(1e-4, 0.0),  # the fast path's lower end, and exponent notation
        9999999999999998.0, 1e16,  # its upper end, and exponent notation
        9.999999999999998, 0.09999999999999999,  # no carry to the next power of ten
        0.30000000000000004, 5e-324,
        1e15 + 0.25, 1e15 + 0.75,  # halfway between two 17-digit candidates: repr's tie
        *(2.0 ** k for k in range(-20, 61)),
        *(k * h for h in steps for k in range(2001)),
    ]
    _assert_reprs([[v, -v] for v in values])


def test_a_second_write_reuses_the_work_arrays(tmp_path):
    # after one write, a write of the same trajectory allocates no array of its passes:
    # its peak is the text of a few CHUNK values, under 64 bytes per value of its largest
    # block, where arrays allocated per block took 236
    rng = np.random.default_rng(32)
    x = np.sort(rng.uniform(0.0, 1.0, (101, 128)), axis=1)
    x[:, 0], x[:, -1] = 0.0, 1.0  # wall particles: uncertain values in every row
    times = [k * 0.01 for k in range(101)]
    largest = 51 * 129  # 101 rows of t and 128 positions, in two blocks of 51 and 50 rows
    for run in range(2):
        with open(tmp_path / f"run{run}.csv", "wb") as fh:
            tracemalloc.start()
            _trajectory_text.write(fh, times, x)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert peak <= 64 * largest
    assert (tmp_path / "run1.csv").read_bytes() == trajectory_text(times, x)


def test_work_arrays_serve_blocks_that_shrink_and_grow(tmp_path):
    # one thread's arrays through blocks of 4100, 6579 and 6450, 4100 and 8 values, then
    # of 8193, more than BLOCK, and of 8 again
    rng = np.random.default_rng(33)
    path = tmp_path / "trajectory_pop0.csv"
    for shape in ((4, 1024), (101, 128), (4, 1024), (2, 3), (3, 8192), (2, 3)):
        x = np.sort(rng.uniform(-1.0, 1.0, shape), axis=1)
        times = [k * 0.1 for k in range(shape[0])]
        trajectory_csv(FlowTrajectory(None, times, (x,), {}), 0, path)
        assert path.read_bytes() == trajectory_text(times, x)


def test_threads_writing_at_once_keep_their_own_work_arrays():
    # four threads on two cores, switching every microsecond: with shared work arrays,
    # one thread's pass would overwrite another's and a text would differ
    rng = np.random.default_rng(34)
    shapes = ((101, 128), (4, 1024), (101, 128), (4, 1024))
    positions = [np.sort(rng.uniform(-1.0, 1.0, shape), axis=1) for shape in shapes]
    times = [[k * 0.01 for k in range(shape[0])] for shape in shapes]
    texts = [[] for _ in shapes]

    def write(i):
        for _ in range(5):
            fh = io.BytesIO()
            _trajectory_text.write(fh, times[i], positions[i])
            texts[i].append(fh.getvalue())

    threads = [threading.Thread(target=write, args=(i,)) for i in range(len(shapes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(len(shapes)):
        assert texts[i] == [trajectory_text(times[i], positions[i])] * 5
