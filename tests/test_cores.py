"""`on_cores` and the commands that run their sweep points through it: the
same bytes and the same stdout on any number of cores, errors in point
order, and no child left behind."""
import os
import pickle
import time
from pathlib import Path

import pytest
import yaml

from ehsense import ConvergenceError, ParameterError, StructureViolationError
from ehsense.cli import main
from ehsense.config import ConfigError
from ehsense.cores import on_cores

from test_cli import small_config, write_config

REPO = Path(__file__).resolve().parent.parent
COMMANDS = ("solve", "export-regions", "simulate", "search", "verify")


@pytest.fixture
def cores(monkeypatch, tmp_path):
    """cores(n) makes n cores usable; cores.forks() lists the pid of the
    forking process once per fork, children's forks included."""
    log, fork = tmp_path / "forks.log", os.fork

    def logged_fork():
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return fork()

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        log.write_text("")

    use.forks = lambda: [int(pid) for pid in log.read_text().split()]
    monkeypatch.setattr(os, "fork", logged_fork)
    return use


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("exc, fields", [
    (ConvergenceError(1e-3, 7), ("span", "iterations")),
    (StructureViolationError("row 3 is not in threshold form"), ()),
    (ConfigError("bad simulation settings"), ()),
    (ParameterError("need one row per battery level"), ())],
    ids=lambda x: type(x).__name__ if isinstance(x, Exception) else "")
def test_every_exit_code_exception_survives_a_pickle(exc, fields):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    for name in fields:
        assert getattr(back, name) == getattr(exc, name)


@pytest.mark.parametrize("n, items", [(1, 5), (2, 5), (3, 2), (3, 7), (64, 3)])
def test_results_in_item_order_with_one_child_per_further_core(cores, n, items):
    cores(n)
    # uneven items: a slow first item must not hold back the others
    got = list(on_cores(lambda i: (time.sleep(0.05 * (i == 0)), i * i,
                                   os.getpid())[1:], range(items)))
    assert [square for square, _ in got] == [i * i for i in range(items)]
    assert got[0][1] == os.getpid()  # this process runs the first item
    workers = min(n, items)
    assert cores.forks() == [os.getpid()] * (workers - 1)
    assert {pid for _, pid in got} - {os.getpid()} == (
        set() if workers == 1 else {pid for _, pid in got[1:workers]})
    assert_no_child_left()


def test_a_nested_call_runs_inline(cores):
    cores(3)
    got = list(on_cores(lambda i: list(on_cores(lambda j: (i, j), range(3))),
                        range(3)))
    assert got == [[(i, j) for j in range(3)] for i in range(3)]
    assert cores.forks() == [os.getpid()] * 2  # no grandchild
    assert list(on_cores(str, range(2))) == ["0", "1"]  # forks again after
    assert len(cores.forks()) == 3


def test_an_item_error_is_raised_in_its_place(cores):
    cores(3)
    seen = []

    def fn(i):
        if i in (1, 3):
            raise ConvergenceError(0.5 * i, i)
        return i

    results = on_cores(fn, range(5))
    seen.append(next(results))  # index 0, then the error of index 1
    with pytest.raises(ConvergenceError) as err:
        next(results)
    assert seen == [0] and (err.value.span, err.value.iterations) == (0.5, 1)
    assert_no_child_left()


def test_a_child_that_dies_without_results_is_a_runtime_error(cores):
    cores(2)
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            os._exit(5)
        return i

    with pytest.raises(RuntimeError, match="forked worker failed"):
        list(on_cores(fn, range(2)))
    assert_no_child_left()


@pytest.mark.parametrize("die, code", [
    (lambda: os._exit(5), 5),
    (lambda: os.kill(os.getpid(), 9), -9)],  # SIGKILL: -N for signal N
    ids=["exit", "signal"])
def test_a_dead_child_is_reported_by_its_exit_code(cores, die, code):
    cores(2)
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            die()
        return i

    with pytest.raises(RuntimeError) as err:
        list(on_cores(fn, range(2)))
    assert str(err.value) == f"forked worker failed: exit code {code}"
    assert_no_child_left()


def test_an_interrupt_in_the_parent_kills_the_children(cores, monkeypatch):
    cores(3)
    parent, waitpid, statuses = os.getpid(), os.waitpid, []

    def fn(i):
        if os.getpid() != parent:
            time.sleep(60)  # only a kill ends a child in time
        raise KeyboardInterrupt

    def recorded_waitpid(pid, options):
        done = waitpid(pid, options)
        statuses.append(done[1])
        return done

    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    with pytest.raises(KeyboardInterrupt):
        list(on_cores(fn, range(3)))
    assert [os.WTERMSIG(s) for s in statuses] == [9, 9]
    assert_no_child_left()


def run_all(tmp_path, capsys, cfg, name):
    """files and stdout of every command on `cfg`, one output dir each."""
    path = write_config(tmp_path, cfg, f"{name}.yaml")
    got = {}
    for command in COMMANDS:
        out = tmp_path / name / command
        status = main([command, "--config", str(path), "--out", str(out)])
        got[command] = (status, capsys.readouterr().out.replace(str(out), "OUT"),
                        files(out) if out.exists() else None)
    return got


def test_every_command_is_the_same_on_one_and_three_cores(tmp_path, capsys,
                                                          cores):
    cfg = small_config(sweep={"q": [0.2, 0.6, 0.4]})
    cfg["search"] = {"episodes": 2, "horizon": 150, "max_passes": 1,
                     "candidates": [0.3, 0.5, 0.8]}
    cores(1)
    one = run_all(tmp_path, capsys, cfg, "one")
    assert cores.forks() == []
    cores(3)
    three = run_all(tmp_path, capsys, cfg, "three")
    # two children per command: 3 points, and 6 solved (point, policy) lanes
    # in simulate; the value CSVs of solve are written inside the workers
    assert cores.forks() == [os.getpid()] * 2 * len(COMMANDS)
    assert one == three
    assert [status for status, _, _ in one.values()] == [0, 0, 0, 0, 3]
    assert len(one["solve"][2]) == 9 and len(one["export-regions"][2]) == 3
    assert one["solve"][1].count("solving q") == 3
    assert one["verify"][1].count("FAIL battery_gap_bound") == 3
    assert_no_child_left()


def throughput_config(q, max_iter):
    with open(REPO / "perfbench/configs/tiny/throughput.yaml") as f:
        cfg = yaml.safe_load(f)
    cfg["solver"]["max_iter"] = max_iter
    cfg["sweep"] = {"q": q}
    return cfg


# On this model q=0.1 takes 536 sweeps, q=0.3 191 and q=0.5 99.
@pytest.mark.parametrize("q, max_iter", [
    ([0.5, 0.1], 300),       # a child's point fails
    ([0.1, 0.5], 300),       # this process's own point fails
    ([0.5, 0.3, 0.1], 150)], # two fail: the first in point order is reported
    ids=["child", "parent", "first"])
@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_a_failed_point_exits_2_as_on_one_core(tmp_path, capsys, cores,
                                               command, q, max_iter):
    path = write_config(tmp_path, throughput_config(q, max_iter))
    err = {}
    for n in (1, 3):
        cores(n)
        out = tmp_path / f"out{n}"
        assert main([command, "--config", str(path), "--out", str(out),
                     "--quiet"]) == 2
        err[n] = capsys.readouterr().err
        items = len(q) * (2 if command == "simulate" else 1)  # 2 solved lanes
        assert len(cores.forks()) == min(n, items) - 1
        assert_no_child_left()
    assert err[3] == err[1]
    assert err[1].startswith(f"solver did not converge: no convergence after "
                             f"{max_iter} sweeps")
    if len(q) == 3:  # the two failing points leave different spans
        lone = write_config(tmp_path, throughput_config([0.1], max_iter), "lone.yaml")
        assert main([command, "--config", str(lone), "--out",
                     str(tmp_path / "lone"), "--quiet"]) == 2
        assert capsys.readouterr().err != err[1]
