import concurrent.futures
import errno
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from amcmc_lab import (
    CoeffRow,
    DiscreteRow,
    ExperimentSpec,
    SdeRow,
    emit_csv,
    load_csv,
    print_summary,
    run_experiment,
)
from amcmc_lab import cli, coeffs, experiments
from amcmc_lab.chains import chain_streams, metropolis_step
from amcmc_lab.cli import main
from amcmc_lab.coeffs import COEFF_KINDS
from amcmc_lab.experiments import DISCRETE_P_GRIDS, DISCRETE_THETA0_GRID, default_sde_cells
from amcmc_lab.seeding import child_seed
from amcmc_lab.stats import chain_summary, ks_statistic
from amcmc_lab.targets import make_target


def small_discrete_spec(**overrides):
    base = dict(mode="discrete", target="normal", theta0_grid=(1.0,),
                p_grid=(0.5,), n_samples=400, burn_in=50, replicates=2, seed=3)
    base.update(overrides)
    return ExperimentSpec(**base)


def small_sde_spec(**overrides):
    base = dict(mode="sde", target="normal", hp_cells=((0.01, 2.0),),
                n_paths=40, horizon_t=0.2, replicates=2, seed=4)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_single_cell_discrete_produces_two_rows_per_replicate():
    rows = run_experiment(small_discrete_spec(replicates=1))
    assert len(rows) == 2
    assert {row.arm for row in rows} == {"adaptive", "standard"}
    standard = [row for row in rows if row.arm == "standard"][0]
    assert standard.p is None
    assert all(row.mode == "discrete" for row in rows)


def test_reference_grid_row_count():
    spec = ExperimentSpec(mode="discrete", target="normal", n_samples=60,
                          burn_in=10, replicates=1, seed=1)
    rows = run_experiment(spec)
    n_theta = len(DISCRETE_THETA0_GRID)
    n_p = len(DISCRETE_P_GRIDS["normal"])
    assert len(rows) == n_theta * n_p + n_theta


def test_row_count_formula_with_replicates():
    spec = small_discrete_spec(theta0_grid=(0.5, 1.0), p_grid=(0.3, 0.6),
                               replicates=3, n_samples=120, burn_in=20)
    rows = run_experiment(spec)
    assert len(rows) == (2 * 2 + 2) * 3


def test_discrete_rows_deterministic():
    rows_a = run_experiment(small_discrete_spec())
    rows_b = run_experiment(small_discrete_spec())
    assert rows_a == rows_b


def test_discrete_rows_stable_under_workers(monkeypatch):
    # a block per chain, so the two workers share the grid
    sequential = run_experiment(small_discrete_spec())
    monkeypatch.setattr(experiments, "DISCRETE_BLOCK_STEPS", 400)
    parallel = run_experiment(small_discrete_spec(workers=2))
    assert sequential == parallel


def test_discrete_rows_do_not_depend_on_the_block_size(monkeypatch):
    # 12 chains in one lockstep block, then each in a block of its own; the
    # chains run past one chunk of draws
    spec = small_discrete_spec(theta0_grid=(0.5, 2.0), p_grid=(0.3, 0.6), replicates=2,
                               n_samples=600, burn_in=20, target="exp")
    together, alone = io.StringIO(), io.StringIO()
    blocks = []
    run_block = experiments._discrete_block
    monkeypatch.setattr(experiments, "_discrete_block",
                        lambda jobs: blocks.append(len(jobs)) or run_block(jobs))
    emit_csv(run_experiment(spec), together)
    monkeypatch.setattr(experiments, "DISCRETE_BLOCK_STEPS", 1)
    emit_csv(run_experiment(spec), alone)
    assert blocks == [12] + [1] * 12
    assert alone.getvalue() == together.getvalue()


def test_discrete_default_grid_runs_in_bounded_blocks(monkeypatch):
    # the blocks are recorded, not run: 330 chains of 10^4 steps, at most
    # 200 to a block of the budget, so two blocks in one process
    blocks = []
    monkeypatch.setattr(experiments, "_discrete_block", lambda jobs: blocks.append(jobs) or [])
    spec = ExperimentSpec(mode="discrete", target="normal")
    assert run_experiment(spec) == []
    assert [job for block in blocks for job in block] == experiments.discrete_jobs(spec)
    assert max(len(block) for block in blocks) * spec.n_samples \
        <= experiments.DISCRETE_BLOCK_STEPS
    assert [len(block) for block in blocks] == [200, 130]


def test_discrete_grid_splits_across_workers_at_the_default_budget(tmp_path, monkeypatch):
    # 30 chains fit one block of the default budget; two processes get a
    # block of 15 each, and the file has the same bytes
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    packed, pools = [], []
    pack = experiments._blocks
    monkeypatch.setattr(experiments, "_blocks",
                        lambda *args: packed.append(pack(*args)) or packed[-1])

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    files = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}.csv"
        assert main(["discrete", "--target", "exp", "--replicates", "1", "--n-samples", "2000",
                     "--burn-in", "200", "--workers", workers, "--out", str(out)]) == 0
        files.append(out.read_bytes())
    assert [[len(block) for block in blocks] for blocks in packed] == [[30], [15, 15]]
    assert pools == [{"max_workers": 2}]
    assert files[0] == files[1]


@pytest.mark.parametrize("jobs,per_block,parts,expected", [
    (330, 200, 1, [200, 130]),
    (330, 200, 2, [165, 165]),
    (30, 200, 2, [15, 15]),
    (31, 200, 2, [15, 15, 1]),
    (5, 200, 4, [1] * 5),  # at least `parts` blocks, never an empty one
    (3, 200, 8, [1] * 3),
    (10, 4, 2, [4, 4, 2]),  # the budget binds before the split
])
def test_blocks_split_for_the_processes(jobs, per_block, parts, expected):
    assert [len(block) for block in experiments._blocks(list(range(jobs)), 10, 10 * per_block,
                                                        parts)] == expected


def _no_work(jobs):
    raise AssertionError("a block ran")


def test_invalid_grid_rejected_before_any_work(monkeypatch):
    for block in ("_discrete_block", "_sde_block", "_coeff_block"):
        monkeypatch.setattr(experiments, block, _no_work)
    with pytest.raises(ValueError):
        run_experiment(small_discrete_spec(p_grid=(1.5,)))
    with pytest.raises(ValueError):
        run_experiment(small_discrete_spec(theta0_grid=(-1.0,)))
    with pytest.raises(ValueError):
        run_experiment(small_discrete_spec(replicates=0))
    # the row's ESJD needs two retained draws
    with pytest.raises(ValueError, match="at least two retained samples"):
        run_experiment(small_discrete_spec(n_samples=10, burn_in=9, replicates=1))
    with pytest.raises(ValueError):
        run_experiment(small_sde_spec(hp_cells=((0.0, 1.0),)))
    with pytest.raises(ValueError, match="sde mode takes a single theta0"):
        run_experiment(small_sde_spec(theta0_grid=(1.0, 2.0)))
    # p None is the fixed scale, which arm="standard" asks for
    for p_grid in ((None,), (0.5, None)):
        with pytest.raises(ValueError, match="arm='standard'"):
            run_experiment(small_discrete_spec(p_grid=p_grid))
    for hp_cells in (((0.01, None),), ((0.01, 2.0), (0.01, None))):
        with pytest.raises(ValueError, match="arm='standard'"):
            run_experiment(small_sde_spec(hp_cells=hp_cells))
    with pytest.raises(ValueError, match="coeff mode takes a single p"):
        run_experiment(ExperimentSpec(mode="coeff", target="normal", p_grid=(0.3, 0.7)))
    with pytest.raises(ValueError, match="coeff mode has no fixed-scale arm"):
        run_experiment(ExperimentSpec(mode="coeff", target="normal", p_grid=(None,)))
    for n in (2.5, math.inf):
        with pytest.raises(ValueError, match=f"whole number, got {n!r}"):
            run_experiment(ExperimentSpec(mode="coeff", target="normal", n_grid=(100, n)))


def test_sde_start_off_the_support_is_refused_before_any_block_runs(monkeypatch):
    # the exponential's score is first read on the first Euler step, inside
    # a block with its draw helper running: the grid is refused before that
    monkeypatch.setattr(experiments, "_sde_block", _no_work)
    with pytest.raises(ValueError, match="x0=-1.0 outside the support of the exp target"):
        run_experiment(small_sde_spec(target="exp", x0=-1.0))
    # the boundary itself is a start a reflected path can take
    monkeypatch.undo()
    assert len(run_experiment(small_sde_spec(target="exp", x0=0.0, replicates=1))) == 2


@pytest.mark.parametrize("mode", ["discrete", "sde"])
def test_grid_start_off_the_support_is_refused_by_one_rule(monkeypatch, capsys, tmp_path,
                                                           mode):
    # a chain started off the exponential's support moves only when a
    # proposal lands inside it, which a scale that shrinks first, or a small
    # fixed one, may never make: both grid modes refuse the start in one
    # error line, before any block runs or any file is written
    monkeypatch.setattr(experiments, f"_{mode}_block", _no_work)
    out = tmp_path / "rows.csv"
    assert main([mode, "--target", "exp", "--x0=-1", "--replicates", "3",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: x0=-1.0 outside the support of the exp target\n"
    assert not out.exists()
    # a start at minus infinity is refused as not finite, by the configs
    assert main([mode, "--target", "exp", "--x0=-inf", "--replicates", "1"]) == 1
    assert capsys.readouterr().err == "error: x0 must be finite\n"
    # the boundary is a start inside the support
    monkeypatch.undo()
    spec = small_discrete_spec if mode == "discrete" else small_sde_spec
    assert len(run_experiment(spec(target="exp", x0=0.0, replicates=1))) == 2


def test_sde_single_cell_rows():
    rows = run_experiment(small_sde_spec(replicates=1))
    assert len(rows) == 2
    adaptive = [row for row in rows if row.arm == "adaptive"][0]
    assert adaptive.h == 0.01 and adaptive.p == 2.0
    assert adaptive.theta_t_mean > 0.0


def test_sde_standard_arm_once_per_mesh():
    spec = small_sde_spec(hp_cells=((0.01, 1.0), (0.01, 2.0), (0.02, 1.0)),
                          replicates=1)
    rows = run_experiment(spec)
    standard = [row for row in rows if row.arm == "standard"]
    assert len(standard) == 2  # one per distinct mesh size
    assert len(rows) == 3 + 2


def test_sde_runs_at_the_spec_theta0():
    # the standard arm keeps theta at its start, so the row shows the start
    rows = run_experiment(small_sde_spec(theta0_grid=(3.0,), arm="standard", replicates=1))
    assert [row.theta_t_mean for row in rows] == [3.0]


def test_sde_exponential_defaults_start_inside_support():
    spec = ExperimentSpec(mode="sde", target="exp", hp_cells=((0.01, 2.0),),
                          n_paths=30, horizon_t=0.1, replicates=1, seed=6)
    assert all(job.config.x0 == 1.0 for job in experiments.sde_jobs(spec))
    rows = run_experiment(spec)
    assert all(0.0 <= row.d <= 1.0 for row in rows)


def test_default_sde_cells_match_reference_tables():
    cells = default_sde_cells("cauchy")
    assert (0.01, 2.75) in cells
    assert (0.0001, 5.0) in cells
    normal_cells = default_sde_cells("normal")
    assert (0.0005, 5.0) in normal_cells
    assert len(normal_cells) == 3 + 4 + 7 + 7 + 4


def test_coeff_experiment_rows():
    spec = ExperimentSpec(mode="coeff", target="normal", x_grid=(1.0,),
                          theta0_grid=(1.0,), n_grid=(100, 10_000),
                          n_draws=5_000, seed=8)
    rows = run_experiment(spec)
    assert len(rows) == 5 * 2  # kinds x resolutions
    b1 = [row for row in rows if row.kind == "B1" and row.n == 10_000][0]
    assert b1.limit == pytest.approx(-0.5)
    assert b1.std_error > 0.0


def test_coeff_cauchy_b2_gets_extra_draws():
    spec = ExperimentSpec(mode="coeff", target="cauchy", x_grid=(1.0,),
                          theta0_grid=(1.0,), n_grid=(100,), n_draws=2_000, seed=9)
    rows = run_experiment(spec)
    by_kind = {row.kind: row for row in rows}
    # extra draws shrink the standard error roughly twofold relative to B1
    assert by_kind["B2"].std_error < by_kind["B1"].std_error


def test_coeff_repeated_kind_gives_the_deduplicated_rows():
    base = dict(mode="coeff", target="cauchy", x_grid=(1.0,), theta0_grid=(1.0,),
                n_grid=(100, 400), n_draws=1_000, seed=3)
    rows = run_experiment(ExperimentSpec(**base, kinds=("B2", "B1", "B2")))
    assert rows == run_experiment(ExperimentSpec(**base, kinds=("B2", "B1")))
    assert len(rows) == 4


def test_a_cauchy_coeff_cell_steps_each_batch_once(monkeypatch):
    # at 2^10 draws a batch, the four 3000-draw kinds read batches 0-1 and
    # the first 952 transitions of batch 2, and B2's 12 000 draws batches
    # 0-10 and the first 736 of batch 11: each batch is stepped once, for
    # every kind that reads it (contract v2 stepped batch 2 twice)
    monkeypatch.setattr(coeffs, "_BATCH", 1 << 10)
    opened = []

    def recording_streams(seed, batch):
        opened.append(batch)
        return chain_streams(seed, batch)

    monkeypatch.setattr(coeffs, "chain_streams", recording_streams)
    spec = ExperimentSpec(mode="coeff", target="cauchy", x_grid=(2.0,), theta0_grid=(1.0,),
                          n_grid=(10_000,), n_draws=3_000, seed=13)
    (cell,) = experiments.coeff_cells(spec)
    rows = experiments._coeff_block(cell)
    assert sorted(row.kind for row in rows) == sorted(COEFF_KINDS)
    assert sorted(opened) == list(range(12))


def test_emit_csv_discrete_round_trip(tmp_path):
    rows = run_experiment(small_discrete_spec(replicates=1))
    path = tmp_path / "rows.csv"
    emit_csv(rows, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("target,mode,arm,theta0,p,seed,replicate,D,p_value,esjd\n")
    assert text.endswith("\n") and "\r" not in text
    assert load_csv(path) == rows


def test_emit_csv_single_row_format(tmp_path):
    row = DiscreteRow("normal", "discrete", "adaptive", 2.38, 0.5, 7, 0,
                      0.015, 0.028, 0.71)
    path = tmp_path / "one.csv"
    emit_csv([row], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1] == "normal,discrete,adaptive,2.38,0.5,7,0,0.015,0.028,0.71"


def test_emit_csv_refuses_empty_rows_and_writes_nothing(tmp_path):
    # every run yields rows, so an empty set can only be a caller's mistake
    path = tmp_path / "empty.csv"
    with pytest.raises(ValueError, match="no rows to write"):
        emit_csv([], path)
    assert list(tmp_path.iterdir()) == []
    buffer = io.StringIO()
    with pytest.raises(ValueError, match="no rows to write"):
        emit_csv(iter([]), buffer)
    assert buffer.getvalue() == ""


def test_emit_csv_rejects_mixed_modes(tmp_path):
    d = DiscreteRow("normal", "discrete", "adaptive", 1.0, 0.5, 0, 0, 0.1, 0.5, 1.0)
    s = SdeRow("normal", "sde", "adaptive", 0.01, 1.0, 0, 0, 0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        emit_csv([d, s], tmp_path / "mixed.csv")


def test_coeff_csv_round_trip(tmp_path):
    rows = [CoeffRow("B1", "normal", 1.0, 1.0, 0.5, 100, -0.45, 0.01, -0.5, 5.0)]
    path = tmp_path / "coeff.csv"
    emit_csv(rows, path)
    assert load_csv(path) == rows


def test_print_summary_prints_one_line_per_cell():
    # medians only: no column ranks the cells of a group
    rows = run_experiment(small_sde_spec(hp_cells=((0.01, 1.0), (0.01, 2.0)),
                                         replicates=1))
    buffer = io.StringIO()
    print_summary(rows, file=buffer)
    header, *lines = buffer.getvalue().splitlines()
    assert header.split() == ["h", "p", "arm", "D(med)", "p_value(med)", "theta_T(med)"]
    # each line ends in the cell's three medians
    assert [line.split()[:-3] for line in lines] == [
        ["0.01", "1", "adaptive"], ["0.01", "2", "adaptive"], ["0.01", "standard"]]


def summary_rows(replicates):
    """Discrete rows of two adaptive cells and a fixed-scale one; the first
    cell's values are uneven, so its medians differ at 3 and 4 replicates."""
    values = {0.25: ([0.3, 0.1, 0.2, 0.4], [0.5, 0.125, 0.25, 0.0625], [1.0, 3.0, 2.0, 4.0]),
              0.5: ([0.2] * 4, [0.2] * 4, [1.5] * 4),
              None: ([0.7] * 4, [1e-20] * 4, [0.5] * 4)}
    return [DiscreteRow("normal", "discrete", "standard" if p is None else "adaptive", 1.0,
                        p, 0, r, d[r], p_value[r], esjd[r])
            for p, (d, p_value, esjd) in values.items() for r in range(replicates)]


SUMMARY_HEADER = "    theta0        p       arm     D(med)  p_value(med)     esjd(med)\n"


@pytest.mark.parametrize("replicates, lines", [
    # the middle value
    (3, ["         1     0.25  adaptive     0.2000          0.25        2.0000",
         "         1      0.5  adaptive     0.2000           0.2        1.5000",
         "         1           standard     0.7000      <2.2e-16        0.5000"]),
    # the mean of the two middle ones, as statistics.median gives
    (4, ["         1     0.25  adaptive     0.2500        0.1875        2.5000",
         "         1      0.5  adaptive     0.2000           0.2        1.5000",
         "         1           standard     0.7000      <2.2e-16        0.5000"]),
])
def test_print_summary_medians_at_odd_and_even_replicate_counts(replicates, lines):
    buffer = io.StringIO()
    print_summary(summary_rows(replicates), file=buffer)
    assert buffer.getvalue() == SUMMARY_HEADER + "".join(line + "\n" for line in lines)


def test_discrete_chain_past_the_memory_cap_is_refused_before_any_work(monkeypatch, capsys):
    # the jobs are built, not run: a chain that records cap/8 positions past
    # the spec's burn-in of 50 is accepted and one step more is refused, and
    # the CLI ends in one error line
    monkeypatch.setattr(experiments, "_discrete_block", _no_work)
    steps = experiments.DISCRETE_CHAIN_BYTES // 8 + 50
    assert len(experiments.discrete_jobs(small_discrete_spec(n_samples=steps))) == 4
    with pytest.raises(ValueError, match="past the cap of"):
        experiments.discrete_jobs(small_discrete_spec(n_samples=steps + 1))
    assert main(["discrete", "--target", "normal", "--n-samples", "1000000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_samples=1000000000000 ") and err.count("\n") == 1
    # 134 217 729 steps, of which 100 000 000 burn-in, record 274 MB: accepted
    built = []

    def no_rows(jobs):
        built.extend(jobs)
        return []

    monkeypatch.setattr(experiments, "_discrete_block", no_rows)
    assert main(["discrete", "--target", "normal", "--n-samples", "134217729",
                 "--burn-in", "100000000", "--replicates", "1"]) == 0
    assert len(built) == 30


def test_sde_paths_past_the_memory_cap_are_refused_before_any_work(monkeypatch, capsys,
                                                                   tmp_path):
    # an ensemble of cap/(2 EULER_CHUNK 8) paths is accepted, one path more
    # is refused before a block runs, and the CLI ends in one error line
    monkeypatch.setattr(experiments, "_sde_block", _no_work)
    paths = experiments.SDE_BUFFER_BYTES // (2 * experiments.EULER_CHUNK * 8)
    assert paths == 1_048_576
    assert len(experiments.sde_jobs(small_sde_spec(n_paths=paths))) == 4
    out = tmp_path / "rows.csv"
    assert main(["sde", "--target", "normal", "--h", "0.01", "--p", "1",
                 "--paths", str(paths + 1), "--replicates", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: n_paths={paths + 1} ") and err.count("\n") == 1
    assert "past the cap of" in err
    assert not out.exists()


def _no_seed(*key):
    raise AssertionError("a job was seeded")


def test_grid_past_the_job_cap_is_refused_before_any_job(monkeypatch):
    # 30 cells: at a cap of 60 jobs, 2 replicates are accepted and 3 are
    # refused before any job is seeded
    monkeypatch.setattr(experiments, "MAX_GRID_JOBS", 60)
    spec = ExperimentSpec(mode="discrete", target="normal", replicates=2)
    assert len(experiments.discrete_jobs(spec)) == 60
    monkeypatch.setattr(experiments, "child_seed", _no_seed)
    for mode, make_jobs in (("discrete", experiments.discrete_jobs),
                            ("sde", experiments.sde_jobs)):
        with pytest.raises(ValueError, match="30 cells x 3 replicates = 90 jobs, past the "
                                             "cap of 60"):
            make_jobs(ExperimentSpec(mode=mode, target="normal", replicates=3))


@pytest.mark.parametrize("mode", ["discrete", "sde"])
def test_cli_huge_replicate_count_ends_in_one_error_line(monkeypatch, capsys, mode):
    # 10^12 replicates would build 3 * 10^13 jobs: the count is refused
    # before the first job is seeded, and the CLI ends in one error line
    monkeypatch.setattr(experiments, "child_seed", _no_seed)
    assert main([mode, "--target", "normal", "--replicates", "1000000000000"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: 30 cells x 1000000000000 replicates = 30000000000000 jobs, "
                   f"past the cap of {experiments.MAX_GRID_JOBS}\n")


def test_every_reference_grid_is_within_the_job_cap():
    # 4 targets x discrete/sde at 11 replicates; the largest has 330 jobs
    sizes = [len(make_jobs(ExperimentSpec(mode=mode, target=target)))
             for target in DISCRETE_P_GRIDS
             for mode, make_jobs in (("discrete", experiments.discrete_jobs),
                                     ("sde", experiments.sde_jobs))]
    assert len(sizes) == 8 and max(sizes) == 330 <= experiments.MAX_GRID_JOBS


def test_cli_discrete_writes_csv(tmp_path):
    out = tmp_path / "cli.csv"
    code = main(["discrete", "--target", "normal", "--theta0", "1.0",
                 "--p", "0.5", "--n-samples", "300", "--burn-in", "50",
                 "--replicates", "1", "--seed", "5", "--out", str(out)])
    assert code == 0
    rows = load_csv(out)
    assert len(rows) == 2


def test_cli_runs_are_byte_identical(tmp_path):
    args = ["sde", "--target", "normal", "--h", "0.01", "--p", "2.0",
            "--paths", "30", "--horizon", "0.2", "--replicates", "2",
            "--seed", "9"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_rejects_invalid_grid(tmp_path, capsys):
    code = main(["discrete", "--target", "normal", "--theta0", "-1.0",
                 "--p", "0.5", "--n-samples", "100", "--replicates", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert not (tmp_path / "x.csv").exists()  # partial results are not written
    assert "error" in capsys.readouterr().err


def test_cli_requires_paired_sde_grid_flags():
    assert main(["sde", "--target", "normal", "--h", "0.01",
                 "--replicates", "1", "--paths", "10"]) == 1


def test_cli_dump_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["discrete", "--target", "normal", "--theta0", "1.0",
                 "--p", "0.5", "--n-samples", "50", "--burn-in", "5",
                 "--replicates", "1", "--seed", "2",
                 "--dump-trajectory", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,x,theta,xi"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] in ("0", "1")


def test_cli_dump_terminal(tmp_path):
    out = tmp_path / "terminal.csv"
    code = main(["sde", "--target", "normal", "--h", "0.01", "--p", "2.0",
                 "--paths", "25", "--horizon", "0.1", "--replicates", "1",
                 "--seed", "4", "--arm", "adaptive",
                 "--dump-terminal", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x_T"
    assert len(lines) == 26
    float(lines[1])  # parses as a double


def test_cli_dump_terminal_requires_single_arm():
    assert main(["sde", "--target", "normal", "--h", "0.01", "--p", "2.0",
                 "--paths", "10", "--replicates", "1",
                 "--dump-terminal", "/tmp/never.csv"]) == 1


def test_cli_coeff_summary(capsys):
    code = main(["coeff", "--target", "normal", "--x", "1.0", "--theta0", "1.0",
                 "--n", "100", "--draws", "2000", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "estimate" in out and "B1" in out


def test_cli_cauchy_b2_counts_its_own_draws(monkeypatch, capsys):
    # B2 on cauchy takes four times --draws: 800 draws are refused in
    # terms of n_draws, and at --draws 999 its 3996 draws run
    argv = ["coeff", "--target", "cauchy", "--kind", "B2", "--x", "2.0", "--theta0", "1.0",
            "--n", "10000"]
    assert main([*argv, "--draws", "200"]) == 1
    assert capsys.readouterr().err == ("error: B2 on cauchy takes 4 x n_draws = 800 draws, "
                                       "fewer than 1000\n")
    widths = []

    def counted(x, lp_x, scale, eps, *args):
        widths.append(len(eps))
        return metropolis_step(x, lp_x, scale, eps, *args)

    monkeypatch.setattr(coeffs, "metropolis_step", counted)
    assert main([*argv, "--draws", "999"]) == 0
    assert sum(widths) == 3996


def fresh_python(code, *argv):
    """Run code in a fresh interpreter on this checkout's package, so that
    nothing this test process imported counts."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_statistics_module():
    # print_summary takes its medians without the statistics module, which
    # would load decimal and fractions with it
    modules = ("statistics", "_statistics", "decimal", "_decimal", "fractions")
    run = fresh_python(f"import sys, amcmc_lab.cli; "
                       f"print(*[m for m in {modules!r} if m in sys.modules])")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "\n"


_EXECUTOR_MODULES = ("concurrent.futures", "concurrent.futures.thread",
                     "concurrent.futures.process", "multiprocessing", "logging")

# Prints the executor modules loaded after `import amcmc_lab.cli`, and again
# after main(argv) when argv is given: one line each on stderr, names
# separated by spaces.
_FOOTPRINT = f"""
import sys
import amcmc_lab.cli
loaded = lambda: [m for m in {_EXECUTOR_MODULES!r} if m in sys.modules]
print(*loaded(), file=sys.stderr)
if sys.argv[1:]:
    assert amcmc_lab.cli.main(sys.argv[1:]) == 0
    print(*loaded(), file=sys.stderr)
"""


@pytest.mark.parametrize("argv,helper", [
    ([], False),
    (["discrete", "--target", "normal", "--theta0", "1", "--p", "0.5", "--n-samples", "200",
      "--burn-in", "10", "--replicates", "1", "--workers", "1"], False),
    # an Euler block and a coeff cell each open one helper thread
    (["sde", "--target", "normal", "--h", "0.01", "--p", "1", "--paths", "10",
      "--horizon", "0.1", "--replicates", "1"], True),
    (["coeff", "--target", "normal", "--kind", "B1", "--x", "0.5", "--theta0", "1",
      "--n", "100", "--draws", "1000"], True),
], ids=["import", "discrete", "sde", "coeff"])
def test_cli_loads_an_executor_only_where_a_run_opens_one(argv, helper):
    run = fresh_python(_FOOTPRINT, *argv)
    assert run.returncode == 0, run.stderr
    lines = run.stderr.splitlines()
    assert lines[0] == ""  # importing the CLI loads no executor
    if not argv:
        return
    loaded = set(lines[1].split())
    if helper:
        assert "concurrent.futures.thread" in loaded
        assert not loaded & {"concurrent.futures.process", "multiprocessing"}
    else:
        assert not loaded


def test_spec_round_trips_float_precision(tmp_path):
    # shortest round-trip decimals reload to exactly the same doubles
    rows = run_experiment(small_discrete_spec(replicates=1))
    path = tmp_path / "precision.csv"
    emit_csv(rows, path)
    reloaded = load_csv(path)
    for row, back in zip(rows, reloaded):
        assert row.d == back.d
        assert row.p_value == back.p_value
        assert row.esjd == back.esjd


def test_load_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_csv(path)


def test_discrete_rows_sorted_by_coordinates():
    spec = small_discrete_spec(theta0_grid=(2.0, 0.5), p_grid=(0.7, 0.2),
                               replicates=2, n_samples=120, burn_in=10)
    rows = run_experiment(spec)
    keys = [(row.theta0, row.arm, row.p if row.p is not None else np.inf,
             row.replicate) for row in rows]
    assert keys == sorted(keys)


class RecordingPool:
    """Stand-in for ProcessPoolExecutor: records max_workers, runs in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads, chunksize=1):
        return map(fn, payloads)


@pytest.mark.parametrize("workers,jobs,cores,expected", [
    (64, 10, 3, 3),
    (2, 10, 3, 2),
    (8, 2, 16, 2),
    (8, 10, None, None),  # unknown core count: one process, no pool
    (1, 10, 16, None),
])
def test_map_jobs_bounds_the_pool(monkeypatch, workers, jobs, cores, expected):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert experiments._map_jobs(abs, list(range(-jobs, 0)), workers) == list(range(jobs, 0, -1))
    assert RecordingPool.sizes == ([] if expected is None else [expected])


def test_many_workers_give_the_sequential_rows(monkeypatch):
    sequential = run_experiment(small_discrete_spec())
    monkeypatch.setattr(experiments, "DISCRETE_BLOCK_STEPS", 400)  # a block per chain
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run_experiment(small_discrete_spec(workers=10_000)) == sequential
    assert RecordingPool.sizes == [3]  # 4 blocks, 3 cores


def test_coeff_rows_stable_under_workers(monkeypatch):
    # two points x two resolutions: four cells for the pool of two
    spec = ExperimentSpec(mode="coeff", target="cauchy", x_grid=(0.5, 2.0),
                          theta0_grid=(1.0,), n_grid=(100, 400), n_draws=1_000, seed=2)
    sequential = run_experiment(spec)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert run_experiment(ExperimentSpec(**{**vars(spec), "workers": 2})) == sequential
    assert RecordingPool.sizes == [2]
    assert len(sequential) == 4 * 5


def test_sde_rows_stable_under_workers():
    # two meshes, so two blocks for the two worker processes
    spec = small_sde_spec(hp_cells=((0.01, 2.0), (0.02, 1.0)))
    assert run_experiment(spec) == run_experiment(small_sde_spec(
        hp_cells=((0.01, 2.0), (0.02, 1.0)), workers=2))


def test_sde_default_grid_runs_in_bounded_same_mesh_blocks(monkeypatch):
    # the blocks are recorded, not run: the default grid has 11 replicates
    blocks = []
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "_sde_block", lambda jobs: blocks.append(jobs) or [])
    spec = ExperimentSpec(mode="sde", target="cauchy", workers=2)
    assert run_experiment(spec) == []
    assert RecordingPool.sizes == [2]
    assert [job for block in blocks for job in block] == experiments.sde_jobs(spec)
    widths = [sum(job.config.n_paths for job in block) for block in blocks]
    assert max(widths) <= experiments.SDE_BLOCK_PATHS
    assert all(len({job.config.h for job in block}) == 1 for block in blocks)
    # 44 ensembles of 1000 paths at h = 1e-4 alone would make one 44 000-path
    # block.  Blocks hold whole (h, replicate) groups, of 4 ensembles at
    # h = 1e-4 and 6, 5, 6 and 8 at the other meshes: two groups to a block
    # (the eleventh alone) at h = 1e-4, one at every other mesh
    groups = [len({job.replicate for job in block}) for block in blocks]
    assert groups == [2] * 5 + [1] + [1] * 4 * 11
    assert len(blocks) == 6 + 11 + 11 + 11 + 11


def test_sde_jobs_seed_the_adaptive_cells_of_a_mesh_and_replicate_alike():
    # replicate r of every adaptive cell at h takes the seed of the first
    # adaptive cell at h, child_seed(seed, idx0, r); the standard cell keeps
    # child_seed(seed, idx, r), its own under every contract
    spec = small_sde_spec(hp_cells=((0.01, 1.0), (0.01, 2.0), (0.02, 3.0), (0.01, 0.5),
                                    (0.02, 1.5)), replicates=3, seed=9)
    seeds = {(job.config.h, job.config.p, job.replicate): job.config.seed
             for job in experiments.sde_jobs(spec)}
    cells = [(0.01, 0.5), (0.01, 1.0), (0.01, 2.0), (0.01, None),
             (0.02, 1.5), (0.02, 3.0), (0.02, None)]  # coordinate order
    first = {0.01: 0, 0.02: 4}
    assert len(seeds) == len(cells) * 3
    for idx, (h, p) in enumerate(cells):
        for r in range(3):
            assert seeds[h, p, r] == child_seed(9, idx if p is None else first[h], r)
    standard = {seed for (_, p, _), seed in seeds.items() if p is None}
    adaptive = {seed for (_, p, _), seed in seeds.items() if p is not None}
    assert len(standard) == 2 * 3 and len(adaptive) == 2 * 3  # one per (h, r)
    assert not standard & adaptive


@pytest.mark.parametrize("groups,per_block,expected", [
    ([4, 4, 4], 8, [8, 4]),
    ([5, 5, 5], 8, [5, 5, 5]),  # a group that does not fit starts a block
    ([2, 2, 1], 3, [2, 3]),  # ... and the next one may fill it
    ([3, 10, 2], 4, [3, 4, 4, 4]),  # only a group wider than a block is split
])
def test_blocks_keep_each_group_whole_unless_it_is_wider_than_a_block(groups, per_block,
                                                                        expected):
    jobs = [(g, i) for g, size in enumerate(groups) for i in range(size)]
    blocks = experiments._blocks(jobs, 1, per_block, 1, group=lambda job: job[0])
    assert [len(block) for block in blocks] == expected
    assert [job for block in blocks for job in block] == jobs
    for g, size in enumerate(groups):
        holding = [block for block in blocks if any(job[0] == g for job in block)]
        assert len(holding) == (1 if size <= per_block else math.ceil(size / per_block))


@pytest.mark.parametrize("target,workers,budget", [
    ("normal", 1, None), ("normal", 2, None), ("exp", 2, None),
    ("normal", 1, 2 * 1000),  # groups of 4 to 8 ensembles, blocks of 2: must split
])
def test_sde_blocks_split_an_h_replicate_group_only_when_they_must(monkeypatch, target,
                                                                     workers, budget):
    # the blocks are recorded, not run
    blocks = []
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "_sde_block", lambda jobs: blocks.append(jobs) or [])
    if budget is not None:
        monkeypatch.setattr(experiments, "SDE_BLOCK_PATHS", budget)
    spec = ExperimentSpec(mode="sde", target=target, workers=workers)
    assert run_experiment(spec) == []
    per_block = max(len(block) for block in blocks)
    holding = {}  # (h, replicate): the blocks that hold some of its jobs
    for i, block in enumerate(blocks):
        assert len({job.config.h for job in block}) == 1
        for job in block:
            holding.setdefault((job.config.h, job.replicate), set()).add(i)
    assert len(holding) == 5 * 11
    for (h, r), where in holding.items():
        size = sum(job.config.h == h and job.replicate == r for block in blocks for job in block)
        assert len(where) == (1 if size <= per_block else math.ceil(size / per_block))


def test_sde_rows_of_a_replicated_grid_come_in_coordinate_order_under_any_workers(
        tmp_path, monkeypatch):
    # three replicates of five cells at two meshes, packed (h, replicate,
    # cell) into blocks of at most three ensembles, so some (h, replicate)
    # groups split, and two processes share them: the rows come back sorted
    # (h, p, replicate), the same bytes as one process writes
    monkeypatch.setattr(experiments, "SDE_BLOCK_PATHS", 3 * 40)
    files = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}.csv"
        assert main(["sde", "--target", "normal", "--h", "0.01", "--h", "0.02", "--p", "1.0",
                     "--p", "2.0", "--p", "3.0", "--paths", "40", "--horizon", "0.2",
                     "--replicates", "3", "--seed", "5", "--workers", workers,
                     "--out", str(out)]) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    rows = load_csv(tmp_path / "workers1.csv")
    coordinates = [(row.h, math.inf if row.p is None else row.p, row.replicate) for row in rows]
    assert coordinates == sorted(coordinates) and len(set(coordinates)) == 2 * 4 * 3


class HalfWrite:
    """File handle that writes half of what it is given, then runs out of disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()
        return False

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_emit_csv_failing_write_keeps_previous_file(tmp_path, monkeypatch):
    rows = run_experiment(small_discrete_spec())
    # --out and the two dump destinations
    writes = {
        "rows": lambda path: emit_csv(rows, path),
        "trajectory": lambda path: cli._dump_trajectory(
            experiments.discrete_jobs(small_discrete_spec())[0], path),
        "terminal": lambda path: cli._dump_terminal(
            experiments.sde_jobs(small_sde_spec())[0], path),
    }
    for name, write in writes.items():
        path = tmp_path / name / "out.csv"
        path.parent.mkdir()
        path.write_bytes(b"previous\n")
        opened = []

        def half_open(file, *args, **kwargs):
            opened.append(file)
            return HalfWrite(open(file, *args, **kwargs))

        monkeypatch.setattr(experiments, "open", half_open, raising=False)
        with pytest.raises(OSError) as caught:
            write(path)
        assert caught.value.filename == str(path), name  # not its temp file
        assert opened and os.path.dirname(opened[0]) == str(path.parent), name
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.csv"]

        monkeypatch.undo()
        write(path)
        assert path.read_bytes() != b"previous\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.csv"]

    path = tmp_path / "rows" / "out.csv"
    assert load_csv(path) == rows
    buffer = io.StringIO()
    emit_csv(rows, buffer)
    assert buffer.getvalue() == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("target,arm,burn_in,argv", [
    # the run the dumps once failed to reproduce: the row read D = 0.01832,
    # the dumped chain 0.03705
    ("normal", "adaptive", 1_000, ["--theta0", "2.38", "--p", "0.25", "--arm", "adaptive",
                                   "--replicates", "1", "--seed", "3"]),
    ("normal", "adaptive", 100, ["--theta0", "1.0", "--p", "0.5", "--n-samples", "800",
                                 "--burn-in", "100", "--replicates", "3", "--seed", "5"]),
    ("exp", "standard", 100, ["--theta0", "10.0", "--p", "0.5", "--p", "0.25",
                              "--arm", "standard", "--n-samples", "800", "--burn-in", "100",
                              "--replicates", "2", "--seed", "6"]),
])
def test_cli_dump_trajectory_reproduces_its_row(tmp_path, target, arm, burn_in, argv):
    out, dump = tmp_path / "rows.csv", tmp_path / "trajectory.csv"
    assert main(["discrete", "--target", target, *argv, "--out", str(out),
                 "--dump-trajectory", str(dump)]) == 0
    (row,) = [r for r in load_csv(out) if r.arm == arm and r.replicate == 0]
    x = [float(line.split(",")[1])
         for line in dump.read_text(encoding="utf-8").splitlines()[1:]]
    summary = chain_summary(x, make_target(target), burn_in)
    assert (summary.d, summary.p_value, summary.esjd) == (row.d, row.p_value, row.esjd)


@pytest.mark.parametrize("arm", ["adaptive", "standard"])
def test_cli_dump_terminal_reproduces_its_row(tmp_path, arm):
    out, dump = tmp_path / "rows.csv", tmp_path / "terminal.csv"
    assert main(["sde", "--target", "exp", "--h", "0.01", "--p", "2.0", "--paths", "40",
                 "--horizon", "0.3", "--replicates", "2", "--seed", "4", "--arm", arm,
                 "--out", str(out), "--dump-terminal", str(dump)]) == 0
    (row,) = [r for r in load_csv(out) if r.replicate == 0]
    x_t = [float(v) for v in dump.read_text(encoding="utf-8").splitlines()[1:]]
    assert ks_statistic(np.array(x_t), make_target("exp")) == row.d


def test_cli_dump_needs_a_single_cell(tmp_path):
    # refused before the grid runs, so --out is not written either
    out, dump = tmp_path / "rows.csv", tmp_path / "t.csv"
    assert main(["discrete", "--target", "normal", "--theta0", "1.0", "--p", "0.5",
                 "--p", "0.25", "--n-samples", "100", "--burn-in", "10",
                 "--replicates", "1", "--out", str(out), "--dump-trajectory", str(dump)]) == 1
    assert not out.exists() and not dump.exists()


@pytest.mark.parametrize("mode,flag,parent", [
    ("discrete", "--out", "missing"),
    ("discrete", "--dump-trajectory", "missing"),
    ("discrete", "--dump-trajectory", "file"),
    ("sde", "--out", "file"),
    ("sde", "--dump-terminal", "missing"),
])
def test_cli_destination_without_a_directory_is_refused_before_any_work(
        tmp_path, monkeypatch, capsys, mode, flag, parent):
    # the run would write its rows and then fail on the dump, or fail on
    # --out after the whole grid: both are refused before any block runs
    monkeypatch.setattr(experiments, f"_{mode}_block", _no_work)
    (tmp_path / "file").write_bytes(b"")
    path = str(tmp_path / parent / "x.csv")
    out = tmp_path / "rows.csv"
    grid = {"discrete": ["--theta0", "1", "--p", "0.25", "--n-samples", "200",
                         "--burn-in", "10"],
            "sde": ["--h", "0.01", "--p", "1", "--arm", "adaptive", "--paths", "5"]}
    destinations = [flag, path] if flag == "--out" else ["--out", str(out), flag, path]
    assert main([mode, "--target", "normal", *grid[mode], "--replicates", "1",
                 *destinations]) == 1
    assert capsys.readouterr().err == \
        f"error: {flag} {path}: its directory is missing or not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("mode,flag,path", [
    ("discrete", "--out", ""),
    ("discrete", "--out", "./"),
    ("discrete", "--out", "."),
    ("discrete", "--out", "dir"),
    ("sde", "--out", "dir/"),
    ("discrete", "--dump-trajectory", ""),
    ("discrete", "--dump-trajectory", "dir"),
    ("sde", "--dump-terminal", ""),
    ("sde", "--dump-terminal", "./"),
])
def test_cli_destination_that_names_no_file_is_refused_before_any_work(
        tmp_path, monkeypatch, capsys, mode, flag, path):
    # an empty path, one that ends in a separator, or a directory would run
    # the whole grid and only then fail; "" made its temp file in the
    # parent of the working directory
    monkeypatch.setattr(experiments, f"_{mode}_block", _no_work)
    work = tmp_path / "work"
    (work / "dir").mkdir(parents=True)
    monkeypatch.chdir(work)
    grid = {"discrete": ["--theta0", "1", "--p", "0.25", "--n-samples", "200",
                         "--burn-in", "10"],
            "sde": ["--h", "0.01", "--p", "1", "--arm", "adaptive", "--paths", "5"]}
    destinations = [flag, path] if flag == "--out" else ["--out", "rows.csv", flag, path]
    assert main([mode, "--target", "normal", *grid[mode], "--replicates", "1",
                 *destinations]) == 1
    assert capsys.readouterr().err == f"error: {flag} {path!r}: names no file to write\n"
    assert [p.name for p in tmp_path.iterdir()] == ["work"]
    assert [p.name for p in work.iterdir()] == ["dir"]
    assert not any((work / "dir").iterdir())


def test_cli_failed_dump_leaves_out_as_it_was(tmp_path, monkeypatch, capsys):
    # the dump's destination becomes a directory while the grid runs (one
    # that is a directory already is refused before it), so its rename
    # fails after the grid has run: the error names the destination, not
    # its temp file, and --out keeps its previous bytes
    out, dump = tmp_path / "rows.csv", tmp_path / "dump"
    out.write_bytes(b"previous\n")

    def run_then_mkdir(spec):
        rows = experiments.run_experiment(spec)
        dump.mkdir()
        return rows

    monkeypatch.setattr(cli, "run_experiment", run_then_mkdir)
    assert main(["discrete", "--target", "normal", "--theta0", "1", "--p", "0.25",
                 "--n-samples", "200", "--burn-in", "10", "--replicates", "1",
                 "--out", str(out), "--dump-trajectory", str(dump)]) == 1
    assert capsys.readouterr().err == \
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{dump}'\n"
    assert out.read_bytes() == b"previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dump", "rows.csv"]


@pytest.mark.parametrize("argv,message", [
    (["coeff", "--n", "0"], "resolution n must be at least 1"),
    (["coeff", "--n", "-4"], "resolution n must be at least 1"),
    (["coeff", "--n", "100", "--x", "inf"], "x must be finite"),
    (["sde", "--h", "0.01", "--p", "1.0", "--horizon", "inf"],
     "horizon_t must be positive and finite"),
    (["sde", "--h", "0.01", "--p", "1.0", "--horizon", "0.1", "--theta0", "nan"],
     "theta0 must be positive and finite"),
    (["sde", "--h", "nan", "--p", "1.0", "--horizon", "0.1"],
     "h must be positive and finite"),
    (["discrete", "--theta0", "nan", "--p", "0.5"], "theta0 must be positive and finite"),
    (["discrete", "--theta0", "1.0", "--p", "0.5", "--x0", "inf"], "x0 must be finite"),
    (["sde", "--h", "1e-300", "--p", "1", "--horizon", "1e10"],
     "horizon_t/h = inf must be finite"),
    (["coeff", "--n", "100", "--p", "0.3", "--p", "0.7"], "coeff mode takes a single p"),
    # a diverged ensemble is named before it is scored
    (["sde", "--h", "0.5", "--p", "1", "--theta0", "100", "--horizon", "200",
      "--arm", "standard"], "sde cell h=0.5, arm=standard: 5 of 5 terminal values are NaN"),
    # so is a moment or limit that overflows
    (["coeff", "--n", "100", "--x", "0.5", "--theta0", "1e200"],
     "coeff cell x=0.5, theta=1e+200, p=0.5, n=100, kind B1"),
    # a whole-number n past the largest float, refused before it is converted
    (["coeff", "--n", "1" + "0" * 400, "--x", "0.5", "--theta0", "1.0"],
     "resolution n must be at most"),
    # ceil(horizon/h) steps would run past the horizon
    (["sde", "--h", "0.3", "--p", "1", "--horizon", "1"],
     "horizon_t=1.0 is not a whole number of steps of h=0.3: n_steps=4 would reach T=1.2"),
    (["sde", "--h", "0.5", "--p", "1", "--horizon", "1e-300"],
     "horizon_t=1e-300 is not a whole number of steps of h=0.5: n_steps=1 would reach T=0.5"),
])
def test_cli_rejects_non_finite_and_degenerate_input(tmp_path, capsys, argv, message):
    small = {"coeff": ["--kind", "B1", "--draws", "1000"],
             "sde": ["--paths", "5", "--replicates", "1"],
             "discrete": ["--n-samples", "100", "--burn-in", "10", "--replicates", "1"]}
    out = tmp_path / "rows.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([argv[0], "--target", "normal", *argv[1:], *small[argv[0]],
                     "--out", str(out)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_sde_jobs_take_horizons_that_are_whole_numbers_of_steps():
    # 0.3 / 0.1 is 2.9999999999999996: three steps of 0.1 reach 0.3
    (job,) = experiments.sde_jobs(small_sde_spec(hp_cells=((0.1, 1.0),), horizon_t=0.3,
                                                 replicates=1, arm="adaptive"))
    assert job.config.n_steps == 3
    # every reference mesh divides the default horizon
    for target in experiments.SDE_CELL_GRIDS:
        assert experiments.sde_jobs(ExperimentSpec(mode="sde", target=target, replicates=1))


def test_cli_runs_a_decimal_horizon(tmp_path):
    # 0.07 / 0.01 is 7.000000000000001: rounding up would take an eighth step
    out = tmp_path / "rows.csv"
    assert main(["sde", "--target", "normal", "--h", "0.01", "--p", "1", "--horizon", "0.07",
                 "--paths", "5", "--replicates", "1", "--out", str(out)]) == 0
    assert len(load_csv(out)) == 2


@pytest.mark.parametrize("mode", ["discrete", "sde", "coeff"])
def test_unset_flags_take_the_spec_defaults(mode):
    args = cli.build_parser().parse_args([mode, "--target", "normal"])
    assert cli._spec_from_args(args) == ExperimentSpec(mode=mode, target="normal")
