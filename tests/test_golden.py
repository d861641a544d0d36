"""Golden digests of the CLI CSVs and of chain trajectories.

The coeff-* digests were taken from the package before the chains moved
onto the float fast path, and are pinned: any change in a random stream, a
log-density bit or a CSV field shows up here as a different sha256.  Their
2000 draws are one piece of one batch, so coeff-cauchy-batches, a full
batch and a partial one of uneven pieces, was added, taken while each
batch was still summed as one whole array.

Four stream-contract changes regenerated the rest, each declared in
CHANGES.md:

* coeff-cauchy-batches, with coefficient contract v2: each piece of a
  batch draws its normals and then its uniforms, where v1 drew all of the
  batch's normals first.  A one-piece batch draws in the same order under
  both, so the other coeff-* digests held.

* The five sde-* CLI digests, with the Euler ensembles' one-stream
  contract: an ensemble draws its increments step-major from
  stream_rng(seed) instead of one stream per path, so every sde row
  changed.
* sde-cauchy, sde-exp, sde-normal, sde-normal-adaptive and sde-t2, with
  Euler contract v3: every adaptive cell of one (h, replicate) takes the
  seed of the mesh's first adaptive cell, so the rows of the other
  adaptive cells changed.  sde-normal-standard and the terminal-*
  dumps hold single-cell or standard grids, whose seeds did not move.
  SEED_KEPT_DIGESTS pins the rows whose seeds v3 kept, taken before it.
* The four discrete-* CLI digests and the amcmc-* and smcmc-* trajectory
  digests, with discrete contract v2: a chain draws its normals from
  stream_rng(seed, 0) and its uniforms from stream_rng(seed, 1) instead of
  both, interleaved, from one stream, and retunes theta with numpy's exp
  and log rather than the math module's.  Every discrete chain changed.

Those discrete digests hold numpy's float64 exp and log bits, and numpy
picks those loops at run time from the CPU's features (AVX-512 code where
the CPU has it, the C library's functions otherwise).  They were taken with
numpy 2.4.6 on an x86-64 CPU where numpy.show_runtime() lists X86_V3,
X86_V4, AVX512_ICL and AVX512_SPR as found; on a CPU without AVX-512 they
may differ.  The CI workflow prints numpy.show_runtime() before the tests,
so a digest failure on a runner can be read against the runner's dispatch.

The one-arm digests of the discrete and sde normal grids and DUMP_DIGESTS
were added, taken before each grid mode's arms became cells through one
rule and before the dumped chain ran through run_chains: those paths were
rewritten to keep these bytes.
"""

import concurrent.futures
import hashlib
import os

import pytest

from amcmc_lab import AdaptiveConfig, experiments, make_target, run_chains
from amcmc_lab.cli import main

_DISCRETE = ("--theta0", "1.0", "--theta0", "10.0", "--p", "0.25", "--p", "0.5",
             "--n-samples", "600", "--burn-in", "100", "--replicates", "2")
_SDE = ("--h", "0.01", "--p", "2.0", "--p", "5.0", "--paths", "50", "--horizon", "0.5",
        "--replicates", "2")
_COEFF = ("--x", "0.5", "--x", "2.0", "--theta0", "1.0", "--n", "100", "--n", "10000",
          "--draws", "2000")

CLI_CASES = {
    f"{mode}-{target}": (mode, target, grid)
    for mode, grid in (("discrete", _DISCRETE), ("sde", _SDE), ("coeff", _COEFF))
    for target in ("normal", "cauchy", "t2", "exp")
}
# The bench coeff workload's scale: batches of several pieces each.
CLI_CASES["coeff-cauchy-batches"] = ("coeff", "cauchy", ("--x", "2.0", "--theta0", "1.0",
                                                         "--n", "100", "--draws", "600000"))
# Each arm on its own.  experiments._jobs numbers the cells of a one-arm
# grid among that arm alone, so these seeds are not the two-arm grid's.
for _mode, _grid in (("discrete", _DISCRETE), ("sde", _SDE)):
    for _arm in ("adaptive", "standard"):
        CLI_CASES[f"{_mode}-normal-{_arm}"] = (_mode, "normal", _grid + ("--arm", _arm))

# Single-cell grids whose replicate 0 a dump writes: a discrete chain's
# trajectory, an sde ensemble's terminal sample.
_DUMPS = {
    "trajectory": ("discrete", "--dump-trajectory",
                   ("--theta0", "1.0", "--p", "0.5", "--n-samples", "600", "--burn-in", "100",
                    "--replicates", "2")),
    "terminal": ("sde", "--dump-terminal",
                 ("--h", "0.01", "--p", "5.0", "--paths", "50", "--horizon", "0.5",
                  "--replicates", "2")),
}

CLI_DIGESTS = {
    "coeff-cauchy":
        "0e48898e13b4ce6fc317c633e07be5956e4e68cdb6adb253b3de99bec77c5ff4",
    "coeff-cauchy-batches":
        "2c4f356e0b62a3c13f9e2a4bac11f38fbd9cef10b43adeaccca5a87540020fed",
    "coeff-exp":
        "2d1b2415f855d41532742ec334394be89c27080e5d6be7886d0ef028eb7a6bcd",
    "coeff-normal":
        "17e0bc27df512d9f07b2f34e509079bc97c9ab6d9034db0b67ecf2ee62646a08",
    "coeff-t2":
        "2fe6f0958c1caf1865f598e12100423df8a6f720ebd28345623e620d90ecd085",
    "discrete-cauchy":
        "440cf5fb18797b7be9e96943616f9af18f79c5f1acb8125481fda3ccd484447b",
    "discrete-exp":
        "f9de39667e06fd9e532b86e0ea279c765f97e4c5f77af52b471e54428a48d24e",
    "discrete-normal":
        "dd91f1b2d59e47fcca32bbbd78aef2c6eee10d6c1ef22fd68633944543090409",
    "discrete-normal-adaptive":
        "fb4ec3c16afe6a35b1e71d13e8b79eed147d755de3c1efc38535a777ec49512b",
    "discrete-normal-standard":
        "291651942ad95507ad9705b45f8fd5fc848ce75866f375eddd5255547187b6d7",
    "discrete-t2":
        "70a9c5c1be4562d99d9a5d54cc61c6c8fc87759f5a85cb5244f6ee5db0f3e947",
    "sde-cauchy":
        "fc68f5b9ecf1e350198cb03382142f21781013b8c82ce62b08a9a90c6dc96f38",
    "sde-exp":
        "bc3fd47be5366e42f941e44962a161d8828bf4e2cfd427d6970ea5c262892527",
    "sde-normal":
        "7381547833237cc46be8f23462c046c78e9208e9d049705808a2bd3cf08e83fe",
    "sde-normal-adaptive":
        "2730725d1b023e5d54cacad0029d9bbbbf8fd2712b5976c270cacd8ea7bc71f7",
    "sde-normal-standard":
        "654eed4c4dd63b6776ac6220df054b47abd462c148fcc5f66b29b012d377d7b0",
    "sde-t2":
        "540a9a64c411cb13273bede4ae1806b1f3f1e732f03aff42346c6aa392979674",
}

# The digest of a CLI CSV projected onto its standard rows and the rows of
# each mesh's first adaptive cell (see seed_kept_lines): the rows whose
# seeds Euler contract v3 kept.  Taken before v3, from the full CSV.
SEED_KEPT_DIGESTS = {
    "sde-normal":
        "ae77fbde7f0a27f8ad8545a3f3025c4755e075f05768c14cc7a92952de39a784",
}

DUMP_DIGESTS = {
    "terminal-adaptive":
        "5d171e1d1fe0f3a86c8381243d533c25c1b2f502ead1d4d2676699b9772b269a",
    "terminal-standard":
        "1e1ae05e6aad9224a6b93a170a28dcc815b98bf9458654d6425f25576edd0cdc",
    "trajectory-adaptive":
        "73ceeae523b277130a8aea89b25640a764d5e2134edd003504af1020fe4739d1",
    "trajectory-standard":
        "c9f3896f68101fa8703ca18925311d05decf9c297bdec79284bedcdf913c9d23",
}

TRAJECTORY_DIGESTS = {
    "amcmc-cauchy":
        "2d8a275b8f75aca81534c89e7acc97ea59e1d4dd4e6be8c39d6d11fd0a93a91a",
    "amcmc-exp":
        "809629f632668c5fb40eb99785f0281c2eece31a86b6ee2b73506ac0613a0850",
    "amcmc-exp-off-support":
        "b9f6b3491cbc4fd301a0866dfd64ccbf2ad1ef759f3b321ecac3ce914dc4f23b",
    "amcmc-normal":
        "d53cbdb68e3ac24abd07d44defcb2dbeda5c0e02cec94565309b7b58374b3a53",
    "amcmc-t2":
        "b9eb7f742618115d711f19ce171bb48c14b3517dbb6bee932914e6236e2c9ddb",
    "smcmc-cauchy":
        "55f5269a43df185de224cd95c792fd8fdcc822f747c926b121b0a985603c1ba3",
    "smcmc-exp":
        "1a126790137b0ea303fab5e56637d84feeffad2acabc8b28a88cc07d5b901485",
    "smcmc-exp-off-support":
        "1415d71bab502f0fe69197945639e2485ba96f3286d35d5ca0bdafad6060d4b4",
    "smcmc-normal":
        "7c0381b3f71d529570aa0289643c1ff2f3d4afc73b1fc9ee75066268f2c34eba",
    "smcmc-t2":
        "05cb06ace71536cb61285862b82aec1970001a43345f7ee0a1ad5ea0d5aa4029",
}


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def cli_digest(tmp_path, mode, target, extra) -> str:
    out = tmp_path / "out.csv"
    argv = [mode, "--target", target, "--seed", "11", *extra, "--out", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def seed_kept_lines(lines):
    """The header and the sde rows whose seed is child_seed(seed, idx, r)
    for their own cell index idx under every Euler contract: the standard
    rows and those of the first adaptive p at each h."""
    first_p = {}
    kept = [lines[0]]
    for line in lines[1:]:
        _, _, arm, h, p, *_ = line.split(",")
        if arm == "standard" or first_p.setdefault(h, p) == p:
            kept.append(line)
    return kept


def dump_digest(tmp_path, name) -> str:
    kind, arm = name.split("-")
    mode, flag, grid = _DUMPS[kind]
    dump = tmp_path / "dump.csv"
    argv = [mode, "--target", "normal", "--seed", "11", *grid, "--arm", arm, flag, str(dump)]
    assert main(argv) == 0
    return hashlib.sha256(dump.read_bytes()).hexdigest()


def _x0(kind):
    return 1.0 if kind == "exp" else -0.5


def trajectory_configs():
    """Named chains of both arms on every target, with the odd start:
    amcmc-* adapts to the benchmark 0.3, smcmc-* keeps its scale fixed."""
    configs = {}
    for arm, p in (("amcmc", 0.3), ("smcmc", None)):
        for kind in ("normal", "cauchy", "t2", "exp"):
            configs[f"{arm}-{kind}"] = kind, AdaptiveConfig(p=p, theta0=2.0, x0=_x0(kind),
                                                            n_samples=700, seed=5)
        # a start off the exponential's support: every ratio reads -inf or nan
        configs[f"{arm}-exp-off-support"] = "exp", AdaptiveConfig(p=p, theta0=0.4, x0=-0.5,
                                                                  n_samples=200, seed=6)
    return configs


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_csv_digest(tmp_path, case):
    assert cli_digest(tmp_path, *CLI_CASES[case]) == CLI_DIGESTS[case]


@pytest.mark.parametrize("case", ["coeff-normal", "discrete-normal", "sde-normal"])
def test_cli_csv_digest_under_workers(tmp_path, monkeypatch, case):
    # budgets of three chains and of two ensembles, so that every grid spans
    # several blocks and a pool of two worker processes really shares them
    monkeypatch.setattr(experiments, "DISCRETE_BLOCK_STEPS", 3 * 600)
    monkeypatch.setattr(experiments, "SDE_BLOCK_PATHS", 2 * 50)
    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    mode, target, extra = CLI_CASES[case]
    assert cli_digest(tmp_path, mode, target, (*extra, "--workers", "2")) == CLI_DIGESTS[case]
    assert pools == [{"max_workers": 2}] or os.cpu_count() == 1


@pytest.mark.parametrize("case", sorted(SEED_KEPT_DIGESTS))
def test_cli_csv_rows_whose_seeds_were_kept(tmp_path, case):
    mode, target, extra = CLI_CASES[case]
    out = tmp_path / "out.csv"
    assert main([mode, "--target", target, "--seed", "11", *extra, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    kept = seed_kept_lines(lines)
    assert {line.split(",")[2] for line in lines[1:]} == {"adaptive", "standard"}
    assert 1 < len(kept) - 1 < len(lines) - 1  # some rows kept, some dropped
    digest = hashlib.sha256(("\n".join(kept) + "\n").encode("utf-8")).hexdigest()
    assert digest == SEED_KEPT_DIGESTS[case]


@pytest.mark.parametrize("name", sorted(DUMP_DIGESTS))
def test_dump_digest(tmp_path, name):
    assert dump_digest(tmp_path, name) == DUMP_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(trajectory_configs()))
def test_trajectory_digest(name):
    kind, config = trajectory_configs()[name]
    (trajectory,) = run_chains(make_target(kind), [config])
    assert _sha256(trajectory.x, trajectory.theta, trajectory.xi) == TRAJECTORY_DIGESTS[name]
