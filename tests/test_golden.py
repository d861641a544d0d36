"""Golden digests of the CLI CSVs and of chain trajectories.

Every digest was taken from the package before the chains moved onto the
float fast path, and is pinned: any change in a random stream, a
log-density bit or a CSV field shows up here as a different sha256.

The five sde-* CLI digests are the one exception.  They were regenerated
with the Euler ensembles' one-stream contract: an ensemble draws its
increments step-major from stream_rng(seed) instead of one stream per
path, so every sde row changed.  The discrete, coeff and trajectory
digests are the original pins.
"""

import hashlib

import pytest

from amcmc_lab import (
    AdaptiveConfig,
    EmbeddedConfig,
    make_target,
    run_amcmc,
    run_embedded,
    run_smcmc,
)
from amcmc_lab.cli import main

_DISCRETE = ("--theta0", "1.0", "--theta0", "10.0", "--p", "0.25", "--p", "0.5",
             "--n-samples", "600", "--burn-in", "100", "--replicates", "2")
_SDE = ("--h", "0.01", "--p", "2.0", "--p", "5.0", "--paths", "50", "--horizon", "0.5",
        "--replicates", "2")
_COEFF = ("--x", "0.5", "--x", "2.0", "--theta0", "1.0", "--n", "100", "--n", "10000",
          "--draws", "2000")

CLI_CASES = {
    f"{mode}-{target}{suffix}": (mode, target, extra)
    for mode, grid in (("discrete", _DISCRETE), ("sde", _SDE), ("coeff", _COEFF))
    for target in ("normal", "cauchy", "t2", "exp")
    for suffix, extra in [("", grid)] + ([("-hold", grid + ("--boundary", "hold"))]
                                         if (mode, target) == ("sde", "exp") else [])
}

CLI_DIGESTS = {
    "coeff-cauchy":
        "0e48898e13b4ce6fc317c633e07be5956e4e68cdb6adb253b3de99bec77c5ff4",
    "coeff-exp":
        "2d1b2415f855d41532742ec334394be89c27080e5d6be7886d0ef028eb7a6bcd",
    "coeff-normal":
        "17e0bc27df512d9f07b2f34e509079bc97c9ab6d9034db0b67ecf2ee62646a08",
    "coeff-t2":
        "2fe6f0958c1caf1865f598e12100423df8a6f720ebd28345623e620d90ecd085",
    "discrete-cauchy":
        "33a40c4daacbe525beff9299318b1d264a392b6955d164037af7eaaf2440b57d",
    "discrete-exp":
        "17ec99529cfb851999303cdf41c2aa76f7a27140e917ce410a7c42869f0f1608",
    "discrete-normal":
        "6519e0af113f8c5bc4fa15d22f01f2ec6d3309a1d0407528e83f6eebf694140c",
    "discrete-t2":
        "31108f00cac8f1e89c0ad330eae5a3a003bcd782b06a49d9712fa9ce555c1d46",
    "sde-cauchy":
        "9b9c504c52a5867378a889269896bbd055fe71037cdda493ee8f934c4434ab5a",
    "sde-exp":
        "311af4847a217fd064a5ce4a037b6291c889157db063dcf5dd359d23e16afbab",
    "sde-exp-hold":
        "2ba4cf8f87d3b3eb0e7b1b17fb165e0544e5978e595375561eb2b132ae6e54b0",
    "sde-normal":
        "eb1cb5a37c34be3de611e2e5cc1bb75b1629fd4c601fc75766f852636c2cc5da",
    "sde-t2":
        "5e5955bfc9b74a906e8bedbaf611bea5691283c1415e00ed0fd39bd70830886c",
}

TRAJECTORY_DIGESTS = {
    "amcmc-cauchy":
        "b937a2096dbffe9a91d91f91396293527970bd01019cb5b7c4121886e9a264b9",
    "amcmc-exp":
        "f1dd9a648e808efd32a9eb5fee298e93f2505d066dff3efcb6e27137ad9d35ed",
    "amcmc-exp-off-support":
        "7e667798cd23f42bc04010bdf4f77da32ec94e4dd205685ddb033cdade3e5ce3",
    "amcmc-normal":
        "014af6fc8ab238e9ee107d80764edceb4c89b65a7078f6f5c41edc180f17886c",
    "amcmc-t2":
        "618744bb31104b68918c859f712c8a4fb7d55e7324980393d60cd865acd68f9b",
    "embedded-adaptive-cauchy":
        "0d195b14506a895749f73cb843186b2a1f23f93c7fd6265a8f5bf2c060e37ddb",
    "embedded-adaptive-exp":
        "14897f955cc420aa0c5013c1d8fd187f3b979e4e4a6448d8bbd15effa52f37ed",
    "embedded-adaptive-normal":
        "7b229bb4e4c3edab154271c2287ab5a1164bc0696190ed18f17fdcda98c82c9d",
    "embedded-adaptive-t2":
        "9e0d6b9dc788eeff7e72b56e865fac953aede66fd527bf4f51063c2d3679d35a",
    "embedded-fixed-cauchy":
        "69d596540d5d2b2b419715fa6ca09b9f0dd2b3fe4086143aa066cb3d4ec6a0a4",
    "embedded-fixed-exp":
        "00f200ab4b1c2461e25b916d0e075fd624943a103b6f65153ccf70437d6a26e8",
    "embedded-fixed-normal":
        "d40c4fa24a12d43bad0443b7c3bcd5c95b7947d96b5143f36f3b8e59b5a202ba",
    "embedded-fixed-t2":
        "0621aebeb39f2f1773c76dc03001d6089e53adb1b87d50c4df4576bf1a4f976a",
    "smcmc-cauchy":
        "88f8507cc332f36c594ef3d1ef24618a0863a22fa97e7d3e2d7e8153f5529867",
    "smcmc-exp":
        "63ea943a60b015ee03200006797ce03650fec6ef9457ed30b83e2003d0af02a5",
    "smcmc-exp-off-support":
        "83782583be36a6d9fefb2decff15bdc0bc4367c368eebebe5a99c63081978cab",
    "smcmc-normal":
        "05c07224035daec6cf9d8cb358f247c89c1d3ea557b9d4bea8879bfab88759a4",
    "smcmc-t2":
        "3dec00d7633914124242f8ddf9a1ca91e251cedda2a9ea075ab5ff1cf690fb60",
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


def _x0(kind):
    return 1.0 if kind == "exp" else -0.5


def trajectory_runs():
    """Named chains of every runner on every target, with the odd start."""
    runs = {}
    for kind in ("normal", "cauchy", "t2", "exp"):
        target = make_target(kind)
        config = AdaptiveConfig(p=0.3, theta0=2.0, x0=_x0(kind), n_samples=700, seed=5)
        runs[f"amcmc-{kind}"] = lambda c=config, t=target: run_amcmc(c, t)
        runs[f"smcmc-{kind}"] = lambda c=config, t=target: run_smcmc(c, t)
        for adaptive in (True, False):
            embedded = EmbeddedConfig(n_resolution=100, horizon_t=6.0, p=1.0, theta0=1.5,
                                      x0=_x0(kind), seed=8, adaptive=adaptive)
            name = f"embedded-{'adaptive' if adaptive else 'fixed'}-{kind}"
            runs[name] = lambda c=embedded, t=target: run_embedded(c, t)
    # a start off the exponential's support: every ratio reads -inf or nan
    off = AdaptiveConfig(p=0.3, theta0=0.4, x0=-0.5, n_samples=200, seed=6)
    runs["smcmc-exp-off-support"] = lambda: run_smcmc(off, make_target("exp"))
    runs["amcmc-exp-off-support"] = lambda: run_amcmc(off, make_target("exp"))
    return runs


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_csv_digest(tmp_path, case):
    assert cli_digest(tmp_path, *CLI_CASES[case]) == CLI_DIGESTS[case]


@pytest.mark.parametrize("case", ["coeff-normal", "discrete-normal", "sde-normal"])
def test_cli_csv_digest_under_workers(tmp_path, case):
    mode, target, extra = CLI_CASES[case]
    assert cli_digest(tmp_path, mode, target, (*extra, "--workers", "2")) == CLI_DIGESTS[case]


@pytest.mark.parametrize("name", sorted(trajectory_runs()))
def test_trajectory_digest(name):
    trajectory = trajectory_runs()[name]()
    assert _sha256(trajectory.x, trajectory.theta, trajectory.xi) == TRAJECTORY_DIGESTS[name]
