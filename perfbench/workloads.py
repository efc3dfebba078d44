"""The four benchmark workloads: the pggsim commands they run and how each output is checked.

Every workload is one closed-loop batch command of the `pggsim` CLI at a
documented size. `argv(seed, outdir)` is everything the program receives;
the seed only reaches the stochastic commands, so `ode-long` and
`sweep-wide` run the same inputs for every seed and their output files must
stay byte-identical to the digests recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass

import checks

# Model defaults of the stochastic workloads (README configuration table);
# the abm invariants bound mean_payoff with them.
_GAME = {"N": 5, "c": 1.0, "r": 3.0, "g": 0.5}


@dataclass(frozen=True)
class Workload:
    """One command: `args` go to `pggsim`, and each run does `work` units of `work_unit`.

    Exactly one of `digests` (file name -> SHA-256 of deterministic output)
    and `abm` (the M and t of the invariant check) is set.
    """

    name: str
    args: tuple[str, ...]
    seeded: bool
    csv: str
    svg: str | None
    work: int
    work_unit: str
    digests: dict | None = None
    abm: dict | None = None

    def argv(self, seed: int, outdir: str) -> list[str]:
        argv = list(self.args)
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--out", f"{outdir}/{self.csv}"]

    def check(self, outdir) -> list[str]:
        """Problems found in the files this workload wrote; empty when the output is valid."""
        if self.digests is not None:
            return checks.check_digests(outdir, self.digests)
        return checks.check_abm_csv(outdir / self.csv, **self.abm, **_GAME)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ode-long",
            args=("ode", "--set", "steps=200000", "--plot"),
            seeded=False,
            csv="ode.csv",
            svg="ode.svg",
            work=200_000,
            work_unit="steps",
            digests={
                "ode.csv": "ce40aca95d5035796f365a452844f6cf42ca883021318780db9aadb477428617",
                "ode.svg": "8cee0cd9a0f243faf8061862fb4a10d2a8d363c9ff929b4b1fa748f45057fe7b",
            },
        ),
        Workload(
            name="sweep-wide",
            args=(
                "sweep", "--set", "mode=network", "--set", "steps=2000",
                "--grid", "r=1.5,2.5,3.5,4.5", "--grid", "g=0.25,0.5,1.0,3.0",
                "--grid", "u=1e-10,1e-6,1e-3,1e-2", "--grid", "density=0.25,0.5,0.75,1.0",
            ),
            seeded=False,
            csv="sweep.csv",
            svg=None,
            work=256 * 2000,
            work_unit="point-steps",
            digests={
                "sweep.csv": "8fc1cae8f28f3a075d4f0f4c08ad1421699bc5503bd3ab521390b00b8a11bcd3",
            },
        ),
        Workload(
            name="abm-default",
            args=("abm", "--set", "t=10000"),
            seeded=True,
            csv="abm.csv",
            svg=None,
            work=100 * 10_000,
            work_unit="events",
            abm={"M": 100, "t": 10_000},
        ),
        Workload(
            name="abm-explore",
            args=("abm", "--set", "M=1000", "--set", "pe=0.05", "--set", "t=1000"),
            seeded=True,
            csv="abm.csv",
            svg=None,
            work=1000 * 1000,
            work_unit="events",
            abm={"M": 1000, "t": 1000},
        ),
    )
}
