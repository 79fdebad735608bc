"""The benchmark's workloads: plants, training schedules and the CLI argv
of each stage of the README walkthrough.

Every plant is noise-free, so the benchmark can recompute each planted
entry exactly, and keeps its tangent argument inside the plant's
singularity-free range.  The workload seed picks the plant, training and
Suzuki seeds; everything else is fixed here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

#: the walkthrough's stages, in order
STAGES = (
    "synth", "train-bare", "finetune", "eval",
    "analyze-spectrum", "fit-tan", "suzuki-verify", "report",
)

#: Suzuki block problems, sized so the stage takes about half a second
SUZUKI = {"dim": 12, "rdim": 4, "coupling": 0.05, "trials": 100, "n_max": 12}


@dataclass(frozen=True)
class Workload:
    name: str
    system: str                 # --system of train-bare, finetune, report
    profile: str | None         # --profile of the training stages
    plant: dict                 # every PlantSpec field except the seed
    refs: tuple[float, ...]     # stage-2 reference geometries
    stage1: dict                # training overrides of train-bare
    stage2: dict                # training overrides of finetune
    test_mae_bound: float | None = None  # stage-2 test MAE bound of acceptance check 3
    frozen: bool = False        # stage 2 freezes the orbital networks

    @property
    def geometries(self) -> tuple[float, ...]:
        return tuple(sorted(self.plant["geometries"]))


def _desk_grid() -> tuple[float, ...]:
    return tuple(float(x) for x in np.linspace(1.8, 3.0, 61))


def _hf_grid() -> tuple[float, ...]:
    # the two ends of the HF range plus the four HF reference geometries,
    # which the 215-point published grid does not contain exactly
    return (0.85, 0.95, 1.35, 1.65, 1.95, 2.0)


WORKLOADS: dict[str, Workload] = {
    "desk": Workload(
        name="desk",
        system="desk",
        profile=None,
        # the `desk` plant preset
        plant=dict(
            n_orb=4, ell=32, geometries=_desk_grid(), rate=0.094,
            amplitude=0.02, center=16.0, spectrum_lo=0.2, eta=0.0, noise=0.0,
            target_rms=1.5e-3, fourier_scale=0.2, system="planted-desk",
        ),
        refs=(1.86, 2.26, 2.66, 2.96),
        # desk settings, stage-1 epochs cut from 60 000
        stage1=dict(epochs=600),
        stage2=dict(),
        test_mae_bound=1e-3,
        frozen=True,
    ),
    "data-hf": Workload(
        name="data-hf",
        system="HF",
        profile=None,
        # HF two-body amplitude and center; the published rate 1.1e-2 puts a
        # pole inside the 300-index spectrum, so the rate is 1.0e-2
        plant=dict(
            n_orb=8, ell=300, geometries=_hf_grid(),
            rate=1.0e-2, amplitude=2.0e-4, center=149.4, spectrum_lo=0.05,
            eta=0.01, noise=0.0, target_rms=0.5, fourier_scale=1.0,
            system="planted-hf",
        ),
        refs=(0.95, 1.35, 1.65, 1.95),
        # HF settings with a short schedule
        stage1=dict(epochs=2),
        stage2=dict(epochs=2),
    ),
}


def seeds_for(seed: int) -> dict[str, int]:
    """Plant, stage-1, stage-2 and Suzuki seeds drawn from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(4)
    return dict(zip(("plant", "stage1", "stage2", "suzuki"), (int(s) % 2**31 for s in state)))


def _format(value) -> str:
    if isinstance(value, (tuple, list)):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_configs(workload: Workload, directory: str) -> dict[str, str]:
    """Write the plant and training config files; return their paths."""
    paths = {}
    for key, values in (("plant", workload.plant), ("stage1", workload.stage1),
                        ("stage2", workload.stage2)):
        path = os.path.join(directory, f"{key}.cfg")
        with open(path, "w") as fh:
            fh.writelines(f"{k} = {_format(v)}\n" for k, v in values.items())
        paths[key] = path
    return paths


def stage_argv(workload: Workload, configs: dict, seeds: dict, root: str) -> list[tuple[str, list[str]]]:
    """(stage, argv) of the walkthrough writing under ``root``."""
    data = os.path.join(root, "data")
    run = os.path.join(root, "run")
    refs = ",".join(_format(r) for r in workload.refs)
    profile = ["--profile", workload.profile] if workload.profile else []
    s = SUZUKI
    argv = {
        "synth": ["--plant", "desk", "--config", configs["plant"],
                  "--seed", str(seeds["plant"]), "--out", data],
        "train-bare": ["--system", workload.system, "--body", "2", "--data", data,
                       "--config", configs["stage1"], "--seed", str(seeds["stage1"]),
                       *profile, "--out", os.path.join(run, "stage1")],
        "finetune": ["--system", workload.system,
                     "--model", os.path.join(run, "stage1", "model"), "--data", data,
                     "--refs", refs, "--config", configs["stage2"],
                     "--seed", str(seeds["stage2"]), *profile,
                     "--out", os.path.join(run, "stage2")],
        "eval": ["--model", os.path.join(run, "stage2", "model"), "--data", data,
                 "--refs", refs, "--out", os.path.join(run, "eval")],
        "analyze-spectrum": ["--bare", os.path.join(run, "stage1", "model"),
                             "--eff", os.path.join(run, "stage2", "model"),
                             "--out", os.path.join(run, "spectrum")],
        "fit-tan": ["--table", os.path.join(run, "spectrum", "eigen_differences.csv"),
                    "--out", os.path.join(run, "fit")],
        "suzuki-verify": ["--dim", str(s["dim"]), "--rdim", str(s["rdim"]),
                          "--coupling", str(s["coupling"]), "--trials", str(s["trials"]),
                          "--n-max", str(s["n_max"]), "--seed", str(seeds["suzuki"]),
                          "--out", os.path.join(run, "suzuki")],
        "report": ["--system", workload.system, "--run", run,
                   "--out", os.path.join(run, "report")],
    }
    return [(stage, [stage, *argv[stage]]) for stage in STAGES]
