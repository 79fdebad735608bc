"""Named system/plant presets and training-config resolution."""

import dataclasses

import pytest

from tanfold.heads import HeadKind
from tanfold.presets import (
    DESK_REFS,
    DESK_STAGE1,
    DESK_STAGE2,
    PLANT_PRESETS,
    PROFILES,
    SYSTEMS,
    plant_preset,
    training_config,
    usage_lines,
)
from tanfold.training import TrainConfig


def test_profiles_define_net_shapes():
    assert PROFILES["paper"].ell == 300
    assert PROFILES["paper"].hidden == (200, 200, 200)
    assert PROFILES["desk"].ell == 32
    assert PROFILES["desk"].hidden == (64, 64)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_system_presets_are_consistent(name):
    preset = SYSTEMS[name]
    assert preset.name == name
    assert preset.n_orb >= 2
    geos = preset.geometries
    assert len(geos) >= 2
    assert all(b > a for a, b in zip(geos, geos[1:]))
    assert len(preset.refs) == 4
    for r in preset.refs:
        assert geos[0] <= r <= geos[-1]
    for stage in HeadKind:
        cfg = getattr(preset, stage.name.lower())
        assert isinstance(cfg, TrainConfig) and cfg.stage is stage
        assert (cfg.ell, cfg.hidden) == (PROFILES["paper"].ell, PROFILES["paper"].hidden)
        assert cfg.epochs > 0
        assert cfg.batch_size > 0
        assert cfg.base_lr > 0


def test_relative_grid_systems_use_relative_units():
    assert SYSTEMS["HF"].units == "R/R_eq"
    assert SYSTEMS["H2O"].units == "R/R_eq"
    assert SYSTEMS["H4"].units == "bohr"
    assert SYSTEMS["H6"].units == "bohr"


#: every resolved stage, every field: system or plant, stage, epochs,
#: batch_size, base_lr, seed, ell, hidden, freeze_orbitals, kernel_polish.
#: The named systems' epochs, batch sizes and learning rates are the
#: published ones, at the paper network size; the plants take the desk
#: settings.
_RESOLVED = [
    ("H4", HeadKind.BARE_ONE, 8000, 128, 0.001, 0, 300, (200, 200, 200), False, False),
    ("H4", HeadKind.EFF_ONE, 500, 2048, 0.001, 0, 300, (200, 200, 200), False, False),
    ("H4", HeadKind.BARE_TWO, 2000, 256, 0.001, 0, 300, (200, 200, 200), False, False),
    ("H4", HeadKind.EFF_TWO, 500, 128, 0.0002, 0, 300, (200, 200, 200), False, False),
    ("H6", HeadKind.BARE_ONE, 8000, 128, 0.001, 0, 300, (200, 200, 200), False, False),
    ("H6", HeadKind.EFF_ONE, 500, 2048, 0.0001, 0, 300, (200, 200, 200), False, False),
    ("H6", HeadKind.BARE_TWO, 2000, 1024, 0.001, 0, 300, (200, 200, 200), False, False),
    ("H6", HeadKind.EFF_TWO, 500, 128, 0.0002, 0, 300, (200, 200, 200), False, False),
    ("HF", HeadKind.BARE_ONE, 8000, 1024, 0.002, 0, 300, (200, 200, 200), False, False),
    ("HF", HeadKind.EFF_ONE, 500, 512, 0.02, 0, 300, (200, 200, 200), False, False),
    ("HF", HeadKind.BARE_TWO, 2000, 1024, 0.001, 0, 300, (200, 200, 200), False, False),
    ("HF", HeadKind.EFF_TWO, 500, 512, 0.0002, 0, 300, (200, 200, 200), False, False),
    ("H2O", HeadKind.BARE_ONE, 2000, 256, 0.0002, 0, 300, (200, 200, 200), False, False),
    ("H2O", HeadKind.EFF_ONE, 500, 1024, 0.001, 0, 300, (200, 200, 200), False, False),
    ("H2O", HeadKind.BARE_TWO, 5000, 1024, 0.001, 0, 300, (200, 200, 200), False, False),
    ("H2O", HeadKind.EFF_TWO, 500, 4096, 0.0002, 0, 300, (200, 200, 200), False, False),
    ("default-h4", HeadKind.BARE_ONE, 60000, 4096, 0.005, 0, 32, (64, 64), False, True),
    ("default-h4", HeadKind.EFF_ONE, 500, 4096, 0.002, 0, 32, (64, 64), True, True),
    ("default-h4", HeadKind.BARE_TWO, 60000, 4096, 0.005, 0, 32, (64, 64), False, True),
    ("default-h4", HeadKind.EFF_TWO, 500, 4096, 0.002, 0, 32, (64, 64), True, True),
    ("desk", HeadKind.BARE_ONE, 60000, 4096, 0.005, 0, 32, (64, 64), False, True),
    ("desk", HeadKind.EFF_ONE, 500, 4096, 0.002, 0, 32, (64, 64), True, True),
    ("desk", HeadKind.BARE_TWO, 60000, 4096, 0.005, 0, 32, (64, 64), False, True),
    ("desk", HeadKind.EFF_TWO, 500, 4096, 0.002, 0, 32, (64, 64), True, True),
]


def test_resolved_table_covers_every_field_system_plant_and_stage():
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "stage", "epochs", "batch_size", "base_lr", "seed", "ell", "hidden",
        "freeze_orbitals", "kernel_polish"]
    assert [row[:2] for row in _RESOLVED] == [
        (name, stage) for name in [*SYSTEMS, *PLANT_PRESETS] for stage in HeadKind]


@pytest.mark.parametrize("row", _RESOLVED, ids=lambda row: f"{row[0]}-{row[1].value}")
def test_training_config_resolves_every_field(row):
    name, *fields = row
    assert dataclasses.astuple(training_config(name, fields[0])) == tuple(fields)


def test_training_config_uses_published_stage_settings():
    cfg = training_config("H4", HeadKind.BARE_TWO)
    assert cfg.stage is HeadKind.BARE_TWO
    assert (cfg.epochs, cfg.batch_size, cfg.base_lr) == (2000, 256, 0.001)
    assert cfg.ell == 300
    assert cfg.hidden == (200, 200, 200)
    assert cfg.seed == 0


def test_training_config_desk_profile_and_overrides():
    desk = PROFILES["desk"]
    cfg = training_config(
        "H6", HeadKind.EFF_ONE, seed=7, epochs=12, base_lr=0.5, ell=desk.ell, hidden=desk.hidden
    )
    assert (cfg.ell, cfg.hidden) == (32, (64, 64))
    assert cfg.epochs == 12
    assert cfg.base_lr == 0.5
    assert cfg.batch_size == 2048  # untouched published value
    assert cfg.seed == 7


def test_training_config_resolves_plant_presets():
    for stage, settings in ((HeadKind.BARE_TWO, DESK_STAGE1), (HeadKind.EFF_ONE, DESK_STAGE2)):
        cfg = training_config("desk", stage)
        assert (cfg.ell, cfg.hidden) == (PROFILES["desk"].ell, PROFILES["desk"].hidden)
        assert cfg == dataclasses.replace(settings, stage=stage)
    paper = PROFILES["paper"]
    cfg = training_config("default-h4", HeadKind.EFF_TWO, ell=paper.ell, hidden=paper.hidden)
    assert (cfg.ell, cfg.hidden, cfg.epochs) == (300, (200, 200, 200), DESK_STAGE2.epochs)


def test_training_config_unknown_system_lists_systems_and_plants():
    with pytest.raises(ValueError, match="H4.*desk"):
        training_config("XYZ", HeadKind.BARE_TWO)


def test_plant_presets_resolve():
    desk = plant_preset("desk")
    assert desk.ell == 32
    assert desk.n_orb == 4
    assert len(desk.geometries) == 61
    assert desk.noise == 0.0
    full = plant_preset("default-h4")
    assert full.ell == 300
    assert (full.rate, full.amplitude, full.center) == (1.0e-2, 0.6e-4, 149.8)
    with pytest.raises(ValueError, match="desk"):
        plant_preset("shed")


def test_desk_refs_lie_on_desk_grid():
    desk = plant_preset("desk")
    grid = desk.geometries
    for r in DESK_REFS:
        assert min(abs(g - r) for g in grid) < 1e-12


def test_presets_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SYSTEMS["H4"].n_orb = 5


def test_usage_lines_mention_every_preset():
    text = "\n".join(usage_lines())
    for name in list(SYSTEMS) + list(PLANT_PRESETS) + list(PROFILES):
        assert name in text
