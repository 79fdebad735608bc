"""Named system/plant presets and profile resolution."""

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
    system_preset,
    training_config,
    usage_lines,
)


def test_profiles_define_net_shapes():
    assert PROFILES["paper"].ell == 300
    assert PROFILES["paper"].hidden == (200, 200, 200)
    assert PROFILES["desk"].ell == 32
    assert PROFILES["desk"].hidden == (64, 64)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_system_presets_are_consistent(name):
    preset = system_preset(name)
    assert preset.name == name
    assert preset.n_orb >= 2
    geos = preset.geometries
    assert len(geos) >= 2
    assert all(b > a for a, b in zip(geos, geos[1:]))
    assert len(preset.refs) == 4
    for r in preset.refs:
        assert geos[0] <= r <= geos[-1]
    for coeffs in (preset.tan_one, preset.tan_two):
        rate, amplitude, center = coeffs
        assert 0 < rate < 1
        assert amplitude > 0
        assert 0 < center < 301
    for stage in (preset.bare_one, preset.eff_one, preset.bare_two, preset.eff_two):
        assert stage.epochs > 0
        assert stage.batch_size > 0
        assert stage.base_lr > 0


def test_relative_grid_systems_carry_equilibrium_length():
    assert SYSTEMS["HF"].r_eq is not None
    assert SYSTEMS["H2O"].r_eq is not None
    assert SYSTEMS["H2O"].angle_deg is not None
    assert SYSTEMS["H4"].r_eq is None
    assert SYSTEMS["HF"].units == "R/R_eq"
    assert SYSTEMS["H4"].units == "bohr"


def test_unknown_system_raises_with_known_names():
    with pytest.raises(ValueError, match="H2O"):
        system_preset("NaCl")


def test_training_config_uses_published_stage_settings():
    cfg = training_config("H4", HeadKind.BARE_TWO)
    assert cfg.stage is HeadKind.BARE_TWO
    assert (cfg.epochs, cfg.batch_size, cfg.base_lr) == (2000, 256, 0.001)
    assert cfg.ell == 300
    assert cfg.hidden == (200, 200, 200)
    assert cfg.seed == 0


def test_training_config_desk_profile_and_overrides():
    cfg = training_config(
        "H6", HeadKind.EFF_ONE, profile="desk", seed=7, epochs=12, base_lr=0.5
    )
    assert (cfg.ell, cfg.hidden) == (32, (64, 64))
    assert cfg.epochs == 12
    assert cfg.base_lr == 0.5
    assert cfg.batch_size == 2048  # untouched published value
    assert cfg.seed == 7


def test_training_config_rejects_unknown_profile():
    with pytest.raises(ValueError, match="profile"):
        training_config("H4", HeadKind.BARE_ONE, profile="pocket")


def test_training_config_resolves_plant_presets():
    for stage, settings in ((HeadKind.BARE_TWO, DESK_STAGE1), (HeadKind.EFF_ONE, DESK_STAGE2)):
        cfg = training_config("desk", stage)
        assert (cfg.ell, cfg.hidden) == (32, (64, 64))  # the desk profile by default
        assert (cfg.epochs, cfg.batch_size, cfg.base_lr) == (
            settings.epochs, settings.batch_size, settings.base_lr
        )
        assert (cfg.freeze_orbitals, cfg.kernel_polish) == (
            settings.freeze_orbitals, settings.kernel_polish
        )
    assert training_config("default-h4", HeadKind.EFF_TWO, profile="paper").ell == 300


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
