"""The preset registry is the one source of preset names and problem kinds."""

import argparse

import pytest

from smartsolve.cli import make_parser
from smartsolve.instances import PRESET_PROBLEM_KINDS, bundle_for
from smartsolve.problems import GENERATORS, generate, linear_system

PRESETS = sorted(PRESET_PROBLEM_KINDS)


@pytest.mark.parametrize("name", PRESETS)
def test_every_preset_builds_under_its_own_name(name):
    assert bundle_for(name, seed=0).name == name


@pytest.mark.parametrize("name,kind", [
    (name, kind) for name in PRESETS for kind in PRESET_PROBLEM_KINDS[name][0]
    if kind in GENERATORS
])
def test_every_accepted_kind_builds(name, kind):
    assert bundle_for(name, problem=generate(kind, seed=0)).name == name


@pytest.mark.parametrize("name,kind", [("saga", "linear_system"),
                                       ("mono", "linear_system"),
                                       ("finito", "lasso")])
def test_problem_of_an_unlisted_kind_is_rejected(name, kind):
    with pytest.raises(ValueError, match="takes problems of kind"):
        bundle_for(name, problem=generate(kind, seed=0))


def test_unknown_preset_is_a_key_error():
    with pytest.raises(KeyError):
        bundle_for("not-a-preset", problem=linear_system(seed=0))


def test_cli_offers_exactly_the_registered_presets():
    sub = next(a for a in make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "describe"):
        preset = next(a for a in sub.choices[command]._actions if a.dest == "preset")
        assert list(preset.choices) == PRESETS
    assert len(PRESETS) == 19 and "prox-svrg" in PRESETS
