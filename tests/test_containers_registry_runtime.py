"""Registry tests."""

import pytest

from repro.containers.builder import ContainerBuilder
from repro.containers.recipe import recipe_for
from repro.containers.registry import Registry


@pytest.fixture
def registry():
    reg = Registry()
    builder = ContainerBuilder()
    for app in ("amg2023", "lammps"):
        reg.push(builder.build(recipe_for(app, "aws", gpu=False)))
    return reg


def test_push_and_tags(registry):
    assert registry.tags() == ["amg2023-aws-cpu", "lammps-aws-cpu"]


def test_pull_costs_time(registry):
    image, seconds = registry.pull("amg2023-aws-cpu", cloud="aws")
    assert seconds > 0
    assert image.tag == "amg2023-aws-cpu"
    assert registry.pulls == 1


def test_pull_unknown_tag(registry):
    with pytest.raises(KeyError):
        registry.pull("nonexistent", cloud="aws")


def test_onprem_pull_slower_than_cloud(registry):
    _, cloud_s = registry.pull("amg2023-aws-cpu", cloud="aws")
    _, onprem_s = registry.pull("amg2023-aws-cpu", cloud="p")
    assert onprem_s > cloud_s


def test_oras_artifacts(registry):
    registry.push_artifact("results/run-001.json", b'{"fom": 1.5}')
    assert registry.artifact("results/run-001.json") == b'{"fom": 1.5}'

