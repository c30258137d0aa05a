"""Shared fixtures: CLI runner, schema validation, profile generators."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

import diracbound as db

# Property tests draw the same examples on every run and have no
# per-example deadline, so a slow shared host cannot make them flaky.
settings.register_profile("diracbound", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("diracbound")

SCHEMA_NAMES = (
    "profile.v1",
    "manifold_spec.v1",
    "bound_report_set.v1",
    "ode_summary.v1",
    "verify_summary.v1",
    "catalog_list.v1",
)


@pytest.fixture(scope="session")
def schema_validator():
    """name -> callable validating a document against the shipped schema."""
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource
    from referencing.jsonschema import DRAFT202012

    schemas = {name: db.load_schema(name) for name in SCHEMA_NAMES}
    registry = Registry().with_resources(
        (s["$id"], Resource.from_contents(s, default_specification=DRAFT202012))
        for s in schemas.values())

    def validate(name, document):
        Draft202012Validator(schemas[name], registry=registry).validate(document)

    return validate


@pytest.fixture
def run_cli():
    """Invoke the installed CLI in a subprocess and capture everything."""

    def run(*argv, expect=None):
        proc = subprocess.run([sys.executable, "-m", "diracbound", *argv],
                              capture_output=True, text=True)
        if expect is not None:
            assert proc.returncode == expect, (
                f"exit {proc.returncode}, wanted {expect}\n"
                f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
        return proc

    return run


def spectrum_profile(eigs):
    """Profile whose summaries are recomputed from an eigenvalue list."""
    eigs = np.asarray(eigs, dtype=float)
    return db.make_profile(len(eigs), float(eigs.sum()), float(eigs.min()),
                           float((eigs**2).sum()), eigs)


def random_spectrum_profile(rng, n, scalar=None):
    """Random consistent profile; optionally shifted to a target scalar."""
    eigs = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
    if scalar is not None:
        eigs += (scalar - eigs.sum()) / n
    return spectrum_profile(eigs)
