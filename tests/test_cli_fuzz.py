"""Fuzz test: any JSON config with any command exits 0, 2 or 3, never raises.

A config starts valid, then up to two of its keys or sections are replaced by
junk (strings, None, bools, lists, objects, NaN, 1e308) or removed; numbers
are drawn from a physical range mixed with extremes that overflow a float
when squared or subtracted.  Each example runs in-process through
``cli.main``, so an escaping exception, or a numpy RuntimeWarning (an error
under the test settings), fails the test.  Examples are derandomized, so runs
collecting the same test modules check the same cases.
"""

import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from usdsim import cli

EXTREMES = [
    float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 2e154, 1e154, -1e154, 1e3, 1e-320
]

# dim, rounds, seeds, --trials, --steps and --mc all draw from small ranges, so
# no example allocates much memory
small_ints = st.integers(min_value=-1, max_value=24)
reals = st.one_of(st.sampled_from(EXTREMES), st.floats())
scalars = st.one_of(st.none(), st.booleans(), small_ints, reals, st.text(max_size=4))
junk = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.lists(reals, min_size=2, max_size=2),
    st.dictionaries(st.text(max_size=2), scalars, max_size=2),
)


def pairs(re_low, re_high):
    return st.tuples(st.floats(re_low, re_high), st.floats(-1.0, 1.0)).map(list)


unit = st.floats(0.0, 1.0)
valid_configs = st.fixed_dictionaries(
    {
        "receiver": st.fixed_dictionaries(
            {
                "alpha1": pairs(0.1, 1.0),
                "alpha2": pairs(-1.0, -0.1),
                "dim": st.integers(8, 20),
                "eta": unit,
            }
        ),
        "multiplex": st.fixed_dictionaries(
            {
                "gamma": pairs(-20.0, 20.0),
                "T": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                "eta": unit,
                "rounds": st.integers(1, 24),
            },
            optional={"channel_transmission": st.floats(0.0, 1.0, exclude_min=True)},
        ),
        "rng": st.fixed_dictionaries({"seed": st.integers(0, 24)}),
        "output": st.fixed_dictionaries(
            {}, optional={"format": st.sampled_from(["json", "csv"]), "path": st.text(max_size=4)}
        ),
    }
)


@st.composite
def configs(draw):
    """A valid config with up to two keys or sections made junk or removed."""
    config = draw(valid_configs)
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from([*cli._SECTION_KEYS, "detector"]))
        section = config.get(name)
        if isinstance(section, dict) and draw(st.booleans()):
            key = draw(st.sampled_from([*sorted(cli._SECTION_KEYS.get(name, ())), "mystery"]))
            if draw(st.booleans()):
                section.pop(key, None)
            else:
                section[key] = draw(junk)
        elif draw(st.booleans()):
            config.pop(name, None)
        else:
            config[name] = draw(junk)
    return config


def flag(name, values):
    return values.map(lambda v: [f"{name}={v}"])


def optional(flags):
    return st.one_of(st.just([]), flags)


# half the ranges lie inside (0, 1), which every sweep parameter accepts
valid_ranges = st.tuples(st.floats(0.01, 0.5), st.floats(0.01, 0.49)).map(
    lambda p: [p[0], p[0] + p[1]]
)
grid_ranges = st.one_of(
    valid_ranges, st.lists(st.floats(-20.0, 20.0) | reals, min_size=2, max_size=2)
)

OPTIONS = {
    "sweep": st.tuples(
        flag("--param", st.sampled_from(cli.SWEEP_PARAMS)),
        grid_ranges.map(lambda ends: [f"--from={ends[0]!r}", f"--to={ends[1]!r}"]),
        flag("--steps", small_ints),
        optional(flag("--mc", small_ints)),
    ),
    "povm": st.tuples(
        optional(flag("--construction", st.sampled_from(["analytic", "ancilla", "both"]))),
        optional(st.just(["--dump"])),
    ),
    "simulate": st.tuples(flag("--trials", small_ints)),
    "probs": st.just(()),
    "multiplex": st.just(()),
}


@st.composite
def commands(draw):
    """A subcommand and its options; sweeps, which have the most options,
    take twice the share of the others."""
    name = draw(st.sampled_from(["sweep", "sweep", "povm", "simulate", "probs", "multiplex"]))
    return [name, *(arg for option in draw(OPTIONS[name]) for arg in option)]


# drawn T above WEAK_SPLITTING_LIMIT warn by design; the warning has its own tests
@pytest.mark.filterwarnings("ignore:splitter transmission T=.*:UserWarning")
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=configs(), command=commands())
def test_any_config_and_command_exit_cleanly(config, command):
    # the output directory comes from the environment, so a drawn output.path
    # is only type-checked and never created
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(
        os.environ, {cli.OUTPUT_DIR_ENV: tmp}
    ):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        name, *options = command
        assert cli.main([name, str(path), *options]) in (0, 2, 3)
