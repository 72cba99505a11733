"""Every way the library refuses its input, and a fixed-input check that no
public call escapes with anything but ValueError or a numerical guard."""

import math
import operator
import types
from collections.abc import Mapping
from functools import partial

import numpy as np
import pytest
from test_cli import Prefix

import usdsim
from usdsim import (
    OUTCOME_ORDER, DetectorAmplitudes, KeyReport, MultiplexConfig, NumericalGuardError, OptimalityReport, Outcome,
    PovmSet, ReceiverConfig, RngStream, TrialTally, alice_emit, balance_imbalance, cli, click_probabilities,
    closed_form_probabilities, coherent_state, inconclusive_rate, normally_ordered_exponential,
    normally_ordered_gaussian, optimality_check, outcome_probabilities, povm_analytic, povm_ancilla, propagate_bob,
    quantum_bound, round_inconclusive_probability, run_protocol, run_trials,
)
from usdsim.discrimination import vacuum_port_columns
from usdsim.hilbert import check_dim
from usdsim.montecarlo import MAX_DRAWS, _tally, check_draws, clean_distribution, three_sigma_band

_RECEIVER = ReceiverConfig(1.0, -1.0, 16)
_POVM = povm_analytic(_RECEIVER)
_MULTIPLEX = MultiplexConfig(10.0, 0.05, 1.0, rounds=1000)

# Each public call, and the helpers that check values for it, with valid
# keyword arguments.  Those that are not a label or the package's own object
# are its value parameters: numbers, amplitudes, counts, dims and outcome
# mappings.  No call draws more than 10**4 uniforms or builds above dim 16.
_VALID = {
    DetectorAmplitudes: dict(amp_d1=0.1, amp_d2=0.0),
    KeyReport: dict(rounds=4, sifted_count=2, sifted_key_rate=0.5, bit_error_rate=0.0,
                    inconclusive_rate_empirical=0.5, anomalous_count=0, counts=dict.fromkeys(OUTCOME_ORDER, 1)),
    MultiplexConfig: dict(gamma=10.0, splitter_transmission=0.05, eta=1.0, channel_transmission=1.0, rounds=1000),
    NumericalGuardError: {},
    OptimalityReport: dict(numeric_inconclusive=0.1, quantum_bound=0.1, gap=0.0),
    Outcome: dict(value=(0, 0)),
    PovmSet: dict(elements=_POVM.elements, config=_RECEIVER),
    ReceiverConfig: dict(alpha1=1.0, alpha2=-1.0, dim=16, eta=1.0),
    RngStream: dict(seed=0, stream_id=0),
    TrialTally: dict(counts=dict.fromkeys(OUTCOME_ORDER, 1)),
    **dict.fromkeys((alice_emit, propagate_bob), dict(bit=1, cfg=_MULTIPLEX)),
    **dict.fromkeys((balance_imbalance, quantum_bound, round_inconclusive_probability), dict(cfg=_MULTIPLEX)),
    check_draws: dict(value=10, name="draws"),
    clean_distribution: dict(dist=dict.fromkeys(OUTCOME_ORDER, 0.25)),
    click_probabilities: dict(amps=DetectorAmplitudes(0.1, 0.0), eta=1.0),
    closed_form_probabilities: dict(cfg=_RECEIVER, sent=1.0),
    coherent_state: dict(alpha=0.5, dim=8),
    inconclusive_rate: dict(alpha1=1.0, alpha2=-1.0),
    normally_ordered_exponential: dict(coeff_dag=0.1, coeff_a=0.1, coeff_quad=-0.5, coeff_const=0.0, dim=8),
    normally_ordered_gaussian: dict(kappa=0.5, alpha=0.5, dim=8),
    optimality_check: dict(cfg=_RECEIVER, povm=_POVM),
    outcome_probabilities: dict(cfg=_RECEIVER, sent=1.0, povm=_POVM),
    **dict.fromkeys((povm_analytic, povm_ancilla), dict(cfg=_RECEIVER)),
    run_protocol: dict(cfg=_MULTIPLEX, rng=RngStream(0)),
    run_trials: dict(cfg=_RECEIVER, trials=1000, rng=RngStream(0)),
    three_sigma_band: dict(p=0.5, n=100),
    vacuum_port_columns: dict(dim=8),
}


def refused(message, func, *args, error=ValueError, **changes):
    """A row: ``func`` on ``args``, or else on its valid keywords with
    ``changes``, raises ``error`` whose text is ``message`` (or starts with a
    Prefix)."""
    return partial(func, *args, **(changes if args else _VALID.get(func, {}) | changes)), error, message


def got(stem, func, key, values=("0.5", None, True), shown=lambda v: v):
    """Rows: ``func`` with ``key`` set to each of ``values`` raises
    ValueError with ``stem``, then ', got ' and the repr of the value as the
    check ``shown`` it."""
    return {f"{func.__name__}-{key}-{v!r}": refused(f"{stem}, got {shown(v)!r}", func, **{key: v}) for v in values}


_FINITE = "amplitude must be finite with finite |amplitude|^2"
_COEFFICIENTS = "coefficients {} must be finite and give a finite Fock matrix at dim={}"
_FOUR = "{} needs exactly the four outcomes: missing {}; unexpected {}"
_SHAPE = "POVM element {} has shape {}, expected (16, 16) for dim=16"
_READ_ONLY = "'mappingproxy' object does not support item assignment"
_EYE, _ZERO, _SKEW, _NEG = np.eye(16), np.zeros((16, 16)), 1e-6 * np.eye(16, k=1), np.diag(-1e-6 * np.eye(16)[0])


def _dist(*probs):
    return dict(zip(OUTCOME_ORDER, probs))


_REFUSALS = {
    # hilbert
    **got(_FINITE, coherent_state, "alpha", (math.nan, complex(1.0, math.inf)), complex),
    **got("Fock dimension must be >= 2", check_dim, "dim", (1, 0, -1)),
    **got("Fock dimension must be an integer", check_dim, "dim", (2.0, 2.5, True, "3")),
    # a dim the vacuum-port columns are given gets the same check, not an
    # empty array, a bare TypeError or numpy's "negative dimensions"
    **got("Fock dimension must be >= 2", vacuum_port_columns, "dim", (0, 1, -1)),
    **got("Fock dimension must be an integer", vacuum_port_columns, "dim", (2.5, True, "3")),
    # a dim beyond the sector table, by name, not by an IndexError
    "vacuum_port_columns-dim-65": refused("vacuum-port columns are tabulated up to dim=64, got dim=65", vacuum_port_columns,
                                          dim=65),
    # the detector efficiency's check, under kappa's name
    **got("kappa must lie in [0, 1]", normally_ordered_gaussian, "kappa", (-0.5, 1.5, math.nan)),
    **got("kappa must be a real number", normally_ordered_gaussian, "kappa", ("x",)),
    # coefficients that are not finite numbers, or whose Fock matrix overflows
    # a float, named with no RuntimeWarning on the way; the c0 = -inf matrix
    # would be finite, exp(c0) being 0
    **{f"exponential-{name}": refused(_COEFFICIENTS.format(named, args[-1]), build, *args)
       for name, build, args, named in (
           ("c0-1000", normally_ordered_exponential, (0, 0, 0, 1000, 4), "(0j, 0j, 0j, (1000+0j))"),
           ("cd-ca-1e154", normally_ordered_exponential, (1e154, 1e154, 0, 0, 40), "((1e+154+0j), (1e+154+0j), 0j, 0j)"),
           ("cq-1e154", normally_ordered_exponential, (0, 0, 1e154, 0, 40), "(0j, 0j, (1e+154+0j), 0j)"),
           ("gaussian-alpha-1e154", normally_ordered_gaussian, (0.5, 1e154, 40),
            "((5e+153+0j), (5e+153+0j), (-0.5+0j), (-5e+307+0j))"),
           ("c0--inf", normally_ordered_exponential, (0, 0, 0, complex(-math.inf, 0.0), 4), "(0j, 0j, 0j, (-inf+0j))"),
           ("cd-nan", normally_ordered_exponential, (math.nan, 0, 0, 0, 4), "((nan+0j), 0j, 0j, 0j)"),
       )},
    **got("coefficient must be a number", normally_ordered_exponential, "coeff_a", ("x", True)),
    # discrimination
    "identical": refused("alpha1 == alpha2: identical states are not discriminable", ReceiverConfig, alpha1=-1.0),
    **got("Fock dimension must be >= 2", ReceiverConfig, "dim", (1,)),
    **got("detector efficiency must lie in [0, 1]", ReceiverConfig, "eta", (1.5,)),
    **got("detector efficiency must be a real number", ReceiverConfig, "eta"),
    **got("amplitude must be a number", ReceiverConfig, "alpha1"),
    **got("Fock dimension must be an integer", ReceiverConfig, "dim"),
    **got(_FINITE, ReceiverConfig, "alpha1", (math.inf, 1e200), complex),  # |1e200|^2 overflows
    # the guards alone would pass this one-element set (residual 0.0)
    "povm-missing-outcomes": refused(_FOUR.format("POVM", "CONCLUSIVE_1, CONCLUSIVE_2, ANOMALOUS", "none"), PovmSet,
                                     elements={Outcome.INCONCLUSIVE: _EYE}),
    "povm-unexpected-key": refused(_FOUR.format("POVM", "none", "'extra'"), PovmSet, elements=_POVM.elements | {"extra": _EYE}),
    "povm-all-of-another-dim": refused(_SHAPE.format("INCONCLUSIVE", (3, 3)), PovmSet,
                                       elements=dict.fromkeys(OUTCOME_ORDER, np.eye(3) / 4)),
    # a non-square matrix with dim's rows or columns, a 1 x 1 matrix and a vector
    **{f"povm-{o.name}-shape-{shape}": refused(_SHAPE.format(o.name, shape), PovmSet,
                                               elements=_POVM.elements | {o: np.zeros(shape)})
       for o, shape in ((Outcome.ANOMALOUS, (16, 3)), *((Outcome.CONCLUSIVE_2, s) for s in ((1, 1), (16, 12), (16,))))},
    "povm-not-a-mapping": refused("POVM needs a mapping keyed by Outcome, got list", PovmSet,
                                  elements=list(_POVM.elements.values())),
    # a PovmSet's elements are read-only: a replaced INCONCLUSIVE of 7 I would
    # skip every guard
    "povm-read-only": refused(_READ_ONLY, operator.setitem, _POVM.elements, Outcome.INCONCLUSIVE, 7 * _EYE, error=TypeError),
    # a hand-built set trips each structural guard, which names its value
    **{f"povm-{name}-guard": refused(message, PovmSet, elements=_dist(*elements), error=NumericalGuardError)
       for name, elements, message in (
           ("hermiticity", (_EYE - _SKEW, _SKEW, _ZERO, _ZERO), "hermiticity guard: POVM defect 1.000e-06 exceeds 1.0e-09"),
           ("nan", (np.full((16, 16), math.nan), _ZERO, _ZERO, _ZERO), "hermiticity guard: POVM defect nan exceeds 1.0e-09"),
           ("completeness", (0.5 * _EYE, _ZERO, _ZERO, _ZERO), "completeness guard: residual 5.000e-01 exceeds 1.0e-09"),
           ("positivity", (_EYE - _NEG, _NEG, _ZERO, _ZERO), "positivity guard: eigenvalue -1.000e-06 below -1.0e-10"),
       )},
    # checked before the adequacy guard allocates anything dim-sized
    **{f"ancilla-dim-{dim}": refused(f"two-mode workspace guard: dim={dim} exceeds the cap 64", povm_ancilla,
                                     cfg=ReceiverConfig(0.5, -0.5, dim), error=NumericalGuardError) for dim in (66, 10**20)},
    # a POVM answers only for the config it was built for: dim and eta
    **{f"povm-for-another-{what}": refused(f"POVM built for {_RECEIVER} does not match {other}", outcome_probabilities,
                                           cfg=other)
       for what, other in (("dim", ReceiverConfig(1.0, -1.0, 12)), ("eta", ReceiverConfig(1.0, -1.0, 16, eta=0.5)))},
    **got(_FINITE, inconclusive_rate, "alpha1", (math.nan, 1e200), complex),
    **got(_FINITE, closed_form_probabilities, "sent", (math.nan,), complex),
    # montecarlo
    **got("seed must fit in 64 bits", RngStream, "seed", (-1, 2**64)),
    **got("seed must be an integer", RngStream, "seed", (1.5, True, "0.5", None)),
    # the sampler cleans each distribution before its first draw
    **{f"tally-{name}": refused(message, _tally, [_dist(*probs)], None, 1)
       for name, message, probs in (
           ("sum-0.7", "distribution sums to 0.7, expected 1", (0.5, 0.2, 0, 0)),
           ("negative", Prefix("distribution contains negative probability: "), (0.5, 0.6, -0.1, 0)),
           ("nan", "distribution contains non-finite probabilities", (math.nan, 0.5, 0.25, 0.25)),
       )},
    # the 1e-9 of outcome_probabilities' normalization guard, the sum printed
    # as a Python float
    "distribution-sum-off-by-2e-9": refused("distribution sums to 1.000000002, expected 1", clean_distribution,
                                            dist=_dist(1.000000002, 0.0, 0.0, 0.0)),
    "distribution-missing-outcome": refused(_FOUR.format("distribution", "CONCLUSIVE_2", "none"), clean_distribution,
                                            dist=_dist(0.25, 0.25) | {Outcome.ANOMALOUS: 0.5}),
    "distribution-unexpected-key": refused(_FOUR.format("distribution", "none", "'extra'"), clean_distribution,
                                           dist=_dist(0.25, 0.25, 0.25, 0.25) | {"extra": 0.0}),
    **{f"distribution-{v!r}": refused(f"probability must be a real number, got {v!r}", clean_distribution,
                                      dist=_dist(v, 0.0, 0.0, 0.0)) for v in ("1", None, 1j)},
    "distribution-10**400": refused("probability is too large for a float", clean_distribution,
                                    dist=_dist(10**400, 0, 0, 0)),
    **got("trials must be >= 1", run_trials, "trials", (0, -1)),
    **got("trials must be an integer", run_trials, "trials", (2.0, True, "3", None)),
    **got("trials must be <= MAX_DRAWS = 2**53", run_trials, "trials", (MAX_DRAWS + 1, 10**20)),
    # n_trials is the counts' sum, so a negative count cannot hide in it
    "tally-count--1": refused("counts must be non-negative, got [-1, 1, 0, 0]", TrialTally, counts=_dist(-1, 1, 0, 0)),
    **{f"tally-count-{v!r}": refused(f"count must be an integer, got {v!r}", TrialTally, counts=_dist(v, 0, 0, 0))
       for v in (2.7, True, "2", None)},
    "tally-unexpected-key": refused(_FOUR.format("tally", "none", "'bogus'"), TrialTally,
                                    counts=_dist(1, 0, 0, 0) | {"bogus": 5}),
    "tally-missing-outcome": refused(_FOUR.format("tally", "ANOMALOUS", "none"), TrialTally, counts=_dist(1, 0, 0)),
    "tally-not-a-mapping": refused("tally needs a mapping keyed by Outcome, got list", TrialTally, counts=[1, 2, 3, 4]),
    # a checked tally is read-only: a count written later would make
    # n_trials -4 and a frequency 1.75
    "tally-counts-are-read-only": refused(_READ_ONLY, operator.setitem, TrialTally(_dist(1, 1, 1, 1)).counts,
                                          Outcome.INCONCLUSIVE, -7, error=TypeError),
    **got("probability must lie in [0, 1]", three_sigma_band, "p", (2.0, math.nan)),
    **got("probability must be a real number", three_sigma_band, "p", (None,)),
    **got("trials must be >= 1", three_sigma_band, "n", (0,)),
    **got("trials must be an integer", three_sigma_band, "n", (2.5,)),
    "three_sigma_band-n-10**400": refused(f"trials must be <= MAX_DRAWS = 2**53, got {10**400}", three_sigma_band,
                                          n=10**400),
    # multiplex
    **got("splitter transmission must lie in (0, 1)", MultiplexConfig, "splitter_transmission", (0.0, 1.0)),
    **got("detector efficiency must lie in [0, 1]", MultiplexConfig, "eta", (-0.1, 1.1)),
    **got("channel transmission must lie in (0, 1]", MultiplexConfig, "channel_transmission", (0.0, 1.5)),
    **got("rounds must be >= 1", MultiplexConfig, "rounds", (0,)),
    **got("rounds must be an integer", MultiplexConfig, "rounds", (2.7, True, "0.5", None)),
    **got("rounds must be <= MAX_DRAWS = 2**53", MultiplexConfig, "rounds", (MAX_DRAWS + 1, 10**20)),
    **got(_FINITE, MultiplexConfig, "gamma", (math.inf, 1e200), complex),
    **got("amplitude must be a number", MultiplexConfig, "gamma"),
    **got("splitter transmission must be a real number", MultiplexConfig, "splitter_transmission"),
    **got("detector efficiency must be a real number", MultiplexConfig, "eta"),
    **got("channel transmission must be a real number", MultiplexConfig, "channel_transmission"),
    # alice_emit's check is the network's only input check: not a bool or
    # float taken as 1, a bit out of range or a bare TypeError
    **got("bit must be 0 or 1", alice_emit, "bit", (2, -1)),
    **got("bit must be an integer", alice_emit, "bit", (True, 1.0, "x", None)),
    **got("bit must be 0 or 1", propagate_bob, "bit", (2, -1)),
    **got("bit must be an integer", propagate_bob, "bit", (True, 1.0, "x", None)),
    **got("detector efficiency must lie in [0, 1]", click_probabilities, "eta", (1.2,)),
    # cli: only a library caller can pass a NUL byte, which a command line cannot carry
    "load-config-nul-byte": refused("cannot read config file 'a\\x00b': embedded null byte", cli.load_config, "a\0b",
                                    error=cli.ConfigError),
}


@pytest.mark.parametrize("call, error, message", _REFUSALS.values(), ids=list(_REFUSALS))
def test_refused_input_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    text = str(info.value)
    assert text.startswith(message) if isinstance(message, Prefix) else text == message


_JUNK = (None, True, "1", -1, 0, 1.5, math.nan, math.inf, 1e308j, complex(1e200, 1e200), [1, 2], {}, 10**400)
# arguments that keep their valid value: a label, or one of the package's own objects
_OBJECTS = (str, ReceiverConfig, MultiplexConfig, PovmSet, RngStream, DetectorAmplitudes)


def test_fixed_junk_returns_or_raises_value_error():
    # each value parameter of each call in turn, and the first entry of each
    # outcome mapping, set to each junk value: the call returns, or refuses
    # with ValueError or a named numerical guard, never another exception
    public = {name for name, value in vars(usdsim).items()
              if callable(value) and not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert {func.__name__ for func in _VALID} == public | {"check_draws", "clean_distribution", "three_sigma_band",
                                                           "vacuum_port_columns"}
    escaped = []
    for func, valid in _VALID.items():
        func(**valid)
        for key, value in valid.items():
            if isinstance(value, _OBJECTS):
                continue
            for junk in _JUNK:
                for variant in (junk, *([value | {OUTCOME_ORDER[0]: junk}] if isinstance(value, Mapping) else [])):
                    try:
                        func(**valid | {key: variant})
                    except (ValueError, NumericalGuardError):
                        pass
                    except Exception as exc:
                        escaped.append(f"{func.__name__}({key}={variant!r:.30}): {type(exc).__name__}: {exc}")
    assert escaped == []
