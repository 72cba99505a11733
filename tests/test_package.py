"""The names the ``usdsim`` package exports, where its draws are made, where
it evaluates a Gaussian decay, where it forms Alice's weak pulse and where its
numerical guards raise."""

import ast
import types
from pathlib import Path

import usdsim


def test_public_names_are_pinned():
    # a name added to or removed from the package is a deliberate change,
    # made here too
    public = {
        name
        for name, value in vars(usdsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {
        "DetectorAmplitudes",
        "KeyReport",
        "MultiplexConfig",
        "NumericalGuardError",
        "OUTCOME_ORDER",
        "OptimalityReport",
        "Outcome",
        "PovmSet",
        "ReceiverConfig",
        "RngStream",
        "TrialTally",
        "alice_emit",
        "balance_imbalance",
        "click_probabilities",
        "closed_form_probabilities",
        "coherent_state",
        "inconclusive_rate",
        "normally_ordered_exponential",
        "normally_ordered_gaussian",
        "optimality_check",
        "outcome_probabilities",
        "povm_analytic",
        "povm_ancilla",
        "propagate_bob",
        "quantum_bound",
        "round_inconclusive_probability",
        "run_protocol",
        "run_trials",
    }


def test_multiplex_makes_no_draw():
    # every draw is montecarlo's: multiplex hands the protocol's two click
    # distributions to montecarlo._tally_rounds and reads no generator itself
    tree = ast.parse((Path(usdsim.__file__).parent / "multiplex.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_tally" not in imported
    drawing = {"generator", "bit_generator", "integers", "advance", "random_raw"}
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not used & drawing


def sites(matches, files="*.py"):
    """The site of each node that ``matches`` in the package's ``files``: its
    module, then its innermost enclosing function and class."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if matches(child):
                yield inner
            yield from walk(child, inner)

    package = Path(usdsim.__file__).parent
    return {site for path in package.glob(files) for site in walk(ast.parse(path.read_text()), path.stem)}


def test_one_draw_site():
    # every uniform and bit the package draws is drawn in montecarlo._tally,
    # the one inverse-CDF sampler
    def draw(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) in {"random", "integers"}

    assert sites(draw) == {"montecarlo._tally"}


def test_one_gaussian_kernel():
    # every exp(scale |x|^2) of the closed forms and the coherent state is
    # hilbert._gaussian_decay's; the two other math.exp calls evaluate the
    # multiplex no-click rate and the ratio's overflow-guarded exponent
    def exp(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "math.exp"

    assert sites(exp) == {
        "hilbert._gaussian_decay",
        "multiplex.round_inconclusive_probability",
        "multiplex.inconclusive_bound_ratio",
    }


def test_alice_emit_owns_the_weak_pulse():
    # Alice's early-slot signal T*gamma is formed in alice_emit alone: Bob's
    # network and the emitted pair's overlap take it from there, and the
    # other readers of gamma are its validation, the reference pulse and the
    # closed forms
    def reads_gamma(node):
        return isinstance(node, ast.Attribute) and node.attr == "gamma"

    assert sites(reads_gamma, "multiplex.py") == {
        "multiplex.MultiplexConfig.__post_init__",
        "multiplex.MultiplexConfig.alice_aux_amp",
        "multiplex.MultiplexConfig.detector_mean_photons",
        "multiplex.alice_emit",
        "multiplex.quantum_bound",
        "multiplex.inconclusive_bound_ratio",
    }


def test_one_guard_raise():
    # every numerical guard fails through hilbert._guard, the package's one
    # raise of NumericalGuardError
    def guard_raises(tree):
        raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
        return [node for node in raises if "NumericalGuardError" in ast.unparse(node)]

    package = Path(usdsim.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    assert {name: len(guard_raises(tree)) for name, tree in trees.items() if guard_raises(tree)} == {"hilbert.py": 1}
    (guard,) = [node for node in trees["hilbert.py"].body if getattr(node, "name", None) == "_guard"]
    assert len(guard_raises(guard)) == 1


def test_cli_writers_own_the_record_and_the_cells():
    # inside cli.py only write_record assembles a run record's metadata and
    # only _flat_value formats a cell, so no command does either itself
    tree = ast.parse((Path(usdsim.__file__).parent / "cli.py").read_text())
    users = {}
    for scope in tree.body:
        for node in ast.walk(scope):
            if isinstance(node, ast.Name):
                users.setdefault(node.id, set()).add(getattr(scope, "name", None))
    assert users["run_metadata"] == {"write_record"}
    assert users["_fmt"] == {"_flat_value"}


def test_cli_opens_each_run_in_one_place():
    # inside cli.py only open_run loads the config and creates the output
    # directory, so every command checks its sections before any directory
    tree = ast.parse((Path(usdsim.__file__).parent / "cli.py").read_text())
    callers = {}
    for scope in tree.body:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                callers.setdefault(name, set()).add(getattr(scope, "name", None))
    assert callers["load_config"] == {"open_run"}
    assert callers["mkdir"] == {"open_run"}
