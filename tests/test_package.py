import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import chemolab as cl
from chemolab import config, errors


def test_all_lists_every_public_name_and_no_module():
    exported = set(cl.__all__)
    assert len(exported) == len(cl.__all__)
    assert all(hasattr(cl, name) for name in cl.__all__)
    assert not [name for name in cl.__all__ if isinstance(getattr(cl, name), types.ModuleType)]
    public = {
        name for name in dir(cl)
        if not name.startswith("_") and not isinstance(getattr(cl, name), types.ModuleType)
    }
    assert exported == public


def test_import_loads_no_scipy_and_no_process_pool():
    # a fresh import pays only for what chemolab uses: the transforms load
    # scipy's compiled DCT kernel from its file, so neither scipy's package
    # __init__ nor scipy.fft's (scipy.special, the array-API layer) runs; a
    # sweep forks its workers itself, with no multiprocessing or executor
    src = str(Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, chemolab, chemolab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_one_module_owns_the_face_rule():
    # the face value of u in the chemotaxis flux is chosen in grid alone, by
    # chemotaxis_divergence and its derivative, and the DCT solve has one entry
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(cl.__file__).resolve().parent.glob("*.py")}
    assert [name for name, text in sources.items() if "face_averages" in text] == ["grid.py"]
    assert not [name for name, text in sources.items() if "solve_screened_array" in text]


def test_every_config_key_is_set_by_a_test():
    # a key that no test config sets is a knob that nothing exercises
    tests = "\n".join(path.read_text(encoding="utf-8")
                      for path in Path(__file__).resolve().parent.glob("*.py"))
    unset = sorted(key for key in config.KNOWN_KEYS
                   if not re.search(rf"(?<![\w.]){re.escape(key)} *=", tests))
    assert unset == []


# the classes whose __init__ takes more than the message, with their attributes
_ERRORS = {
    errors.MissingKey: lambda: errors.MissingKey("model.chi"),
    errors.UnknownKey: lambda: errors.UnknownKey("model.xi"),
    errors.OutOfRange: lambda: errors.OutOfRange("chi", "must be > 0 (got -1)"),
    errors.NoConvergence: lambda: errors.NoConvergence("stalled", best=(1.0, 2), history=[1.0, 0.5]),
    errors.ZUnbounded: lambda: errors.ZUnbounded("escaped", 0.85),
}


def _subclasses(cls):
    return {cls}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


def _instance(cls):
    return _ERRORS.get(cls, lambda: cls(f"{cls.__name__} message"))()


@pytest.mark.parametrize("cls", sorted(_subclasses(errors.ChemolabError), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda error: pickle.loads(pickle.dumps(error))],
                         ids=["copy", "deepcopy", "pickle"])
def test_errors_survive_copy_and_pickle(cls, duplicate):
    error = _instance(cls)
    again = duplicate(error)
    assert type(again) is cls
    assert str(again) == str(error)
    assert again.args == error.args
    assert vars(again) == vars(error)


def test_every_error_class_is_raised_by_the_program():
    # an error class that no module constructs outlived the code that raised it
    src = Path(errors.__file__).resolve().parent
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))
                     if path.name != "errors.py")
    leaves = [cls.__name__ for cls in _subclasses(errors.ChemolabError) if not cls.__subclasses__()]
    assert sorted(name for name in leaves if not re.search(rf"\b{name}\(", text)) == []


def test_sandwich_trajectory_keeps_its_model_in_one_record():
    trajectory = {f.name for f in dataclasses.fields(cl.SandwichTrajectory)}
    assert not trajectory & {f.name for f in dataclasses.fields(cl.ModelParams)}


def _outcome(call):
    """What a call returns, or the type and reason of what it raises."""
    try:
        return call()
    except errors.ChemolabError as exc:
        return type(exc), str(exc)


@seed(24)
@settings(max_examples=20, deadline=None)
@given(
    share=st.floats(0.02, 0.98), beta=st.floats(0.25, 4.0), b=st.floats(0.5, 2.0),
    kappa=st.floats(0.5, 2.0), low=st.floats(0.3, 1.0), high=st.floats(1.0, 2.0),
)
# chi = 0.1, beta = 2, b = 1: b > 2*chi*beta although beta != 1
@example(share=0.2, beta=2.0, b=1.0, kappa=1.0, low=0.5, high=1.5)
def test_claim_4_tools_read_chi_times_beta(share, beta, b, kappa, low, high):
    # v -> v/beta turns the (chi, beta) system into the (chi*beta, 1) one, so
    # every tool of the convergence claim gives the same bits at both;
    # chi*beta = share*b covers b > 2*chi*beta and b in (chi*beta, 2*chi*beta]
    chi = share * b / beta

    def build(chi, beta):
        p = cl.build_params({"chi": chi, "a": 1, "b": b, "theta": kappa + 1, "kappa": kappa,
                             "beta": beta, "dim": 1, "L": 3.0})
        return p, cl.make_kinetics(p)

    def outputs(p, logistic):
        eq = (1.0 / b) ** (1.0 / kappa)
        u0_min, u0_max = low * eq, high * eq

        def sandwich():
            traj = cl.solve_sandwich(p, u0_min, u0_max, 5.0)
            return [traj.times.tobytes(), traj.ubar.tobytes(), traj.w.tobytes(), traj.eps0]

        def envelopes():
            env = cl.envelope_odes(p, logistic, u0_min, u0_max, 60.0)
            return [env.z.tobytes(), env.y.tobytes(), env.z_inf, env.y_inf]

        return [
            _outcome(sandwich),
            _outcome(lambda: cl.sandwich_contraction_rate(p, u0_min**kappa, u0_max)),
            _outcome(envelopes),
            [v for v in cl.classify_regime(p, logistic).verdicts if v.tag == "GloballyConvergent"],
        ]

    assert outputs(*build(chi, beta)) == outputs(*build(chi * beta, 1.0))
