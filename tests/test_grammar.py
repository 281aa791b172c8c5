"""The map and state spec grammars: every table entry parses to what its
constructor builds, every malformed spec names its own grammar, and the
README shows the help text the tables generate."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equimap.detection import (
    STATE_GRAMMAR,
    STATE_SPECS,
    DensityMatrix,
    bell_state,
    isotropic_state,
    parse_state_spec,
    product_state,
    random_pure,
)
from equimap.errors import ParameterError
from equimap.linalg import haar_unitary
from equimap.serialize import load_matrix, load_state, matrix_to_json, save_json, state_to_json
from equimap.zoo import (
    MAP_GRAMMAR,
    MAP_SPECS,
    bhat_map,
    choi_map,
    collins3_map,
    collins_map,
    conjugation_map,
    identity_map,
    parse_map_spec,
    tomiyama_map,
    transpose_map,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# Oracles written against the constructors, independent of the tables.
DIRECT = {
    "map": {
        "identity": lambda v: identity_map(v["n"]),
        "transpose": lambda v: transpose_map(v["n"]),
        "choi": lambda v: choi_map(v["n"]),
        "tomiyama": lambda v: tomiyama_map(v["n"], v["lambda"]),
        "bhat": lambda v: bhat_map(v["n"], v["alpha"], v["beta"]),
        "collins": lambda v: collins_map(v["n"], v["alpha"], v["beta"]),
        "collins3": lambda v: collins3_map(v["n"], v["alpha"], v["beta"], v["gamma"]),
        "conj": lambda v: conjugation_map(load_matrix(v["file"])),
    },
    "state": {
        "isotropic": lambda v: isotropic_state(v["n"], v["p"]),
        "bell": lambda v: bell_state(v["n"]),
        "pure": lambda v: DensityMatrix.from_pure(
            random_pure(v["m"], v["n"], v["r"], v["seed"]), v["m"], v["n"]
        ),
        "product": lambda v: product_state(load_matrix(v["fileA"]), load_matrix(v["fileB"])),
        "file": lambda v: load_state(v["path"]),
    },
}
# kind -> (table, help text, parser of one spec, what parses must agree on)
GRAMMARS = {
    "map": (
        MAP_SPECS, MAP_GRAMMAR, lambda s: parse_map_spec(s).rep,
        lambda rep: (rep.label, rep.choi.tobytes()),
    ),
    "state": (STATE_SPECS, STATE_GRAMMAR, parse_state_spec, lambda rho: rho.mat.tobytes()),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths to a conjugation matrix, two single-system states and a
    bipartite state, by the key that takes them."""
    d = tmp_path_factory.mktemp("specs")
    paths = {
        "file": (d / "m.json", matrix_to_json(haar_unitary(3, seed=4) @ np.diag([1, 2, 3]))),
        "fileA": (d / "a.json", matrix_to_json(np.diag([0.25, 0.75]))),
        "fileB": (d / "b.json", matrix_to_json(np.diag([0.5, 0.0, 0.5]))),
        "path": (d / "rho.json", state_to_json(isotropic_state(2, 0.5))),
    }
    for path, obj in paths.values():
        save_json(str(path), obj)
    return {key: str(path) for key, (path, _) in paths.items()}


def _reals():
    # Integer text for a float key stays an int, as in "bhat:n=3,alpha=1,beta=0".
    return st.one_of(st.floats(-3, 3, allow_nan=False), st.integers(-3, 3))


def _values(files):
    """Valid values for every key either grammar uses."""
    return {
        "n": st.integers(3, 4),
        "m": st.integers(2, 3),
        "r": st.integers(1, 2),
        "seed": st.integers(0, 2**64 - 1),
        "p": st.floats(0, 1),
        "lambda": _reals(),
        "alpha": _reals(),
        "beta": _reals(),
        "gamma": _reals(),
        **{key: st.just(path) for key, path in files.items()},
    }


def _draw_spec(data, kind, files):
    """(name, values, key texts) of a valid spec of the given grammar;
    key texts is None for a positional entry."""
    table = GRAMMARS[kind][0]
    name = data.draw(st.sampled_from(sorted(table)), label="name")
    keys = table[name][0] or ("path",)
    strategies = _values(files)
    values = {key: data.draw(strategies[key], label=key) for key in keys}
    if table[name][0] is None:
        return name, values, None
    return name, values, {k: v if isinstance(v, str) else repr(v) for k, v in values.items()}


def _spec(name, texts):
    return f"{name}:" + ",".join(f"{k}={v}" for k, v in texts.items())


@pytest.mark.parametrize("kind", sorted(GRAMMARS))
@settings(max_examples=60)
@given(data=st.data())
def test_valid_specs_build_what_the_constructor_builds(files, kind, data):
    _, _, parse, payload = GRAMMARS[kind]
    name, values, texts = _draw_spec(data, kind, files)
    spec = f"{name}:{values['path']}" if texts is None else _spec(name, texts)
    assert payload(parse(spec)) == payload(DIRECT[kind][name](values))


@pytest.mark.parametrize("kind", sorted(GRAMMARS))
@settings(max_examples=60)
@given(data=st.data())
def test_bad_keys_name_their_grammar(files, kind, data):
    table, grammar, parse, _ = GRAMMARS[kind]
    name, _, items = _draw_spec(data, kind, files)
    if items is None:
        return  # the positional path has no keys to get wrong
    keys = table[name][0]
    fault = data.draw(st.sampled_from(["missing", "extra", "mistyped"]), label="fault")
    key = data.draw(st.sampled_from(sorted(keys)), label="key")
    if fault == "missing":
        del items[key]
    elif fault == "extra":
        items["bogus"] = "1"
    elif keys[key] is str:
        return  # any text is a valid path
    else:
        items[key] = "1.5" if keys[key] is int else "many"
    spec = _spec(name, items)
    with pytest.raises(ParameterError) as err:
        parse(spec)
    message = str(err.value)
    assert f"{kind} spec {spec!r}" in message
    assert message.endswith(grammar)
    other = "state" if kind == "map" else "map"
    assert f"{other} spec" not in message


def test_state_errors_cite_the_state_grammar():
    with pytest.raises(ParameterError) as err:
        parse_state_spec("isotropic:n=3")
    assert str(err.value) == f"state spec 'isotropic:n=3' is missing 'p'\n{STATE_GRAMMAR}"


def test_float_keys_keep_integer_text():
    assert parse_map_spec("bhat:n=3,alpha=-0,beta=1").rep.label == "bhat(n=3,alpha=0,beta=1)"


@pytest.mark.parametrize("kind", sorted(GRAMMARS))
def test_help_lines_use_the_declared_keys(kind):
    for name, (keys, _, example) in GRAMMARS[kind][0].items():
        head, _, rest = example.split()[0].partition(":")
        assert head == name
        if keys is not None:
            assert [item.split("=")[0] for item in rest.split(",")] == list(keys)


def test_readme_shows_the_generated_grammars():
    block = README.read_text().split("### Map and state mini-grammars", 1)[1].split("```")[1]
    assert block.strip("\n") == f"{MAP_GRAMMAR}\n\n{STATE_GRAMMAR}"
