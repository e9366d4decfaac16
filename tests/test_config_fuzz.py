"""A search of the config space through the command line.

Configs for every kind are drawn from the generator tables, so a key added to
or removed from GENERATOR_DEFAULTS, GENERATOR_VALUES or FAMILY_DEFAULTS is
searched with no edit here. Matrix entries and numbers reach 1e300, where
norms overflow a float. Whatever the config, the command exits 0, 2 or 3 and
raises nothing; a config error writes no report; and a report holds only
empty cells and finite numbers.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotter_shuffle import cli
from trotter_shuffle.experiments import (_FIELD_KINDS, _KINDS, _NAMED_MATRICES, FAMILY_DEFAULTS,
                                         GENERATOR_DEFAULTS, GENERATOR_VALUES, KINDS)

# Entries and numbers of either sign from 1e-300 to 1e300: past about 1e154 a
# square overflows a float, past about 703 the slack of a target norm does.
ENTRIES = (0.0, -3.0, -1.0, -0.5, 0.25, 0.5, 1.0, 2.0, 5.0, 1e-300, 800.0, 1e300, -1e300)


def _number(rnd):
    return rnd.choice(ENTRIES) if rnd.random() < 0.5 else rnd.uniform(-3, 5)


def _matrix(rnd, d):
    """A d x d matrix of numbers or of [re, im] pairs, or a catalog name."""
    form = rnd.randrange(3)
    if form == 2:
        return rnd.choice(sorted(_NAMED_MATRICES))
    entry = (lambda: rnd.choice(ENTRIES)) if form == 0 else (
        lambda: [rnd.choice(ENTRIES), rnd.choice(ENTRIES)])
    return [[entry() for _ in range(d)] for _ in range(d)]


def _value(rnd, key, default, d):
    """A value of the type of a generator key's default."""
    if key in GENERATOR_VALUES:
        return rnd.choice(GENERATOR_VALUES[key])
    if isinstance(default, int):
        return rnd.randint(0, 8)
    if isinstance(default, float) or default is None:
        return _number(rnd)
    if isinstance(default, list):  # letters hold matrices, diag numbers
        item = _matrix if isinstance(default[0], str) else lambda rnd, d: _number(rnd)
        return [item(rnd, d) for _ in range(rnd.randint(0, 4))]
    return _matrix(rnd, d)


def _some(rnd, keys: dict, d) -> dict:
    """Each key with probability one half, with a value."""
    return {k: _value(rnd, k, v, d) for k, v in keys.items() if rnd.random() < 0.5}


@st.composite
def configs(draw):
    """A config of any kind, with some of the keys its generator and its kind read.

    Hypothesis draws the kind and one seeded Random, and the Random draws the
    rest: a Hypothesis draw for each value would take several times as long.
    """
    kind = draw(st.sampled_from(KINDS))
    rnd = draw(st.randoms(use_true_random=True))
    names, extra, _ = _KINDS[kind]
    name, d = rnd.choice(names), 2 if rnd.random() < 0.5 else rnd.randint(1, 4)
    gen = {"name": name, **_some(rnd, GENERATOR_DEFAULTS[name], d)}
    fn = gen.get("fn", GENERATOR_DEFAULTS[name].get("fn"))
    if fn is not None:
        gen.update(_some(rnd, FAMILY_DEFAULTS[fn], d))
    if "a" in extra and rnd.random() < 0.5:
        gen["a"] = rnd.randint(1, 50)
    if "regimes" in extra and rnd.random() < 0.5:
        gen["regimes"] = [_some(rnd, GENERATOR_DEFAULTS[name], d) for _ in range(rnd.randint(1, 3))]
    fields = {"eps": lambda: _number(rnd), "target": lambda: _matrix(rnd, d),
              "sigma_mode": lambda: rnd.choice(["random", "identity"]),
              "block_mode": lambda: rnd.choice(["sqrt_default", "probability"])}
    doc = {"kind": kind, "generator": gen, "trials": rnd.randint(1, 3), "seed": rnd.randint(0, 9),
           **{f: value() for f, value in fields.items()
              if kind in _FIELD_KINDS[f] and rnd.random() < 0.5}}
    if kind != "words":  # it reads no n_list or d
        doc.update(n_list=rnd.sample(range(1, 401), rnd.randint(1, 3)), d=d)
    return doc


def _finite_only(constant):
    raise ValueError(f"the sidecar holds {constant}")


# numpy's overflow warnings stay warnings, as outside the test suite: the run goes on,
# and what it writes is checked
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(configs())
def test_config_space(doc):
    with tempfile.TemporaryDirectory() as tmp:
        out, cfg = Path(tmp) / "out.csv", Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({**doc, "out_path": str(out)}))
        code = cli.main([doc["kind"], "--config", str(cfg)])
        assert code in (0, 2, 3)
        if code != 0:
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["cfg.json"]
            return
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        json.loads(out.with_suffix(".json").read_text(), parse_constant=_finite_only)
    for row in rows:
        for column, cell in row.items():
            if cell and column != "regime":
                assert math.isfinite(float(cell)), (column, cell)
