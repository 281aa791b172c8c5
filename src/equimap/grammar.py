"""The NAME:KEY=VALUE,... spec grammar shared by maps and states.

A grammar is one table {name: (keys, build, example)}: keys maps each
key to its type (int, float or str) in the order build takes them, or is
None for a single positional NAME:PATH argument; example is the help
line.  Parsing and the help text are both derived from the table.
"""

from __future__ import annotations

from .errors import ParameterError

_TYPE_NAMES = {int: "an integer", float: "a number"}


def grammar_text(table: dict, kind: str) -> str:
    """Help text listing one example per table entry."""
    lines = [f"{kind} spec grammar: NAME:KEY=VALUE,..."]
    lines += [f"  {example}" for _, _, example in table.values()]
    return "\n".join(lines)


def _parse_params(text: str, where: str, help_text: str) -> dict[str, str]:
    params: dict[str, str] = {}
    if not text:
        return params
    for item in text.split(","):
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq:
            raise ParameterError(f"expected KEY=VALUE in {where}, got {item!r}\n{help_text}")
        if not key or not value:
            raise ParameterError(f"empty key or value in {where}: {item!r}\n{help_text}")
        params[key] = value
    return params


def _take(params: dict[str, str], key: str, kind: type, where: str, help_text: str):
    # A float key keeps integer text an int, so "-0" reaches the
    # constructor (and its label) as 0, not -0.0.
    if key not in params:
        raise ParameterError(f"{where} is missing {key!r}\n{help_text}")
    raw = params.pop(key)
    if kind is str:
        return raw
    for t in (int, float) if kind is float else (int,):
        try:
            return t(raw)
        except ValueError:
            pass
    raise ParameterError(f"{key} must be {_TYPE_NAMES[kind]} in {where}\n{help_text}")


def parse_spec(text: str, table: dict, kind: str):
    """Parse one spec against a grammar table.

    Returns (name, typed params, built object); every error is a
    ParameterError naming the {kind} spec and carrying its help text.
    """
    spec = text.strip()
    name, _, rest = spec.partition(":")
    name = name.strip()
    where = f"{kind} spec {spec!r}"
    help_text = grammar_text(table, kind)
    if name not in table:
        raise ParameterError(f"unknown {kind} name {name!r}\n{help_text}")
    keys, build, _ = table[name]
    if keys is None:
        if not rest:
            raise ParameterError(f"{where} needs a path\n{help_text}")
        return name, {"path": rest}, build(rest)
    params = _parse_params(rest, where, help_text)
    typed = {key: _take(params, key, t, where, help_text) for key, t in keys.items()}
    if params:
        raise ParameterError(f"unknown keys {sorted(params)} in {where}\n{help_text}")
    return name, typed, build(*typed.values())
