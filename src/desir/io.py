"""JSON formats for spaces, gambles, assessments, polynomials, and scripts.

Every number travels as an exact decimal-free string: an integer like
"-3" or a ratio like "2/7".  Sequence points are keyed by concatenating
their category labels when all labels are single characters, and by
comma-joining them otherwise; count vectors are always keyed by
comma-separated counts.  Formatting walks domains in their canonical
enumeration order, so equal values serialize to identical bytes.

Schema problems raise SchemaError naming the offending field.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from .bernstein import BernsteinPoly, FrequencyVector
from .gambles import (
    CountSpace,
    Counts,
    Gamble,
    Sequence,
    SequenceSpace,
    Space,
)

__all__ = [
    "AssessmentSpec",
    "Query",
    "QueryScript",
    "SchemaError",
    "format_gamble",
    "format_polynomial",
    "format_rational",
    "format_space",
    "load_json",
    "parse_assessment",
    "parse_counts",
    "parse_frequency",
    "parse_gamble",
    "parse_polynomial",
    "parse_query",
    "parse_rational",
    "parse_script",
    "parse_space",
    "point_key",
]

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")

_QUERY_OPS = (
    "check",
    "member",
    "lpr",
    "update",
    "extend-finite",
    "extend-infinite",
    "bernstein",
)

_BERNSTEIN_ACTIONS = ("expand", "raise", "range", "eval")


class SchemaError(ValueError):
    """A malformed document; the message names the offending field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


def load_json(path: Union[str, Path]) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"invalid JSON: {exc}") from exc


def parse_rational(value: Any, field: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(field, "expected an exact rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.match(value):
        return Fraction(value)
    raise SchemaError(
        field, f"expected an exact rational like '-3' or '2/7', got {value!r}"
    )


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _require_dict(obj: Any, field: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(field, f"expected an object, got {type(obj).__name__}")
    return obj


def _parse_categories(obj: Any, field: str) -> tuple[str, ...]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(field, "expected a non-empty list of category labels")
    labels = []
    for i, label in enumerate(obj):
        if not isinstance(label, str) or not label:
            raise SchemaError(f"{field}[{i}]", "category labels are non-empty strings")
        if "," in label:
            raise SchemaError(f"{field}[{i}]", "category labels must not contain commas")
        labels.append(label)
    if len(set(labels)) != len(labels):
        raise SchemaError(field, "category labels must be distinct")
    return tuple(labels)


def parse_space(obj: Any, field: str = "space") -> Space:
    body = _require_dict(obj, field)
    categories = _parse_categories(body.get("categories"), f"{field}.categories")
    has_length = "length" in body
    has_total = "total" in body
    if has_length == has_total:
        raise SchemaError(
            field, "exactly one of 'length' (sequences) or 'total' (counts) is required"
        )
    if has_length:
        length = body["length"]
        if not isinstance(length, int) or isinstance(length, bool) or length < 1:
            raise SchemaError(f"{field}.length", "expected a positive integer")
        return SequenceSpace(categories, length)
    total = body["total"]
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        raise SchemaError(f"{field}.total", "expected a nonnegative integer")
    return CountSpace(categories, total)


def format_space(space: Space) -> dict:
    if isinstance(space, SequenceSpace):
        return {"categories": list(space.categories), "length": space.length}
    return {"categories": list(space.categories), "total": space.total}


def _single_char_labels(categories: tuple[str, ...]) -> bool:
    return all(len(z) == 1 for z in categories)


def point_key(space: Space, point: Union[Sequence, Counts]) -> str:
    """The canonical JSON key of a domain point."""
    if isinstance(space, SequenceSpace):
        if _single_char_labels(space.categories):
            return "".join(point)  # type: ignore[arg-type]
        return ",".join(point)  # type: ignore[arg-type]
    return ",".join(str(c) for c in point)


def _parse_point_key(space: Space, key: str, field: str) -> Union[Sequence, Counts]:
    if isinstance(space, SequenceSpace):
        if "," in key or not _single_char_labels(space.categories):
            parts: tuple = tuple(key.split(","))
        else:
            parts = tuple(key)
        if len(parts) != space.length:
            raise SchemaError(field, f"key {key!r} does not name a length-{space.length} sequence")
        for symbol in parts:
            if symbol not in space.categories:
                raise SchemaError(field, f"key {key!r} uses unknown label {symbol!r}")
        return parts
    pieces = key.split(",")
    if len(pieces) != len(space.categories):
        raise SchemaError(field, f"key {key!r} does not have one count per category")
    try:
        counts = tuple(int(piece) for piece in pieces)
    except ValueError:
        raise SchemaError(field, f"key {key!r} holds non-integer counts") from None
    if any(c < 0 for c in counts):
        raise SchemaError(field, f"key {key!r} holds negative counts")
    if sum(counts) != space.total:
        raise SchemaError(field, f"key {key!r} does not sum to {space.total}")
    return counts


def _parse_values(space: Space, obj: Any, field: str) -> Gamble:
    body = _require_dict(obj, field)
    seen: dict = {}
    for key, raw in body.items():
        point = _parse_point_key(space, key, f"{field}.{key}")
        if point in seen:
            raise SchemaError(f"{field}.{key}", "duplicate point")
        seen[point] = parse_rational(raw, f"{field}.{key}")
    missing = [p for p in space.points() if p not in seen]
    if missing:
        raise SchemaError(field, f"missing value for point {point_key(space, missing[0])!r}")
    return Gamble.from_mapping(space, seen)


def parse_gamble(
    obj: Any, field: str = "gamble", default_space: Optional[Space] = None
) -> Gamble:
    """Read a gamble object; a bare values mapping inherits the given space."""
    body = _require_dict(obj, field)
    if "values" in body:
        space = default_space
        if "space" in body:
            space = parse_space(body["space"], f"{field}.space")
            if default_space is not None and space != default_space:
                raise SchemaError(f"{field}.space", "space does not match its context")
        if space is None:
            raise SchemaError(field, "no space given and none available from context")
        return _parse_values(space, body["values"], f"{field}.values")
    if default_space is None:
        raise SchemaError(field, "expected an object with 'space' and 'values'")
    return _parse_values(default_space, body, field)


def format_gamble(g: Gamble, include_space: bool = True) -> dict:
    values = {point_key(g.space, p): format_rational(v) for p, v in g.items()}
    if include_space:
        return {"space": format_space(g.space), "values": values}
    return {"values": values}


@dataclass(frozen=True)
class AssessmentSpec:
    """A parsed assessment: space, generators, and the lineality directive.

    The lineality is the string "exchangeable", meaning the space's
    symmetrization kernel, or an explicit tuple of gambles (possibly
    empty).
    """

    space: Space
    generators: tuple[Gamble, ...]
    lineality: Union[str, tuple[Gamble, ...]]


def parse_assessment(obj: Any, field: str = "assessment") -> AssessmentSpec:
    body = _require_dict(obj, field)
    if "space" not in body:
        raise SchemaError(f"{field}.space", "an assessment needs a space")
    space = parse_space(body["space"], f"{field}.space")
    raw_generators = body.get("generators", [])
    if not isinstance(raw_generators, list):
        raise SchemaError(f"{field}.generators", "expected a list of gambles")
    generators = tuple(
        parse_gamble(item, f"{field}.generators[{i}]", space)
        for i, item in enumerate(raw_generators)
    )
    lineality = _parse_lineality(body.get("lineality", "none"), space, f"{field}.lineality")
    return AssessmentSpec(space, generators, lineality)


def _parse_lineality(raw: Any, space: Space, field: str) -> Union[str, tuple[Gamble, ...]]:
    if raw == "exchangeable":
        if not isinstance(space, SequenceSpace):
            raise SchemaError(field, "'exchangeable' needs a sequence space")
        return "exchangeable"
    if raw == "none" or raw is None:
        return ()
    if isinstance(raw, list):
        return tuple(parse_gamble(item, f"{field}[{i}]", space) for i, item in enumerate(raw))
    raise SchemaError(field, "expected 'exchangeable', 'none', or a list of gambles")


def parse_polynomial(obj: Any, field: str = "polynomial") -> BernsteinPoly:
    body = _require_dict(obj, field)
    categories = _parse_categories(body.get("categories"), f"{field}.categories")
    degree = body.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise SchemaError(f"{field}.degree", "expected a nonnegative integer")
    space = CountSpace(categories, degree)
    coefficients = _parse_values(space, body.get("coefficients"), f"{field}.coefficients")
    return BernsteinPoly(coefficients)


def format_polynomial(p: BernsteinPoly) -> dict:
    return {
        "categories": list(p.categories),
        "degree": p.degree,
        "coefficients": {
            point_key(p.coefficients.space, m): format_rational(v)
            for m, v in p.coefficients.items()
        },
    }


def parse_counts(value: Any, field: str, categories: tuple[str, ...]) -> Counts:
    """Read a count vector given as '1,0' or as a list of integers."""
    if isinstance(value, str):
        pieces = value.split(",")
        try:
            counts = tuple(int(piece) for piece in pieces)
        except ValueError:
            raise SchemaError(field, f"{value!r} holds non-integer counts") from None
    elif isinstance(value, list):
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in value):
            raise SchemaError(field, "expected a list of integers")
        counts = tuple(value)
    else:
        raise SchemaError(field, "expected a count string like '1,0' or a list")
    if len(counts) != len(categories):
        raise SchemaError(field, "expected one count per category")
    if any(c < 0 for c in counts):
        raise SchemaError(field, "counts must be nonnegative")
    return counts


def parse_sample(value: Any, field: str, categories: tuple[str, ...]) -> Sequence:
    """Read an observed sample given as a sequence key like 'bw' or 'b,w'."""
    if not isinstance(value, str) or not value:
        raise SchemaError(field, "expected a non-empty sequence string")
    if "," in value or not _single_char_labels(categories):
        prefix = tuple(value.split(","))
    else:
        prefix = tuple(value)
    for symbol in prefix:
        if symbol not in categories:
            raise SchemaError(field, f"unknown label {symbol!r}")
    return prefix


def parse_frequency(
    value: Any, categories: tuple[str, ...], field: str = "theta"
) -> FrequencyVector:
    """Read a simplex point given as '1/2,1/2' or as a label-keyed mapping."""
    if isinstance(value, str):
        pieces = value.split(",")
        if len(pieces) != len(categories):
            raise SchemaError(field, "expected one frequency per category")
        values = tuple(
            parse_rational(piece.strip(), f"{field}[{i}]") for i, piece in enumerate(pieces)
        )
    elif isinstance(value, dict):
        missing = [z for z in categories if z not in value]
        if missing:
            raise SchemaError(field, f"missing frequency for category {missing[0]!r}")
        unknown = [z for z in value if z not in categories]
        if unknown:
            raise SchemaError(field, f"unknown category {unknown[0]!r}")
        values = tuple(parse_rational(value[z], f"{field}.{z}") for z in categories)
    else:
        raise SchemaError(field, "expected '1/2,1/2' or a label-keyed mapping")
    try:
        return FrequencyVector(categories, values)
    except ValueError as exc:
        raise SchemaError(field, str(exc)) from None


@dataclass(frozen=True)
class Query:
    """One parsed script query: the operation name and its typed operands."""

    op: str
    params: Mapping[str, Any]


@dataclass(frozen=True)
class QueryScript:
    """A parsed script: the model directive plus the queries to run on it.

    The cap is None when the script leaves the degree cap to its caller.
    """

    spec: AssessmentSpec
    cap: Optional[int]
    queries: tuple[Query, ...]


def _maybe_load(obj: Any, base_dir: Path, field: str) -> Any:
    if isinstance(obj, str):
        return load_json(base_dir / obj)
    return obj


def _parse_cap(value: Any, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SchemaError(field, "expected a positive integer")
    return value


def parse_script(obj: Any, base_dir: Union[str, Path]) -> QueryScript:
    """Read a query script; string operands are paths relative to the script."""
    base = Path(base_dir)
    body = _require_dict(obj, "script")
    if "space" not in body:
        raise SchemaError("script.space", "a script needs a space")
    space = parse_space(body["space"], "script.space")

    model = _require_dict(body.get("model", {}), "script.model")
    spec = AssessmentSpec(space, (), ())
    if "assessment" in model and model["assessment"] is not None:
        loaded = _maybe_load(model["assessment"], base, "script.model.assessment")
        spec = parse_assessment(loaded, "script.model.assessment")
        if spec.space != space:
            raise SchemaError(
                "script.model.assessment.space", "space does not match the script's space"
            )
    if "generators" in model:
        if "assessment" in model and model["assessment"] is not None:
            raise SchemaError(
                "script.model.generators", "give either an assessment or generators, not both"
            )
        raw = model["generators"]
        if not isinstance(raw, list):
            raise SchemaError("script.model.generators", "expected a list of gambles")
        generators = tuple(
            parse_gamble(_maybe_load(item, base, f"script.model.generators[{i}]"),
                         f"script.model.generators[{i}]", space)
            for i, item in enumerate(raw)
        )
        spec = AssessmentSpec(space, generators, spec.lineality)
    if "lineality" in model:
        lineality = _parse_lineality(model["lineality"], space, "script.model.lineality")
        spec = AssessmentSpec(space, spec.generators, lineality)
    cap: Optional[int] = None
    if "cap" in model:
        cap = _parse_cap(model["cap"], "script.model.cap")

    raw_queries = body.get("queries")
    if not isinstance(raw_queries, list) or not raw_queries:
        raise SchemaError("script.queries", "expected a non-empty list of queries")
    queries = tuple(
        parse_query(item, f"script.queries[{i}]", spec, base)
        for i, item in enumerate(raw_queries)
    )
    return QueryScript(spec, cap, queries)


def parse_query(obj: Any, field: str, spec: Optional[AssessmentSpec], base: Path) -> Query:
    """Read one query on a model; string operands are paths under base.

    Only 'bernstein' queries, which need no model, may go without a spec.
    """
    body = _require_dict(obj, field)
    op = body.get("op")
    if op not in _QUERY_OPS:
        raise SchemaError(f"{field}.op", f"unknown operation {op!r}")
    space = spec.space if spec is not None else None
    if op in ("update", "extend-finite", "extend-infinite"):
        if not isinstance(space, SequenceSpace):
            raise SchemaError(field, f"'{op}' needs a sequence-space model")
        # These operations read the generators as exchangeable ones only.
        if spec.lineality and spec.lineality != "exchangeable":  # type: ignore[union-attr]
            raise SchemaError(field, f"'{op}' needs 'exchangeable' or no lineality")
    params: dict[str, Any] = {}

    if op == "check":
        pass
    elif op in ("member", "lpr"):
        if "gamble" not in body:
            raise SchemaError(f"{field}.gamble", f"'{op}' needs a gamble")
        loaded = _maybe_load(body["gamble"], base, f"{field}.gamble")
        params["gamble"] = parse_gamble(loaded, f"{field}.gamble", space)
    elif op == "update":
        has_counts = "counts" in body
        has_sample = "sample" in body
        if has_counts == has_sample:
            raise SchemaError(field, "'update' needs exactly one of 'counts' or 'sample'")
        if "gamble" not in body:
            raise SchemaError(f"{field}.gamble", "'update' needs a gamble")
        loaded = _maybe_load(body["gamble"], base, f"{field}.gamble")
        if has_counts:
            observed = parse_counts(body["counts"], f"{field}.counts", space.categories)
            remaining = space.length - sum(observed)
            if remaining < 0:
                raise SchemaError(f"{field}.counts", "more observations than variables")
            params["counts"] = observed
            params["gamble"] = parse_gamble(
                loaded, f"{field}.gamble", CountSpace(space.categories, remaining)
            )
        else:
            prefix = parse_sample(body["sample"], f"{field}.sample", space.categories)
            remaining = space.length - len(prefix)
            if remaining < 1:
                raise SchemaError(f"{field}.sample", "the sample leaves no variables")
            params["sample"] = prefix
            params["gamble"] = parse_gamble(
                loaded, f"{field}.gamble", SequenceSpace(space.categories, remaining)
            )
    elif op == "extend-finite":
        extra = body.get("extra")
        if not isinstance(extra, int) or isinstance(extra, bool) or extra < 0:
            raise SchemaError(f"{field}.extra", "expected a nonnegative integer")
        params["extra"] = extra
    elif op == "extend-infinite":
        if "cap" in body:
            params["cap"] = _parse_cap(body["cap"], f"{field}.cap")
    elif op == "bernstein":
        action = body.get("action")
        if action not in _BERNSTEIN_ACTIONS:
            raise SchemaError(f"{field}.action", f"unknown action {action!r}")
        params["action"] = action
        if "polynomial" not in body:
            raise SchemaError(f"{field}.polynomial", "'bernstein' needs a polynomial")
        loaded = _maybe_load(body["polynomial"], base, f"{field}.polynomial")
        polynomial = parse_polynomial(loaded, f"{field}.polynomial")
        params["polynomial"] = polynomial
        if action == "raise" or action == "range":
            to = body.get("to")
            if not isinstance(to, int) or isinstance(to, bool) or to < polynomial.degree:
                raise SchemaError(
                    f"{field}.to", "expected an integer at least the polynomial's degree"
                )
            params["to"] = to
        if action == "eval":
            if "at" not in body:
                raise SchemaError(f"{field}.at", "'eval' needs a frequency vector")
            params["at"] = parse_frequency(
                body["at"], polynomial.categories, f"{field}.at"
            )
        if action == "expand" and "cap" in body:
            params["cap"] = _parse_cap(body["cap"], f"{field}.cap")
    return Query(op, params)
