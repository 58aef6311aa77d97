"""Command-line front end: load JSON inputs, run queries, print certificates.

Every command prints a deterministic plain-text report with all numbers
as exact decimal-free rationals; the --decimal flag appends a clearly
marked float approximation to non-integer values, and --quiet keeps
verdict lines but drops certificate detail.

A subcommand runs as a script of one query, through the same parser and
loop.  An exchangeable model answers on count vectors and prints its
certificates on sequences.

Exit codes: 0 for a completed report, 2 when the model at hand is
incoherent (a failed coherence check, or a query that requires
coherence the model lacks), 1 for I/O or schema problems.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Union

from . import bernstein as bn
from . import exchangeability as ex
from .cones import (
    DesirCone,
    IncoherentConeError,
    PrevisionValue,
    lower_prevision,
    membership_report,
    upper_prevision,
)
from .gambles import Gamble, SequenceSpace, count_representation, count_vector
from .io import (
    AssessmentSpec,
    Query,
    SchemaError,
    format_rational,
    load_json,
    parse_assessment,
    parse_query,
    parse_script,
    point_key,
)

__all__ = ["main"]


@dataclass(frozen=True)
class _Options:
    decimal: bool
    quiet: bool
    cap: int


def _effective_cap(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get("DESIR_CAP")
    if raw is None:
        return bn.DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SchemaError("DESIR_CAP", f"expected a positive integer, got {raw!r}") from None
    if cap < 1:
        raise SchemaError("DESIR_CAP", "expected a positive integer")
    return cap


def _rat(value: Fraction, opts: _Options) -> str:
    text = format_rational(value)
    if opts.decimal and value.denominator != 1:
        text += f" (~{float(value):.6g})"
    return text


def _gamble_inline(g: Gamble, opts: _Options) -> str:
    return " ".join(f"{point_key(g.space, p)}={_rat(v, opts)}" for p, v in g.items())


def _weights_inline(prefix: str, weights, opts: _Options) -> str:
    return " ".join(f"{prefix}{i}={_rat(w, opts)}" for i, w in enumerate(weights))


def _prevision_text(pv: PrevisionValue, opts: _Options) -> str:
    if pv.kind == "value":
        assert pv.value is not None
        return _rat(pv.value, opts)
    return "unbounded above" if pv.kind == "unbounded_above" else "unbounded below"


def _theta_text(theta: bn.FrequencyVector) -> str:
    return ",".join(format_rational(v) for v in theta.values)


def _weight_lines(certificate, space, opts: _Options) -> list[str]:
    """The weights of an avoidance witness or a membership decomposition."""
    lines = []
    if certificate.generator_weights:
        lines.append(
            "  generator weights: " + _weights_inline("g", certificate.generator_weights, opts)
        )
    if certificate.indicator_weights:
        lines.append(
            "  indicator weights: "
            + " ".join(
                f"{point_key(space, p)}={_rat(w, opts)}"
                for p, w in certificate.indicator_weights
            )
        )
    if any(certificate.lineality_weights):
        lines.append(
            "  lineality weights: " + _weights_inline("u", certificate.lineality_weights, opts)
        )
    return lines


def _witness_lines(witness, opts: _Options) -> list[str]:
    return [f"witness combination: {_gamble_inline(witness.combination, opts)}",
            *_weight_lines(witness, witness.combination.space, opts)]


def _execute(
    spec: Optional[AssessmentSpec],
    model: Callable[[bool], Union[DesirCone, ex.ExchangeableModel]],
    query: Query,
    opts: _Options,
) -> tuple[list[str], bool]:
    """Run one query; returns the report lines and an incoherence flag.

    model(True) is the exchangeable model of the spec's generators, and
    model(False) the cone with the spec's explicit lineality.
    """
    if query.op in ("check", "member", "lpr"):
        assert spec is not None
        exchangeable = spec.lineality == "exchangeable"
        cone = model(exchangeable)

    if query.op == "check":
        report = cone.avoidance()
        label = "avoids non-positivity under exchangeability" if exchangeable else "avoids non-positivity"
        lines = [f"{label}: {'true' if report.avoids else 'false'}"]
        if not report.avoids and not opts.quiet:
            assert report.witness is not None
            lines.extend(_witness_lines(report.witness, opts))
        return lines, not report.avoids

    if query.op == "member":
        f = query.params["gamble"]
        report = cone.membership_report(f) if exchangeable else membership_report(cone, f)
        lines = [f"member: {'yes' if report.member else 'no'}"]
        if report.member and not opts.quiet:
            lines.append("decomposition:")
            lines.extend(_weight_lines(report, cone.space, opts))
        return lines, False

    if query.op == "lpr":
        f = query.params["gamble"]
        if exchangeable:
            cone, f = cone.count_cone, count_representation(f)
        lower = lower_prevision(cone, f)
        lines = [
            f"lower prevision: {_prevision_text(lower, opts)}",
            f"upper prevision: {_prevision_text(upper_prevision(cone, f), opts)}",
        ]
        return lines, lower.kind == "unbounded_above"

    if query.op == "update":
        exchangeable_model = model(True)
        categories = exchangeable_model.categories
        lines = []
        if "counts" in query.params:
            observed = query.params["counts"]
            g = query.params["gamble"]
            lines.append("observed counts: " + ",".join(str(c) for c in observed))
            transformed = ex.update_count_gamble(g, observed)
            verdict = ex.updated_member(exchangeable_model, observed, g)
        else:
            prefix = query.params["sample"]
            f = query.params["gamble"]
            observed = count_vector(prefix, categories)
            lines.append(
                "observed sample: "
                + point_key(SequenceSpace(categories, len(prefix)), prefix)
                + " (counts " + ",".join(str(c) for c in observed) + ")"
            )
            transformed = ex.update_count_gamble(count_representation(f), observed)
            verdict = ex.updated_sample_member(exchangeable_model, prefix, f)
        lines.append(f"updated member: {'yes' if verdict else 'no'}")
        if not opts.quiet:
            lines.append(f"transformed count gamble: {_gamble_inline(transformed, opts)}")
        return lines, False

    if query.op == "extend-finite":
        assert spec is not None and isinstance(spec.space, SequenceSpace)
        extra = query.params["extra"]
        decision = ex.extend_finite(spec.space, spec.generators, extra)
        if decision.extendable:
            lines = ["extendable: yes", f"extended length: {spec.space.length + extra}"]
            return lines, False
        lines = ["extendable: no"]
        if not opts.quiet:
            assert decision.witness is not None and decision.sequence_loss is not None
            lines.extend(_witness_lines(decision.witness, opts))
            lines.append(f"sure loss (sequences): {_gamble_inline(decision.sequence_loss, opts)}")
        return lines, False

    if query.op == "extend-infinite":
        assert spec is not None and isinstance(spec.space, SequenceSpace)
        cap = query.params.get("cap", opts.cap)
        decision = bn.extend_infinite(spec.space, spec.generators, cap)
        verdict = decision.verdict
        assert verdict is not None
        if decision.status == "extendable":
            lines = ["extendable: yes"]
            if verdict.degree is not None:
                lines.append(f"certified at degree: {verdict.degree}")
            if verdict.threshold is not None and not opts.quiet:
                lines.append(f"coefficient floor: {_rat(verdict.threshold, opts)}")
            return lines, False
        if decision.status == "not_extendable":
            lines = ["extendable: no", f"violated at degree: {verdict.degree}"]
            if not opts.quiet:
                lines.append("  weights: " + _weights_inline("g", verdict.weights, opts))
                assert verdict.combination is not None
                lines.append(f"  combination: {_gamble_inline(verdict.combination, opts)}")
            return lines, False
        return ["extendable: undecided", f"searched up to degree: {cap}"], False

    assert query.op == "bernstein"
    return _execute_bernstein(query, opts), False


def _expansion_lines(label: str, verdict: bn.ExpansionVerdict, opts: _Options) -> list[str]:
    if verdict.status == "yes":
        lines = [f"{label}: yes at degree {verdict.degree}"]
        if not opts.quiet:
            assert verdict.certificate is not None
            lines.append(f"  coefficients: {_gamble_inline(verdict.certificate, opts)}")
        return lines
    if verdict.status == "never":
        lines = [f"{label}: never"]
        if not opts.quiet:
            if verdict.witness_point is not None:
                assert verdict.witness_value is not None
                lines.append(
                    f"  witness point: {_theta_text(verdict.witness_point)}"
                    f" value: {_rat(verdict.witness_value, opts)}"
                )
            else:
                assert verdict.bound is not None
                lines.append(
                    f"  coefficient bound: {_rat(verdict.bound, opts)}"
                    f" at degree {verdict.degree}"
                )
        return lines
    return [f"{label}: undecided at cap {verdict.cap}"]


def _execute_bernstein(query: Query, opts: _Options) -> list[str]:
    action = query.params["action"]
    p = query.params["polynomial"]
    if action == "expand":
        cap = query.params.get("cap", opts.cap)
        if cap < p.degree:
            raise SchemaError("cap", "the cap is below the polynomial's degree")
        lines = _expansion_lines("positive expansion", bn.has_positive_expansion(p, cap), opts)
        lines.extend(
            _expansion_lines("nonpositive expansion", bn.has_nonpositive_expansion(p, cap), opts)
        )
        return lines
    if action == "raise":
        to = query.params["to"]
        raised = p.raised(to)
        return [f"coefficients at degree {to}: {_gamble_inline(raised, opts)}"]
    if action == "range":
        to = query.params["to"]
        lo, hi = bn.coeff_range(p, to)
        return [f"coefficient range at degree {to}: [{_rat(lo, opts)}, {_rat(hi, opts)}]"]
    assert action == "eval"
    theta = query.params["at"]
    value = p.evaluate(theta)
    return [f"value at {_theta_text(theta)}: {_rat(value, opts)}"]


def _load_assessment_arg(path: str, exchangeable: bool) -> AssessmentSpec:
    spec = parse_assessment(load_json(path), "assessment")
    if exchangeable:
        if not isinstance(spec.space, SequenceSpace):
            raise SchemaError("--exchangeable", "needs a sequence-space assessment")
        spec = AssessmentSpec(spec.space, spec.generators, "exchangeable")
    return spec


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desir",
        description="Coherence, natural extension, exchangeability, and "
        "Bernstein queries over assessments of desirable gambles, "
        "in exact rational arithmetic.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=None, metavar="N",
                        help="degree cap for Bernstein searches (default: "
                        "DESIR_CAP or 64)")
    common.add_argument("--decimal", action="store_true",
                        help="append non-authoritative float approximations")
    common.add_argument("--quiet", action="store_true",
                        help="print verdicts only, no certificates")

    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[common], help="run a JSON query script")
    run.add_argument("script", help="path to the script file")

    for name, needs_gamble in (("check", False), ("member", True), ("lpr", True)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("assessment", help="path to the assessment file")
        if needs_gamble:
            p.add_argument("gamble", help="path to the gamble file")
        p.add_argument("--exchangeable", action="store_true",
                       help="decide on count vectors, print sequence certificates")

    upd = sub.add_parser("update", parents=[common])
    upd.add_argument("assessment")
    upd.add_argument("gamble", help="gamble on the remaining variables")
    group = upd.add_mutually_exclusive_group(required=True)
    group.add_argument("--counts", help="observed counts, e.g. '1,0'")
    group.add_argument("--sample", help="observed sample, e.g. 'bw'")

    extf = sub.add_parser("extend-finite", parents=[common])
    extf.add_argument("assessment")
    extf.add_argument("--extra", type=int, required=True, metavar="K",
                      help="number of additional variables")

    exti = sub.add_parser("extend-infinite", parents=[common])
    exti.add_argument("assessment")

    bern = sub.add_parser("bernstein", parents=[common])
    bern.add_argument("action", choices=("expand", "raise", "range", "eval"))
    bern.add_argument("polynomial", help="path to the polynomial file")
    bern.add_argument("--to", type=int, default=None, metavar="N",
                      help="target degree for raise/range")
    bern.add_argument("--at", default=None, metavar="THETA",
                      help="frequency vector for eval, e.g. '1/2,1/2'")
    return parser


_NOT_OPERANDS = frozenset(("command", "assessment", "exchangeable", "cap", "decimal", "quiet"))


def _build_query(args: argparse.Namespace) -> dict:
    """The script query document that a subcommand's arguments stand for."""
    operands = {k: v for k, v in vars(args).items() if k not in _NOT_OPERANDS and v is not None}
    return {"op": args.command, **operands}


def _run(
    spec: Optional[AssessmentSpec], queries: tuple[Query, ...], opts: _Options, numbered: bool
) -> tuple[list[str], int]:
    """Run the queries in order on one model; returns the report and the exit code.

    The model is built on first use and kept for the run.  The first
    query that needs coherence the model lacks ends the run.
    """

    @functools.cache
    def model(exchangeable: bool) -> Union[DesirCone, ex.ExchangeableModel]:
        assert spec is not None
        if exchangeable:
            return ex.ExchangeableModel(spec.space, spec.generators)  # type: ignore[arg-type]
        return DesirCone(spec.space, spec.generators, spec.lineality)  # type: ignore[arg-type]

    lines: list[str] = []
    exit_code = 0
    for i, query in enumerate(queries, start=1):
        if numbered:
            lines.append(f"[{i}] {query.op}")
        try:
            body, incoherent = _execute(spec, model, query, opts)
        except IncoherentConeError as exc:
            lines.append("error: incoherent model")
            if exc.witness is not None and not opts.quiet:
                lines.extend(_witness_lines(exc.witness, opts))
            return lines, 2
        lines.extend(body)
        if incoherent:
            exit_code = 2
    return lines, exit_code


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        opts = _Options(args.decimal, args.quiet, _effective_cap(args.cap))
        if args.command == "run":
            path = Path(args.script)
            script = parse_script(load_json(path), path.parent)
            spec, queries = script.spec, script.queries
            if script.cap is not None:
                opts = _Options(opts.decimal, opts.quiet, script.cap)
        else:
            spec = None
            if args.command != "bernstein":
                spec = _load_assessment_arg(args.assessment, getattr(args, "exchangeable", False))
            queries = (parse_query(_build_query(args), args.command, spec, Path()),)
        lines, code = _run(spec, queries, opts, numbered=args.command == "run")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
