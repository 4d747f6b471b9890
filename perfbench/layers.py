"""Per-layer metrics of ntglab, read from a ``spans.Tracer``.

The layers are the eight ntglab modules.  Observers attached to a few
functions count what their arguments or results show: the argument region
of each ``upper_incomplete_gamma`` call, the distinct arguments of it and of
``normalizing_constant``, integrand evaluations returned by quadrature,
quadrature failures and the evaluations ``posterior_risk`` reports.
"""

from __future__ import annotations

import math

from spans import FnStats

LAYERS = ("specfun", "ntg", "blyth", "numint", "risk", "regress", "verify", "cli")

UIG = "specfun.upper_incomplete_gamma"
UIG_REGIONS = ("series", "continued_fraction", "small_shape", "recurrence")
VERIFY_CHECKS = (
    "check_conjugacy", "check_normalization", "check_q_identity",
    "check_lemma_bigint", "check_lemma_d", "check_lemma_smoments",
)


def uig_region(a: float, x: float) -> str:
    """The branch ``upper_incomplete_gamma`` takes for (a, x), decided from
    the arguments alone by the same tests the function applies."""
    if a >= 0.5:
        return "series" if x < a + 1.0 else "continued_fraction"
    if x >= 1.0:
        return "continued_fraction"
    if a != 0.0 and abs(a) < 0.5:
        return "small_shape"
    return "recurrence"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _observe_uig(tracer, st, args, kwargs, result, exc, dur):
    a, x = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "x")
    st.counts["specfun.uig.calls." + uig_region(a, x)] += 1
    tracer.distinct(st, "specfun.uig", (a, x))


def _observe_normalizing_constant(tracer, st, args, kwargs, result, exc, dur):
    prm = _arg(args, kwargs, 0, "params")
    key = (prm.p, prm.mu0.tobytes(), prm.kappa0, prm.alpha0, prm.beta0, prm.eps0)
    tracer.distinct(st, "ntg.normalizing_constant", key)


def _observe_integrate_1d(tracer, st, args, kwargs, result, exc, dur):
    if result is not None:
        st.counts["numint.integrate_1d.evals"] += result.n_evals
    elif type(exc).__name__ == "QuadratureError" and not hasattr(exc, "_perfbench_seen"):
        # A failure of a nested quadrature also leaves every enclosing
        # integrate_1d; count it once.
        exc._perfbench_seen = True
        st.counts["numint.quad_failures"] += 1


def _observe_posterior_risk(tracer, st, args, kwargs, result, exc, dur):
    if result is not None:
        st.counts["risk.posterior_risk.evals"] += result.n_evals


OBSERVERS = {
    UIG: _observe_uig,
    "ntg.normalizing_constant": _observe_normalizing_constant,
    "numint.integrate_1d": _observe_integrate_1d,
    "risk.posterior_risk": _observe_posterior_risk,
}


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was counted (den == 0)."""
    return num / den if den else 0.0


def distinct_ratio(distinct: int, calls: int) -> float:
    """Distinct arguments per call: 1.0 means no call repeated an earlier
    argument of the same operation; 0.0 when there were no calls."""
    if distinct > calls:
        raise ValueError(f"{distinct} distinct arguments among {calls} calls")
    return ratio(distinct, calls)


def layer_metrics(stats: dict, counts, traced_names, passes: int) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}`` from ``passes`` traced
    passes.

    Counts and times are per pass, so runs that fit a different number of
    passes compare.  A function that was never called reads 0 in every
    metric of it.
    """
    zero = FnStats()

    def st(name):
        return stats.get(name, zero)

    def per_call(name, scale):
        s = st(name)
        return ratio(s.incl_s, s.outer_calls) * scale

    def per_pass(total):
        return total / passes

    def count(key):
        return per_pass(counts.get(key, 0))

    out: dict[str, tuple[float, str]] = {}
    uig = st(UIG)
    out["specfun.uig.calls"] = (per_pass(uig.calls), "count")
    for region in UIG_REGIONS:
        key = "specfun.uig.calls." + region
        out[key] = (count(key), "count")
    out["specfun.uig.us_per_call"] = (per_call(UIG, 1e6), "us")
    out["specfun.uig.self_s"] = (per_pass(uig.self_s), "s")
    out["specfun.uig.distinct_ratio"] = (
        distinct_ratio(counts.get("specfun.uig.distinct", 0), uig.calls), "ratio")
    out["specfun.f_cdf.us_per_call"] = (per_call("specfun.f_cdf", 1e6), "us")
    out["specfun.f_quantile.ms_per_call"] = (per_call("specfun.f_quantile", 1e3), "ms")

    out["ntg.prior_density.calls"] = (per_pass(st("ntg.prior_density").calls), "count")
    out["ntg.prior_density.self_s"] = (per_pass(st("ntg.prior_density").self_s), "s")
    nc = st("ntg.normalizing_constant")
    out["ntg.normalizing_constant.distinct_ratio"] = (
        distinct_ratio(counts.get("ntg.normalizing_constant.distinct", 0), nc.calls),
        "ratio")
    sp = st("ntg.sample_prior")
    out["ntg.sample_prior.draws_per_s"] = (ratio(sp.outer_calls, sp.incl_s), "1/s")

    out["blyth.lambda_posterior_density.calls"] = (
        per_pass(st("blyth.lambda_posterior_density").calls), "count")
    out["blyth.likelihood.calls"] = (per_pass(st("blyth.likelihood").calls), "count")
    for name in traced_names:
        if name.startswith("blyth."):
            out[name + ".self_s"] = (per_pass(st(name).self_s), "s")

    quad = st("numint.integrate_1d")
    out["numint.integrate_1d.calls"] = (per_pass(quad.calls), "count")
    out["numint.integrate_1d.evals"] = (count("numint.integrate_1d.evals"), "count")
    out["numint.integrate_1d.self_s"] = (per_pass(quad.self_s), "s")
    out["numint.quad_failures"] = (count("numint.quad_failures"), "count")

    pr = st("risk.posterior_risk")
    out["risk.posterior_risk.ms_per_call"] = (per_call("risk.posterior_risk", 1e3), "ms")
    out["risk.posterior_risk.evals_per_call"] = (
        ratio(counts.get("risk.posterior_risk.evals", 0), pr.calls), "count")
    out["risk.posterior_risk.self_s"] = (per_pass(pr.self_s), "s")

    out["regress.ols.us_per_call"] = (per_call("regress.ols", 1e6), "us")
    out["regress.standard_region.us_per_call"] = (
        per_call("regress.standard_region", 1e6), "us")

    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = (per_pass(st("verify." + check).incl_s), "s")
    out["cli.main.self_s"] = (per_pass(st("cli.main").self_s), "s")

    for layer in LAYERS:
        prefix = layer + "."
        members = [s for name, s in stats.items() if name.startswith(prefix)]
        out[layer + ".calls"] = (per_pass(sum(s.calls for s in members)), "count")
        out[layer + ".self_s"] = (per_pass(math.fsum(s.self_s for s in members)), "s")
    return out
