"""Which functions a traced run wraps, and the per-layer metrics it reports.

One layer per ``gengap`` module: cli, codebook, encoding, instance_gd,
instance_sgd, instance_smallstep, optim, smoothing, risk, verify.  Spans
named ``bench.*`` are the benchmark's own code and belong to no layer.

Every metric is computed per traced unit of work and the report takes the
median over traced units.  A metric whose layer the workload does not
exercise reads 0.  ``kind`` says how a value was obtained: ``measured``
(a clock), or ``computed`` (a count that repeats exactly for fixed inputs,
or a byte size computed from array shapes).
"""

import math
import statistics
import sys

CHUNK = 8192  # rows per Monte Carlo chunk in gengap.risk and gengap.smoothing

LAYERS = ("cli", "codebook", "encoding", "instance_gd", "instance_sgd",
          "instance_smallstep", "optim", "smoothing", "risk", "verify")
FAMILIES = ("gd", "sgd", "smallstep")


def _rows_of_point(args, kwargs, result):
    w = args[0]
    return {"rows": w.shape[0] if getattr(w, "ndim", 1) == 2 else 0}


def _rows_of_masks(args, kwargs, result):
    return {"rows": len(args[1])}


def _rows_of_size(args, kwargs, result):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return {"rows": 1 if size is None else int(size)}


def _trajectory_bytes(args, kwargs, result):
    return {"bytes": getattr(result, "iterates", result).nbytes}


def _saved_bytes(args, kwargs, result):
    return {"bytes": args[0].iterates.nbytes}


def _mc_samples(args, kwargs, result):
    default = sys.modules["gengap.risk"].DEFAULT_SAMPLES
    return {"samples": kwargs.get("n_samples", args[3] if len(args) > 3 else default)}


def _smoothing_chunks(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"samples": cfg.samples, "antithetic": cfg.antithetic}


def _trace_loss(recorder, args, kwargs):
    """Give the estimator a loss whose calls are spans (rows per call)."""
    loss = recorder.wrap(args[0], "smoothing.loss", _rows_of_point)
    return (loss,) + tuple(args[1:]), kwargs


def _t(module, attr, attrs=None, prepare=None, name=None):
    return ("gengap." + module, attr, f"{module}.{name or attr}", attrs, prepare)


TARGETS = (
    _t("cli", "main"),
    _t("codebook", "generate_codebook"),
    _t("codebook", "load_codebook"),
    _t("codebook", "save_codebook"),
    _t("encoding", "decode_blocks"),
    _t("instance_gd", "grad_gd"),
    _t("instance_gd", "grad_gd_batch"),
    _t("instance_gd", "loss_gd", _rows_of_point),
    _t("instance_gd", "loss_gd_samples", _rows_of_masks),
    _t("instance_sgd", "sample_sgd_dataset"),
    _t("instance_sgd", "force_good_event_sgd"),
    _t("instance_sgd", "good_event_sgd"),
    _t("instance_sgd", "grad_sgd"),
    _t("instance_sgd", "loss_sgd", _rows_of_point),
    _t("instance_sgd", "loss_sgd_samples", _rows_of_masks),
    _t("instance_smallstep", "grad_smallstep"),
    _t("instance_smallstep", "loss_smallstep", _rows_of_point),
    _t("optim", "run_gd", _trajectory_bytes, name="run"),
    _t("optim", "run_sgd", _trajectory_bytes, name="run"),
    _t("optim", "run_smallstep", _trajectory_bytes, name="run"),
    _t("optim", "save_trajectory", _saved_bytes),
    _t("risk", "gap_report"),
    _t("risk", "empirical_risk"),
    _t("risk", "population_risk_mc", _mc_samples),
    _t("risk", "population_risk_closed_gd"),
    _t("verify", "check_trajectory"),
    _t("verify", "check_margins"),
    _t("verify", "check_norm_bound"),
    _t("verify", "expected_gd_iterate"),
    _t("verify", "expected_sgd_iterate"),
    _t("smoothing", "smoothed_value", _smoothing_chunks, _trace_loss),
    _t("smoothing", "smoothed_grad", _smoothing_chunks, _trace_loss),
    _t("smoothing", "verify_trajectory_preservation"),
    _t("smoothing", "sphere_sample", _rows_of_size),
    _t("smoothing", "ball_sample", _rows_of_size),
)

# (name, unit, kind, better): the per-layer metrics, in report order
METRICS = [
    ("instance_gd.grad_calls", "count", "computed", "lower"),
    ("instance_gd.grad_s", "s", "measured", "lower"),
    ("instance_gd.grad_batch_s", "s", "measured", "lower"),
    ("instance_gd.grad_batch_s_p95", "s", "measured", "lower"),
    ("instance_gd.loss_batch_s_per_chunk", "s", "measured", "lower"),
    ("instance_sgd.grad_calls", "count", "computed", "lower"),
    ("instance_sgd.grad_s", "s", "measured", "lower"),
    ("instance_sgd.force_s", "s", "measured", "lower"),
    ("instance_sgd.loss_samples_s_per_chunk", "s", "measured", "lower"),
    ("instance_sgd.loss_batch_s_per_chunk", "s", "measured", "lower"),
    ("instance_smallstep.loss_batch_s_per_chunk", "s", "measured", "lower"),
    ("optim.run_self_s", "s", "measured", "lower"),
    ("optim.trajectory_mb", "MB", "computed", "lower"),
    ("optim.save_s", "s", "measured", "lower"),
    ("optim.checkpoint_mb", "MB", "computed", "lower"),
    ("encoding.decode_calls", "count", "computed", "lower"),
    ("encoding.decode_s", "s", "measured", "lower"),
    ("verify.check_trajectory_s", "s", "measured", "lower"),
    ("verify.check_margins_s", "s", "measured", "lower"),
    ("verify.check_norm_bound_s", "s", "measured", "lower"),
    ("risk.population_mc_s", "s", "measured", "lower"),
    ("risk.mc_samples_per_s", "1/s", "measured", "higher"),
    ("risk.empirical_s", "s", "measured", "lower"),
    ("smoothing.sample_s_per_chunk", "s", "measured", "lower"),
    ("smoothing.loss_rows", "count", "computed", "lower"),
    ("smoothing.loss_rows_per_s", "1/s", "measured", "higher"),
]
METRICS += [(f"smoothing.{f}.{m}", "s", "measured", "lower")
            for f in FAMILIES for m in ("value_s_per_chunk", "grad_s_per_chunk")]
METRICS += [(f"smoothing.{f}.max_z", "z", "measured", "lower") for f in FAMILIES]
METRICS += [("codebook.generate_s", "s", "measured", "lower")]
METRICS += [(f"{layer}.self_s", "s", "measured", "lower") for layer in LAYERS]
METRICS += [
    ("bench.untraced_wall_s", "s", "measured", "lower"),
    ("bench.traced_wall_s", "s", "measured", "lower"),
    ("bench.trace_overhead_s", "s", "measured", "lower"),
    ("bench.unattributed_s", "s", "measured", "lower"),
]


def _median(values):
    return statistics.median(values) if values else 0.0


def _p95(values):
    if len(values) >= 20:
        return statistics.quantiles(values, n=20)[18]
    return max(values, default=0.0)


def _chunks(attrs):
    count = attrs["samples"] // 2 if attrs["antithetic"] else attrs["samples"]
    return math.ceil(count / CHUNK)


def unit_metrics(spans, self_time, wall):
    """Per-layer metrics of one traced unit (spans in start order)."""
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def durations(name, rows=None):
        return [spans[i].duration for i in by_name.get(name, ())
                if rows is None or spans[i].attrs["rows"] == rows]

    def total(name):
        return sum(durations(name))

    def count(name):
        return len(by_name.get(name, ()))

    def self_sum(name):
        return sum(self_time[i] for i in by_name.get(name, ()))

    mc_time = total("risk.population_risk_mc")
    mc_samples = sum(spans[i].attrs["samples"]
                     for i in by_name.get("risk.population_risk_mc", ()))
    loss_rows = sum(spans[i].attrs["rows"]
                    for i in by_name.get("smoothing.loss", ()))
    loss_time = total("smoothing.loss")
    samplers = [s.duration for s in spans
                if s.name in ("smoothing.sphere_sample", "smoothing.ball_sample")
                and s.attrs["rows"] == CHUNK
                and not (s.parent >= 0 and spans[s.parent].name
                         in ("smoothing.sphere_sample", "smoothing.ball_sample"))]
    trajectories = [spans[i].attrs["bytes"] for i in by_name.get("optim.run", ())]
    saved = [spans[i].attrs["bytes"] for i in by_name.get("optim.save_trajectory", ())]

    out = {
        "instance_gd.grad_calls": count("instance_gd.grad_gd"),
        "instance_gd.grad_s": total("instance_gd.grad_gd"),
        "instance_gd.grad_batch_s": _median(durations("instance_gd.grad_gd_batch")),
        "instance_gd.grad_batch_s_p95": _p95(durations("instance_gd.grad_gd_batch")),
        "instance_gd.loss_batch_s_per_chunk":
            _median(durations("instance_gd.loss_gd", CHUNK)),
        "instance_sgd.grad_calls": count("instance_sgd.grad_sgd"),
        "instance_sgd.grad_s": total("instance_sgd.grad_sgd"),
        "instance_sgd.force_s": total("instance_sgd.force_good_event_sgd"),
        "instance_sgd.loss_samples_s_per_chunk":
            _median(durations("instance_sgd.loss_sgd_samples", CHUNK)),
        "instance_sgd.loss_batch_s_per_chunk":
            _median(durations("instance_sgd.loss_sgd", CHUNK)),
        "instance_smallstep.loss_batch_s_per_chunk":
            _median(durations("instance_smallstep.loss_smallstep", CHUNK)),
        "optim.run_self_s": self_sum("optim.run"),
        "optim.trajectory_mb": max(trajectories, default=0) / 1e6,
        "optim.save_s": total("optim.save_trajectory"),
        "optim.checkpoint_mb": max(saved, default=0) / 1e6,
        "encoding.decode_calls": count("encoding.decode_blocks"),
        "encoding.decode_s": total("encoding.decode_blocks"),
        "verify.check_trajectory_s": total("verify.check_trajectory"),
        "verify.check_margins_s": total("verify.check_margins"),
        "verify.check_norm_bound_s": total("verify.check_norm_bound"),
        "risk.population_mc_s": mc_time,
        "risk.mc_samples_per_s": mc_samples / mc_time if mc_time else 0.0,
        "risk.empirical_s": total("risk.empirical_risk"),
        "smoothing.sample_s_per_chunk": _median(samplers),
        "smoothing.loss_rows": loss_rows,
        "smoothing.loss_rows_per_s": loss_rows / loss_time if loss_time else 0.0,
    }

    per_family = {(f, k): [] for f in FAMILIES for k in ("value", "grad")}
    for span in spans:
        kind = {"smoothing.smoothed_value": "value",
                "smoothing.smoothed_grad": "grad"}.get(span.name)
        if kind is None:
            continue
        family = _family_of(spans, span)
        if family is not None:
            per_family[family, kind].append(span.duration / _chunks(span.attrs))
    for (family, kind), values in per_family.items():
        out[f"smoothing.{family}.{kind}_s_per_chunk"] = _median(values)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_time):
        layer = span.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    out["bench.unattributed_s"] = wall - sum(layer_self.values())
    return out


def _family_of(spans, span):
    """The family named by the closest enclosing bench span, if any."""
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name.startswith("bench.") and span.attrs:
            return span.attrs.get("family")
    return None


def setup_metrics(setup_spans):
    """codebook.generate_s: median over set-ups of the generation time."""
    per_setup = [sum(s.duration for s in spans
                     if s.name == "codebook.generate_codebook")
                 for spans in setup_spans]
    return {"codebook.generate_s": _median(per_setup)}
