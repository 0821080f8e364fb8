"""The three workloads: inputs made from a seed, a closed loop of rounds, checks.

A run sets up its inputs several times (the median is ``setup_s``), then
repeats rounds of the same operations until the measuring time is spent;
each operation is timed on its own. Round 0's outputs are checked against
the references in ``checks``; every later round must reproduce them byte
for byte. An operation fails when it raises, exits non-zero, breaks a check
or differs from round 0.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import time

import numpy as np

import checks
import spans
from lcdet import cli, data, detector, evaluation, model, perfsim, quant, tensor, train

MODULES = {"tensor": tensor, "quant": quant, "model": model, "detector": detector,
           "evaluation": evaluation, "train": train, "data": data, "cli": cli}

EVAL_THRESHOLD = str(detector.DEFAULT_EVAL_SCORE_THRESHOLD)
NMS_IOU = detector.DEFAULT_NMS_IOU
MAIN_IOU = 0.5
SWEEP = (0.4, 0.5, 0.6)

# The untrained detectors' weights are part of the workload, not of its
# seeded inputs: how many of the 147 boxes per frame survive NMS varies 1.8x
# with the init seed (1127 to 2038 over 16 frames), against 3% with the
# image seed, and decode, NMS and eval costs follow it.
MODEL_SEED = 1705

# The one failure the benchmark expects: evaluation.tp_at_fp_budget cuts an
# FP budget inside a group of equal 8-bit scores, so the sweep row is not a
# point of the curve. toy-detect always gives that eval call such a budget.
KNOWN_FAULT = "sweep row not on the curve (tp_at_fp_budget cuts a tie)"


def _sha(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _grid_sha(grid) -> str:
    return hashlib.sha256(np.ascontiguousarray(grid).tobytes()).hexdigest()


class Bench:
    """One workload in one process. Subclasses define set-up, a round and checks."""

    setup_reps = 3
    setup_between_rounds = False
    warmup_rounds = 1
    expect_fault: tuple = ()  # eval op ids allowed to fail with KNOWN_FAULT only

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]
        self.problems: list[str] = []
        self.ops: list[dict] = []
        self.first: dict = {}       # round-0 outputs by op id, for the checks
        self.verdicts: dict = {}    # op id -> problems found in its round-0 output
        self.known: set = set()     # op ids whose only problem is KNOWN_FAULT
        self.budgets: dict = {}     # eval op id -> FP budget passed to lcdet eval

    # -- driving the program --------------------------------------------

    # Program functions are looked up on their modules at call time, so a
    # traced round reaches them through the tracer's wrappers.

    def cli(self, *argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"lcdet {argv[0]} exited {code}")

    def op(self, rnd, rep, op_id, kind, fn, n=1, output=None):
        """Time ``fn()``; ``output(result)`` gives the (fingerprint, payload) to keep."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = fn()
            error = None
        except Exception as e:  # an operation's failure is counted, not fatal
            result, error = None, f"{op_id}: {type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        fingerprint = payload = None
        if error is None and output is not None:
            fingerprint, payload = output(result)
        if rnd == 0 and op_id not in self.first:
            self.first[op_id] = {"kind": kind, "fingerprint": fingerprint, "payload": payload}
        self.ops.append({"round": rnd, "rep": rep, "id": op_id, "kind": kind, "n": n,
                         "seconds": seconds, "fingerprint": fingerprint, "error": error})
        return result

    def infer(self, rnd, op_id, model_path, images, out, mode):
        def run():
            self.cli("infer", "--model", model_path, "--mode", mode, "--score-threshold",
                     EVAL_THRESHOLD, "--nms-iou", NMS_IOU, "--out", out, "--force", *images)
        jsonl = os.path.join(out, "detections.jsonl")
        self.op(rnd, 0, op_id, "infer_" + ("u8" if mode == "quantized" else "float"), run,
                n=len(images), output=lambda _: (_sha(jsonl), (jsonl, images)))

    def quantize(self, rnd, float_path, calib_dir, out, limit=None):
        extra = ["--calib-limit", limit] if limit else []
        q_path = os.path.join(out, "model_q.lcdet")
        self.op(rnd, 0, "quantize", "quantize",
                lambda: self.cli("quantize", "--model", float_path, "--calib", calib_dir,
                                 "--out", out, "--force", *extra),
                output=lambda _: (_sha(q_path), q_path))
        return q_path

    def evaluate(self, rnd, rep, op_id, jsonl, gt_path, out, pin_tie=False):
        """``lcdet eval`` at the default FP budget (one per image), or with
        ``pin_tie`` at a budget inside a group of equal-score false positives."""
        if pin_tie and op_id not in self.budgets:
            pairs = checks.ref_pairs(checks.read_detections(jsonl), self.gts, MAIN_IOU)
            self.budgets[op_id] = checks.tie_budget(pairs)
            if self.budgets[op_id] is None:
                raise RuntimeError(f"{op_id}: no group of tied false positives to pin")
        budget = self.budgets.get(op_id)
        extra = ["--fp-budget", budget] if budget is not None else []
        names = [f"curve_iou{int(round(c * 100)):02d}.csv" for c in SWEEP] + ["iou_sweep.csv"]
        self.op(rnd, rep, op_id, "eval",
                lambda: self.cli("eval", "--detections", jsonl, "--ground-truth", gt_path,
                                 "--iou", MAIN_IOU, "--iou-sweep", ",".join(map(str, SWEEP)),
                                 "--out", out, "--force", *extra),
                output=lambda _: (_sha(*(os.path.join(out, n) for n in names)),
                                  {"out": out, "jsonl": jsonl, "budget": budget}))

    def train(self, rnd, dataset_dir, out, epochs, images):
        self.op(rnd, 0, "train", "train",
                lambda: self.cli("train", "--profile", "toy", "--dataset", dataset_dir,
                                 "--epochs", epochs, "--batch-size", 8, "--seed", self.seed,
                                 "--quiet", "--out", out, "--force"),
                n=epochs * images,
                output=lambda _: (_sha(os.path.join(out, "loss.csv"),
                                       os.path.join(out, "model.lcdet")), out))

    def forwards(self, rnd, kind, net, frames, mode, first=0):
        for k, (image_id, image) in enumerate(frames, first):
            self.op(rnd, k, f"{kind}[{k}]", kind, lambda: model.forward(net, image, mode),
                    output=lambda g, image_id=image_id: (_grid_sha(g), (image_id, g)))

    # -- shared set-up pieces ---------------------------------------------

    def write_images(self, directory, n, size, seed):
        """n synthetic frames as PPMs; returns their paths and a ground truth keyed
        by those paths (lcdet infer uses the path it is given as image_id).

        Only frames with exactly two rectangles are kept: eval time grows with
        the number of ground truths, which over a few frames of 1-4 each
        would vary with the seed by half.
        """
        frames, chunk = [], 0
        while len(frames) < n:  # one chunk suffices but for about 1 seed in 1000
            frames += [f for f in data.synth_dataset(max(10 * n, 32), (size, size),
                                                     seed=seed + chunk)
                       if len(f[1]) == 2]
            chunk += 1
        os.makedirs(directory, exist_ok=True)
        paths, gts = [], {}
        for k, (img, boxes) in enumerate(frames[:n]):
            path = os.path.join(directory, f"frame_{k:03d}.ppm")
            data.write_ppm(path, img)
            paths.append(path)
            gts[path] = [{"box": [b.cx, b.cy, b.w, b.h], "class_id": b.class_id} for b in boxes]
        return paths, gts

    def write_gt(self, gts, path):
        with open(path, "w") as f:
            json.dump(gts, f)
        self.gts = gts

    def float_model(self, profile, path):
        net = model.init_model(model.build_lcdet(model.profile_config(profile)), seed=MODEL_SEED)
        model.save_file(net, path)

    # -- the run -------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        setup_times = []
        setup_tracer = spans.Tracer(MODULES)

        def set_up():
            gc.collect()
            if trace:
                setup_tracer.install()
            t0 = time.perf_counter()
            try:
                self.setup()
            finally:
                setup_tracer.uninstall()
            setup_times.append(time.perf_counter() - t0)

        for _ in range(1 if trace else self.setup_reps):
            set_up()

        # Warm-up rounds are checked and counted but not measured. A traced
        # run then makes one untraced and one traced round. When set-up is
        # repeated between rounds it rewrites identical files; its samples
        # then spread over the run like the rounds' do.
        tracer = spans.Tracer(MODULES)
        rounds = 0
        start = None
        while rounds <= self.warmup_rounds or (trace and rounds < self.warmup_rounds + 2) \
                or (not trace and time.perf_counter() - start < seconds):
            if rounds == self.warmup_rounds:
                start = time.perf_counter()
            if trace and rounds == self.warmup_rounds + 1:
                tracer.install()
            try:
                self.round(rounds)
            finally:
                tracer.uninstall()
            rounds += 1
            if rounds == self.warmup_rounds + 1:
                # later rounds only add allocator slack, and how many fit in
                # the time depends on the machine's speed
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if self.setup_between_rounds and not trace:
                set_up()

        self.check_all()
        failed = 0
        unexpected = 0
        for o in self.ops:
            drifted = o["fingerprint"] != self.first[o["id"]]["fingerprint"]
            if o["error"]:
                self.problems.append(o["error"])
            elif drifted:
                self.problems.append(f"{o['id']}: round {o['round']} output differs from round 0")
            o["failed"] = bool(o["error"] or drifted or self.verdicts.get(o["id"]))
            failed += o["failed"]
            unexpected += bool(o["error"] or drifted) \
                or (o["failed"] and o["id"] not in self.known)
        out = {"correct": not unexpected, "attempted": len(self.ops), "failed": failed,
               "setup_seconds": setup_times,
               "model_bytes": {"float": os.path.getsize(self.float_path),
                               "u8": os.path.getsize(self.q_path)},
               "ops": [{k: v for k, v in o.items() if k != "fingerprint"} for o in self.ops]}
        if trace:
            metrics, layers = spans.per_layer_metrics(tracer.spans, setup_tracer.spans,
                                                      perfsim.analyze)
            busy = [sum(o["seconds"] for o in self.ops if o["round"] == r)
                    for r in (rounds - 2, rounds - 1)]
            metrics["trace.overhead_pct"] = {"value": 100.0 * (busy[1] / busy[0] - 1.0),
                                             "unit": "%"}
            out.update(metrics=metrics, layers=layers)
        else:
            out["metrics"] = self.end_to_end(setup_times, peak_rss_mib)
        return out

    def end_to_end(self, setup_times, peak_rss_mib) -> dict:
        med = statistics.median

        def of(kind):
            return [o for o in self.ops if o["kind"] == kind and o["round"] >= self.warmup_rounds]

        evals = {}
        for o in of("eval"):
            key = (o["round"], o["rep"])
            evals[key] = evals.get(key, 0.0) + o["seconds"]
        values = {
            "setup_s": (med(setup_times), "s"),
            "quantize_s": (med(o["seconds"] for o in of("quantize")), "s"),
            "float_img_per_s": (med(o["n"] / o["seconds"] for o in of("infer_float")), "img/s"),
            "u8_img_per_s": (med(o["n"] / o["seconds"] for o in of("infer_u8")), "img/s"),
            "float_frame_ms": (1e3 * med(o["seconds"] for o in of("forward_float")), "ms"),
            "u8_frame_ms": (1e3 * med(o["seconds"] for o in of("forward_u8")), "ms"),
            "eval_s": (med(evals.values()), "s"),
            "train_img_per_s": (med(o["n"] / o["seconds"] for o in of("train")), "img/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    # -- checks ----------------------------------------------------------------

    def verdict(self, op_id, problems):
        self.verdicts.setdefault(op_id, []).extend(problems)
        self.problems.extend(f"{op_id}: {p}" for p in problems)

    def check_all(self):
        """Run every check whose operation produced a round-0 output."""
        self.q_path = self.first["quantize"]["payload"]
        for op_id, first in self.first.items():
            if first["payload"] is not None:
                getattr(self, f"check_{first['kind']}")(op_id, first["payload"])

    def check_quantize(self, op_id, q_path):
        header_f, float_layers = checks.read_model(self.float_path)
        header_q, q_layers = checks.read_model(q_path)
        problems = checks.check_weight_roundtrip(float_layers, q_layers)
        cal = header_q.get("calibration")
        if not cal or len(cal["layers"]) != len(header_f["layers"]):
            problems.append("quantized model lacks a per-layer calibration record")
        self.verdict(op_id, problems)

    def check_forward_float(self, op_id, payload):
        """A frame's first call meets the reference; a repeated frame, its first call."""
        image_id, grid = payload
        first = next(i for i, f in self.first.items()
                     if f["kind"] == "forward_float" and f["payload"][0] == image_id)
        if first != op_id:
            if self.first[first]["fingerprint"] != self.first[op_id]["fingerprint"]:
                self.verdict(op_id, [f"repeated frame differs from {first}"])
            return
        header, layers = checks.read_model(self.float_path)
        ref = checks.ref_forward(header, layers, data.read_ppm(image_id))
        self.verdict(op_id, checks.check_float_grid(grid, ref))

    def check_forward_u8(self, op_id, payload):
        """Per-layer 8-bit contract on the first frame only: it re-runs the frame."""
        if op_id != "forward_u8[0]":
            return
        image_id, _ = payload
        calls = record_quantized_layers(model.load_file(self.q_path), data.read_ppm(image_id))
        problems = []
        for call in calls:
            if "size" in call:
                problems += checks.check_qpool_layer(call)
            else:
                problems += checks.check_qconv_layer(call)
        self.verdict(op_id, problems)

    def check_infer(self, op_id, payload, grids):
        """Reference decode + NMS of the sampled grids equals the CLI output."""
        jsonl, images = payload
        got = checks.read_detections(jsonl)
        problems = checks.check_nms_property(got, NMS_IOU)
        header, _ = checks.read_model(self.float_path)
        for image_id, grid in grids:
            if image_id not in images:
                continue
            h, w = data.read_ppm(image_id).shape[:2]
            want = checks.ref_nms(checks.ref_decode(
                grid, w, h, header["num_classes"], header["boxes_per_cell"],
                float(EVAL_THRESHOLD)), NMS_IOU)
            problems += checks.check_detections(got.get(image_id, []), want, image_id)
        self.verdict(op_id, problems)

    def sampled_grids(self, kind):
        seen = {}
        for op_id, first in self.first.items():
            if op_id.startswith(kind + "[") and first["payload"] is not None:
                image_id, grid = first["payload"]
                seen.setdefault(image_id, grid)
        return list(seen.items())

    def check_infer_float(self, op_id, payload):
        self.check_infer(op_id, payload, self.sampled_grids("forward_float"))

    def check_infer_u8(self, op_id, payload):
        self.check_infer(op_id, payload, self.sampled_grids("forward_u8"))

    def check_eval(self, op_id, payload):
        dets = checks.read_detections(payload["jsonl"])
        curves, curve_problems = {}, []
        for c in SWEEP:
            curves[c] = checks.ref_curve(checks.ref_pairs(dets, self.gts, c))
            curve_problems += checks.check_curve_csv(
                os.path.join(payload["out"], f"curve_iou{int(round(c * 100)):02d}.csv"), curves[c])
        budget = payload["budget"] if payload["budget"] is not None else len(self.gts)
        sweep_problems = checks.check_sweep_csv(
            os.path.join(payload["out"], "iou_sweep.csv"), curves, budget)
        if sweep_problems and not curve_problems and op_id in self.expect_fault:
            self.known.add(op_id)
            sweep_problems = [f"{KNOWN_FAULT}: {p}" for p in sweep_problems]
        self.verdict(op_id, curve_problems + sweep_problems)

    def check_train(self, op_id, out):
        self.verdict(op_id, checks.check_loss_csv(os.path.join(out, "loss.csv")))


def record_quantized_layers(net, image):
    """Run one 8-bit forward, keeping every layer's operands and output."""
    calls = []
    orig_conv, orig_pool = model.qconv2d, model.qmaxpool2d

    def conv(x, w, b, stride=1, padding="same", out_params=None, activation="identity"):
        out = orig_conv(x, w, b, stride, padding, out_params=out_params, activation=activation)
        calls.append({"index": len(calls), "x": x.data, "x_range": (x.params.min, x.params.max),
                      "w": w.data, "w_range": (w.params.min, w.params.max), "b": b,
                      "stride": stride, "activation": activation,
                      "out_range": (out_params.min, out_params.max), "out": out.data})
        return out

    def pool(x, size, stride):
        out = orig_pool(x, size, stride)
        calls.append({"index": len(calls), "x": x.data, "size": size, "stride": stride,
                      "out": out.data})
        return out

    model.qconv2d, model.qmaxpool2d = conv, pool
    try:
        model.forward(net, image, "quantized")
    finally:
        model.qconv2d, model.qmaxpool2d = orig_conv, orig_pool
    return calls


# ---------------------------------------------------------------------------


class ToyDetect(Bench):
    """Toy profile at 112x112, seeded and untrained, through the deployment path."""

    STREAM, CALIB, FLOAT_FRAMES, U8_FRAMES, EVAL_REPS, TRAIN_EPOCHS = 16, 16, 8, 4, 2, 2
    setup_between_rounds = True
    expect_fault = tuple(f"eval_u8[{rep}]" for rep in range(EVAL_REPS))

    def setup(self):
        w = self.work
        self.float_path = os.path.join(w, "float.lcdet")
        self.float_model("toy", self.float_path)
        self.calib_dir = os.path.join(w, "calib")
        data.write_dataset(data.synth_dataset(self.CALIB, (112, 112), seed=self.seeds[1]),
                           self.calib_dir)
        self.stream, gts = self.write_images(os.path.join(w, "stream"), self.STREAM, 112,
                                             self.seeds[2])
        self.gt_path = os.path.join(w, "gt.json")
        self.write_gt(gts, self.gt_path)
        self.frames = [(p, data.read_ppm(p)) for p in self.stream[:self.FLOAT_FRAMES]]

    def round(self, r):
        out = os.path.join(self.work, f"r{r}")
        self.q_path = self.quantize(r, self.float_path, self.calib_dir, os.path.join(out, "q"))
        self.infer(r, "infer_float", self.float_path, self.stream, os.path.join(out, "f"), "float")
        self.infer(r, "infer_u8", self.q_path, self.stream, os.path.join(out, "u"), "quantized")
        fnet, qnet = model.load_file(self.float_path), model.load_file(self.q_path)
        self.forwards(r, "forward_float", fnet, self.frames, "float")
        self.forwards(r, "forward_u8", qnet, self.frames[:self.U8_FRAMES], "quantized")
        for rep in range(self.EVAL_REPS):
            self.evaluate(r, rep, f"eval_float[{rep}]", os.path.join(out, "f", "detections.jsonl"),
                          self.gt_path, os.path.join(out, f"ef{rep}"))
            self.evaluate(r, rep, f"eval_u8[{rep}]", os.path.join(out, "u", "detections.jsonl"),
                          self.gt_path, os.path.join(out, f"eu{rep}"), pin_tie=True)
        self.train(r, self.calib_dir, os.path.join(out, "t"), self.TRAIN_EPOCHS, self.CALIB)

    def check_all(self):
        super().check_all()
        cal = checks.read_model(self.q_path)[0]["calibration"]["layers"][-1]
        step = (cal[1] - cal[0]) / 255.0
        floats = dict(self.sampled_grids("forward_float"))
        for op_id, first in self.first.items():
            if op_id.startswith("forward_u8[") and first["payload"] is not None:
                image_id, grid = first["payload"]
                if image_id in floats:
                    self.verdict(op_id, checks.check_u8_fidelity(floats[image_id], grid, step))


class PaperDetect(Bench):
    """The paper's 24-conv profile with the 3x3x4096 head, seeded and untrained."""

    STREAM, CALIB = 2, 2
    FLOAT_FRAMES = (0, 1, 0)  # stream frames for the forward calls
    EVAL_REPS = 12
    TAIL_IMAGES, TAIL_EPOCHS = 16, 4
    warmup_rounds = 0  # one round is ~30 s of large operations

    def setup(self):
        w = self.work
        self.float_path = os.path.join(w, "float.lcdet")
        self.float_model("paper", self.float_path)
        self.stream, gts = self.write_images(os.path.join(w, "s448"), self.STREAM, 448,
                                             self.seeds[2])
        self.gt_path = os.path.join(w, "gt.json")
        self.write_gt(gts, self.gt_path)
        self.u8_stream, _ = self.write_images(os.path.join(w, "s128"), 1, 128, self.seeds[3])
        self.calib_dir = os.path.join(w, "calib")
        self.write_images(self.calib_dir, self.CALIB, 128, self.seeds[1])
        u8_frame, _ = self.write_images(os.path.join(w, "s64"), 1, 64, self.seeds[3] + 1)
        self.float_frames = [(self.stream[k], data.read_ppm(self.stream[k]))
                             for k in self.FLOAT_FRAMES]
        self.u8_frames = [(u8_frame[0], data.read_ppm(u8_frame[0]))]
        self.toy_dir = os.path.join(w, "toy")
        data.write_dataset(data.synth_dataset(self.TAIL_IMAGES, (112, 112), seed=self.seeds[1]),
                           self.toy_dir)

    def round(self, r):
        """The one round spans many seconds, so the small repeated operations
        are spread over it in three groups: their medians then sample the
        whole run, not one moment of it."""
        out = os.path.join(self.work, f"r{r}")
        self.q_path = self.quantize(r, self.float_path, self.calib_dir, os.path.join(out, "q"))
        self.infer(r, "infer_float", self.float_path, self.stream, os.path.join(out, "f"), "float")
        fnet = model.load_file(self.float_path)
        qnet = model.load_file(self.q_path)
        big = [lambda: self.infer(r, "infer_u8", self.q_path, self.u8_stream,
                                  os.path.join(out, "u"), "quantized"),
               lambda: self.forwards(r, "forward_u8", qnet, self.u8_frames, "quantized"),
               lambda: self.train(r, self.toy_dir, os.path.join(out, "t"), self.TAIL_EPOCHS,
                                  self.TAIL_IMAGES)]
        per_group = self.EVAL_REPS // len(big)
        for g, then in enumerate(big):
            self.forwards(r, "forward_float", fnet, self.float_frames[g:g + 1], "float", first=g)
            for rep in range(g * per_group, (g + 1) * per_group):
                self.evaluate(r, rep, f"eval_float[{rep}]",
                              os.path.join(out, "f", "detections.jsonl"), self.gt_path,
                              os.path.join(out, f"ef{rep}"))
            then()


class ToyTrain(Bench):
    """lcdet train from a seeded init on a synthetic dataset.

    The deployment operations that follow use the seeded init, not the
    trained model: how many boxes a 3-epoch model keeps above the eval
    threshold varies several-fold from seed to seed, and decode, NMS and
    eval costs with it.
    """

    IMAGES, EPOCHS, HELDOUT, FLOAT_FRAMES, U8_FRAMES, CALIB, EVAL_REPS = 48, 3, 8, 4, 2, 8, 3
    GRAD_SAMPLES, GRAD_SIDE = 100, 32
    setup_between_rounds = True

    def setup(self):
        w = self.work
        self.float_path = os.path.join(w, "float.lcdet")
        self.float_model("toy", self.float_path)
        self.dataset_dir = os.path.join(w, "dataset")
        data.write_dataset(data.synth_dataset(self.IMAGES, (112, 112), seed=self.seeds[1]),
                           self.dataset_dir)
        self.stream, gts = self.write_images(os.path.join(w, "heldout"), self.HELDOUT, 112,
                                             self.seeds[2])
        self.gt_path = os.path.join(w, "gt.json")
        self.write_gt(gts, self.gt_path)
        self.frames = [(p, data.read_ppm(p)) for p in self.stream[:self.FLOAT_FRAMES]]

    def round(self, r):
        out = os.path.join(self.work, f"r{r}")
        self.train(r, self.dataset_dir, os.path.join(out, "t"), self.EPOCHS, self.IMAGES)
        self.q_path = self.quantize(r, self.float_path, self.dataset_dir, os.path.join(out, "q"),
                                    limit=self.CALIB)
        self.infer(r, "infer_float", self.float_path, self.stream, os.path.join(out, "f"), "float")
        self.infer(r, "infer_u8", self.q_path, self.stream, os.path.join(out, "u"), "quantized")
        fnet, qnet = model.load_file(self.float_path), model.load_file(self.q_path)
        self.forwards(r, "forward_float", fnet, self.frames, "float")
        self.forwards(r, "forward_u8", qnet, self.frames[:self.U8_FRAMES], "quantized")
        for rep in range(self.EVAL_REPS):
            self.evaluate(r, rep, f"eval_float[{rep}]",
                          os.path.join(out, "f", "detections.jsonl"), self.gt_path,
                          os.path.join(out, f"ef{rep}"))

    def check_train(self, op_id, out):
        super().check_train(op_id, out)
        self.verdict(op_id, self.gradient_check(os.path.join(out, "model.lcdet")))

    def gradient_check(self, path):
        """train.backward of the trained model against float64 central differences
        of the reference forward and loss, on a small frame."""
        rng = np.random.default_rng(self.seeds[3])
        side = self.GRAD_SIDE
        img, gts = data.synth_dataset(1, (side, side), seed=self.seeds[3])[0]
        net = model.load_file(path)
        for lw in net.weights:
            if lw.w is not None:
                lw.w, lw.b = lw.w.astype(np.float64), lw.b.astype(np.float64)
        spec = net.spec
        stride = spec.total_stride
        target = train.assign_cells(gts, (side // stride, side // stride), (side, side))
        cfg = train.LossConfig()
        act = model.forward(net, img.astype(np.float64), "float")
        resolved = train.resolve_targets(act, target, spec.num_classes)
        grads, _ = train.backward(net, img.astype(np.float64), target, cfg, resolved)

        header, _ = checks.read_model(path)
        layers = [None if lw.w is None else [lw.w.copy(), None, lw.b.copy()] for lw in net.weights]

        def loss_of(ls):
            grid = checks.ref_forward(header, ls, img)
            return checks.ref_loss(grid, target.object_mask, target.boxes, target.class_ids,
                                   resolved.responsible, resolved.conf_target, spec.num_classes,
                                   cfg.lambda_coord, cfg.lambda_noobj)

        params = [(i, slot) for i, lw in enumerate(layers) if lw is not None for slot in (0, 2)]
        sizes = np.array([layers[i][s].size for i, s in params], dtype=float)
        samples = []
        for _ in range(self.GRAD_SAMPLES):
            i, s = params[int(rng.choice(len(params), p=sizes / sizes.sum()))]
            samples.append((i, s, int(rng.integers(layers[i][s].size))))
        return checks.check_gradients(layers, grads, loss_of, samples)


WORKLOADS = {"toy-detect": ToyDetect, "paper-detect": PaperDetect, "toy-train": ToyTrain}
