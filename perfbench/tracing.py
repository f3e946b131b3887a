"""Span recorder for the traced run.

The library has no spans of its own, so the traced run wraps public
functions at the attribute where their callers look them up: a name pulled
in with `from x import f` is a separate attribute of the importing module,
and each such site is wrapped. `Tracer.install` patches, `Tracer.uninstall`
puts every original object back; passes outside install/uninstall run the
library unmodified.

A span holds name, kind, start, end, parent span, pass id and thread. Kinds:

- layer: a call into a module's public function; its self time is its
  duration minus the durations of the nearest layer spans nested in it;
- probe: a counted call (numpy spectral routines, `subroutines`,
  permutation operators) whose time stays with the enclosing layer;
- phase: a stretch of the harness (check pool, one attack) reported by
  its whole duration.

Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYER, PROBE, PHASE = "layer", "probe", "phase"

_NP_SPECTRAL = ("eigvalsh", "eigh", "eig", "eigvals", "svd", "pinv")

# (module, attribute path, span name, kind)
TARGETS = [
    ("oraclebench.linalg", "DensityMatrix.__post_init__", "linalg.density_validate", LAYER),
    ("oraclebench.linalg", "trace_distance", "linalg.trace_distance", LAYER),
    ("oraclebench.linalg", "schatten_norm", "linalg.schatten_norm", LAYER),
    ("oraclebench.adversary", "schatten_norm", "linalg.schatten_norm", LAYER),
    ("oraclebench.games", "schatten_norm", "linalg.schatten_norm", LAYER),
    ("oraclebench.linalg", "permutation_operator", "linalg.perm_operator", PROBE),
    ("oraclebench.haar", "permutation_operator", "linalg.perm_operator", PROBE),
    *[("numpy.linalg", f, f"np.{f}", PROBE) for f in _NP_SPECTRAL],
    ("oraclebench.haar", "twirl_exact", "haar.twirl_exact", LAYER),
    ("oraclebench.haar", "haar_choi", "haar.twirl_exact", LAYER),
    ("oraclebench.haar", "haar_isometry_choi", "haar.twirl_exact", LAYER),
    ("oraclebench.adversary", "haar_choi", "haar.twirl_exact", LAYER),
    ("oraclebench.adversary", "haar_isometry_choi", "haar.twirl_exact", LAYER),
    ("oraclebench.haar", "state_moment_exact", "haar.state_moment", LAYER),
    ("oraclebench.haar", "state_moment_mc", "haar.state_moment", LAYER),
    ("oraclebench.adversary", "reference_overlap_matrix", "haar.reference_overlap", LAYER),
    ("oraclebench.adversary", "candidate_channel", "oracles.channel", LAYER),
    ("oraclebench.adversary", "rewrite_surrogate", "oracles.rewrite", LAYER),
    ("oraclebench.harness", "toy_pru_candidate", "toys.build", LAYER),
    ("oraclebench.harness", "toy_pri_candidate", "toys.build", LAYER),
    ("oraclebench.harness", "toy_hri_candidate", "toys.build", LAYER),
    ("oraclebench.adversary", "encode_density", "blockenc.encode", LAYER),
    ("oraclebench.adversary", "svd_discriminate", "blockenc.discriminate", LAYER),
    ("oraclebench.blockenc", "threshold_poly", "blockenc.threshold_poly", LAYER),
    ("oraclebench.adversary", "process_tomography_exact", "tomography.exact", LAYER),
    ("oraclebench.adversary", "process_tomography_sampled", "tomography.sampled", LAYER),
    ("oraclebench.tomography", "process_tomography_sampled", "tomography.sampled", LAYER),
    ("oraclebench.adversary", "attack_pru", "adversary.attack_pru", LAYER),
    ("oraclebench.adversary", "attack_pri", "adversary.attack_pri", LAYER),
    ("oraclebench.adversary", "attack_pri_vs_hri", "adversary.attack_hri", LAYER),
    ("oraclebench.adversary", "keyed_choi", "adversary.choi", LAYER),
    ("oraclebench.adversary", "key_choi", "adversary.choi", LAYER),
    ("oraclebench.adversary", "surrogate_choi", "adversary.choi", LAYER),
    ("oraclebench.adversary", "keyed_choi_vectors", "adversary.choi", LAYER),
    ("oraclebench.adversary", "distinguisher", "adversary.distinguish", LAYER),
    ("oraclebench.subroutines", "svd", "subroutines.svd", PROBE),
    ("oraclebench.subroutines", "eigh", "subroutines.eigh", PROBE),
    ("oraclebench.games", "prfsg_game", "games.busy", LAYER),
    ("oraclebench.games", "two_query_lipschitz_check", "games.busy", LAYER),
    ("oraclebench.games", "family_lipschitz_check", "games.busy", LAYER),
    ("oraclebench.games", "haar_concentration_check", "games.busy", LAYER),
    ("oraclebench.harness", "lemma_check", "harness.check", LAYER),
    ("oraclebench.harness", "_run_attack", "harness.attack_phase", PHASE),
    ("oraclebench.harness", "run_experiment", "harness.run_experiment", LAYER),
    ("oraclebench.harness", "emit_report", "cli.emit", LAYER),
    ("oraclebench.cli", "cli_main", "cli.main", LAYER),
]

# Budget checks run per circuit evaluation; they are counted, not spanned
BUDGET_CHECKS = ("check_qubits", "check_twirl_dim", "check_dense_oracle", "check_dense_matrix")

# per-layer metric -> (unit, better); the traced run reports every one
METRICS = {
    "linalg.density_validate_s": ("s", "lower"),
    "linalg.density_validate_calls": ("count", "lower"),
    "linalg.density_validate_eig_calls": ("count", "lower"),
    "linalg.density_validate_diag_calls": ("count", "lower"),
    "linalg.trace_distance_s": ("s", "lower"),
    "linalg.schatten_norm_s": ("s", "lower"),
    "linalg.perm_operator_calls": ("count", "lower"),
    "linalg.perm_operator_bytes_max": ("B", "lower"),
    "linalg.np_spectral_calls": ("count", "lower"),
    "linalg.np_spectral_flops": ("flop", "lower"),
    "haar.twirl_exact_s": ("s", "lower"),
    "haar.state_moment_s": ("s", "lower"),
    "haar.reference_overlap_s": ("s", "lower"),
    "oracles.channel_s": ("s", "lower"),
    "oracles.rewrite_s": ("s", "lower"),
    "toys.build_s": ("s", "lower"),
    "blockenc.encode_s": ("s", "lower"),
    "blockenc.discriminate_s": ("s", "lower"),
    "blockenc.threshold_poly_s": ("s", "lower"),
    "blockenc.threshold_poly_calls": ("count", "lower"),
    "blockenc.threshold_poly_distinct": ("count", "lower"),
    "blockenc.poly_degree_max": ("count", "lower"),
    "tomography.sampled_s": ("s", "lower"),
    "tomography.exact_s": ("s", "lower"),
    "tomography.reconstructions": ("count", "higher"),
    "tomography.queries": ("count", "lower"),
    "tomography.within_eps_ratio": ("ratio", "higher"),
    "adversary.attack_pru_s": ("s", "lower"),
    "adversary.attack_pri_s": ("s", "lower"),
    "adversary.attack_hri_s": ("s", "lower"),
    "adversary.choi_s": ("s", "lower"),
    "adversary.distinguish_s": ("s", "lower"),
    "adversary.distinguish_calls": ("count", "lower"),
    "subroutines.calls": ("count", "lower"),
    "subroutines.dim_max": ("count", "lower"),
    "subroutines.flops": ("flop", "lower"),
    "subroutines.distinct_ratio": ("ratio", "higher"),
    "games.busy_s": ("s", "lower"),
    "harness.check_busy_s": ("s", "lower"),
    "harness.check_phase_s": ("s", "lower"),
    "harness.check_wait_s": ("s", "lower"),
    "harness.attack_phase_s": ("s", "lower"),
    "harness.cpu_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "budget.checks": ("count", "lower"),
    "budget.refusals": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# layer span name -> metric, where the metric is not simply "<span>_s"
_RENAMED = {"harness.check": "harness.check_busy_s", "cli.main": "cli.overhead_s"}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _square_dim(a) -> tuple[int, int]:
    shape = np.shape(a)
    dim = max(shape[-2:]) if len(shape) >= 2 else (shape[0] if shape else 1)
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return int(dim), batch * int(dim) ** 3


def _fingerprint(a) -> str:
    arr = np.ascontiguousarray(a)
    h = hashlib.blake2b(arr.tobytes(), digest_size=16)
    h.update(repr((arr.shape, arr.dtype.str)).encode())
    return h.hexdigest()


class Span:
    __slots__ = ("id", "name", "kind", "start", "end", "parent", "pass_id", "thread", "attrs")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans while installed; `pass_id` tags every span opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self.waits: list[float] = []
        self.budget = Counter()
        self.pool_workers = 0
        self.pass_id = 0
        self.missing: list[str] = []
        self.installed: list[tuple] = []  # (owner, attr, original, owned)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()  # pool workers count budget checks concurrently
        self._refused: list[BaseException] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, kind: str, attrs: dict | None = None) -> Span:
        st = self._stack()
        s = Span()
        s.id, s.name, s.kind = next(self._ids), name, kind
        s.parent = st[-1].id if st else None
        s.pass_id, s.thread, s.attrs = self.pass_id, threading.get_ident(), attrs or {}
        st.append(s)
        s.start, s.end = time.perf_counter(), None
        return s

    def close(self, s: Span, error: BaseException | None = None) -> None:
        s.end = time.perf_counter()
        self._stack().pop()
        if error is not None:
            s.attrs["error"] = type(error).__name__
            self._note_refusal(error)
        self.spans.append(s)

    def _note_refusal(self, error: BaseException) -> None:
        from oraclebench.budget import SizingError

        if isinstance(error, SizingError) and not any(e is error for e in self._refused):
            self._refused.append(error)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str, kind: str):
        before, after = _hooks(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            s = tracer.open(name, kind, attrs)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                tracer.close(s, e)
                raise
            tracer.close(s)
            if after:
                after(s.attrs, args, kwargs, out)
            return out

        return wrapper

    def _count_budget(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.budget["checks"] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                tracer._note_refusal(e)
                raise

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        owned = not isinstance(owner, type) or attr in owner.__dict__
        self.installed.append((owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.missing = []
        try:
            for module, path, name, kind in TARGETS:
                try:
                    owner, attr = _resolve(module, path)
                    fn = getattr(owner, attr)
                except AttributeError:
                    self.missing.append(f"{module}.{path}")
                    continue
                self._patch(owner, attr, self._wrap(fn, name, kind))
            budget_cls = importlib.import_module("oraclebench.budget").Budget
            for attr in BUDGET_CHECKS:
                if hasattr(budget_cls, attr):
                    self._patch(budget_cls, attr, self._count_budget(getattr(budget_cls, attr)))
            harness = importlib.import_module("oraclebench.harness")
            if hasattr(harness, "ThreadPoolExecutor"):
                self._patch(harness, "ThreadPoolExecutor", _traced_pool(self, harness.ThreadPoolExecutor))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, original, owned = self.installed.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------ results

    def pass_spans(self, pass_id: int) -> list[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]

    @property
    def refusals(self) -> int:
        return len(self._refused)

    def reset_counters(self) -> None:
        self.waits.clear()
        self.budget.clear()
        self._refused.clear()


def _hooks(name: str, fn):
    """(before, after) attribute collectors for the spans that carry counts."""
    if name.startswith("np.") or name.startswith("subroutines."):
        fingerprint = name.startswith("subroutines.")

        def before(args, kwargs):
            mat = args[0] if args else next(iter(kwargs.values()))
            dim, flops = _square_dim(mat)
            attrs = {"dim": dim, "flops": flops}
            if fingerprint:
                attrs["input"] = _fingerprint(mat)
            return attrs

        return before, None
    if name == "linalg.perm_operator":
        def after(attrs, args, kwargs, out):
            attrs["bytes"] = int(out.nbytes)

        return None, after
    sig = inspect.signature(fn)
    if name == "blockenc.threshold_poly":
        def after(attrs, args, kwargs, out):
            bound = sig.bind(*args, **kwargs).arguments
            attrs["key"] = repr((float(bound["a"]), float(bound["b"]), float(bound["eta"])))
            attrs["degree"] = int(out.degree)

        return None, after
    if name == "tomography.exact":
        def after(attrs, args, kwargs, out):
            attrs["queries"] = int(out.queries)

        return None, after
    if name == "tomography.sampled":
        def after(attrs, args, kwargs, out):
            from oraclebench.tomography import phase_aligned_distance

            bound = sig.bind(*args, **kwargs).arguments
            dim, apply_fn = int(bound["dim"]), bound["apply_fn"]
            truth = np.column_stack([apply_fn(np.eye(dim, dtype=complex)[:, j]) for j in range(dim)])
            attrs["queries"] = int(out.queries)
            attrs["within_eps"] = bool(phase_aligned_distance(out.estimate, truth, 2) <= bound["eps"])

        return None, after
    return None, None


def _traced_pool(tracer: Tracer, base):
    class TracedPool(base):
        """The harness pool, timing the whole phase and each item's wait for a worker."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.pool_workers = max(tracer.pool_workers, self._max_workers)

        def __enter__(self):
            self._phase = tracer.open("harness.check_phase", PHASE)
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._phase)

        def submit(self, fn, /, *args, **kwargs):
            submitted = time.perf_counter()

            def timed():
                tracer.waits.append(time.perf_counter() - submitted)
                return fn(*args, **kwargs)

            return super().submit(timed)

    return TracedPool


# ------------------------------------------------------------ analysis


def _nearest(spans_by_id: dict, span: Span, pred):
    p = span.parent
    while p is not None:
        anc = spans_by_id[p]
        if pred(anc):
            return anc
        p = anc.parent
    return None


def analyse(spans: list[Span], waits: list[float], budget: Counter, refusals: int) -> tuple[dict, dict]:
    """Per-layer metrics (without cpu and overhead) and exact counts for one pass."""
    by_id = {s.id: s for s in spans}
    dur = {s.id: s.end - s.start for s in spans}
    covered = defaultdict(float)
    layer_of = {}
    for s in spans:
        owner = _nearest(by_id, s, lambda a: a.kind == LAYER)
        layer_of[s.id] = owner
        if s.kind == LAYER and owner is not None:
            covered[owner.id] += dur[s.id]

    m = {k: 0.0 if unit == "s" or unit == "ratio" else 0 for k, (unit, _) in METRICS.items()}
    spectral = Counter()
    spectral_s = defaultdict(float)
    sub_inputs = defaultdict(set)
    poly_keys = set()
    density_eig = set()
    sampled = within = 0
    for s in spans:
        d = dur[s.id]
        a = s.attrs
        if s.kind == LAYER:
            key = _RENAMED.get(s.name, s.name + "_s")
            if key in m:
                m[key] += d - covered[s.id]
        if s.name == "harness.check_phase":
            m["harness.check_phase_s"] += d
        elif s.name == "harness.attack_phase":
            m["harness.attack_phase_s"] += d
        elif s.name == "linalg.density_validate":
            m["linalg.density_validate_calls"] += 1
        elif s.name == "linalg.perm_operator":
            m["linalg.perm_operator_calls"] += 1
            m["linalg.perm_operator_bytes_max"] = max(m["linalg.perm_operator_bytes_max"], a.get("bytes", 0))
        elif s.name == "blockenc.threshold_poly":
            m["blockenc.threshold_poly_calls"] += 1
            poly_keys.add(a.get("key"))
            m["blockenc.poly_degree_max"] = max(m["blockenc.poly_degree_max"], a.get("degree", 0))
        elif s.name.startswith("tomography."):
            m["tomography.reconstructions"] += 1
            m["tomography.queries"] += a.get("queries", 0)
            if s.name == "tomography.sampled":
                sampled += 1
                within += bool(a.get("within_eps"))
        elif s.name == "adversary.distinguish":
            m["adversary.distinguish_calls"] += 1
        elif s.name.startswith("subroutines."):
            m["subroutines.calls"] += 1
            m["subroutines.dim_max"] = max(m["subroutines.dim_max"], a["dim"])
            m["subroutines.flops"] += a["flops"]
            sub_inputs[(s.name, a["dim"])].add(a["input"])
        if s.name.startswith("np.") or s.name.startswith("subroutines."):
            op = f"{s.name}@{a['dim']}"
            spectral[op] += 1
            owner = layer_of[s.id]
            spectral_s[(owner.name if owner else "-", op)] += d
            if s.name.startswith("np."):
                if owner is not None and owner.name == "linalg.density_validate":
                    density_eig.add(owner.id)
                if _nearest(by_id, s, lambda x: x.name.startswith("subroutines.")) is None:
                    m["linalg.np_spectral_calls"] += 1
                    m["linalg.np_spectral_flops"] += a["flops"]
    m["linalg.density_validate_eig_calls"] = len(density_eig)
    m["linalg.density_validate_diag_calls"] = m["linalg.density_validate_calls"] - len(density_eig)
    m["blockenc.threshold_poly_distinct"] = len(poly_keys)
    distinct = sum(len(v) for v in sub_inputs.values())
    m["subroutines.distinct_ratio"] = distinct / m["subroutines.calls"] if m["subroutines.calls"] else 0.0
    m["tomography.within_eps_ratio"] = within / sampled if sampled else 0.0
    m["harness.check_wait_s"] = float(sum(waits))
    m["budget.checks"] = budget["checks"]
    m["budget.refusals"] = refusals
    counts = {
        "spectral_calls": dict(sorted(spectral.items())),
        "subroutines_distinct": {f"{n}@{d}": len(v) for (n, d), v in sorted(sub_inputs.items())},
        "subroutines_distinct_ratio": m["subroutines.distinct_ratio"],
        "threshold_poly": {"calls": m["blockenc.threshold_poly_calls"], "distinct": len(poly_keys)},
        "density_validate": {"eig_path": len(density_eig),
                             "diagonal_path": m["linalg.density_validate_diag_calls"]},
        "tomography_queries": m["tomography.queries"],
    }
    timing = {f"{layer} {op}": t for (layer, op), t in sorted(spectral_s.items(), key=lambda kv: -kv[1])}
    return m, {"counts": counts, "spectral_s_by_layer": timing}
