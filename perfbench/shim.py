"""One benchmark process: load a workload's inputs, run the cocycle driver, or
run the `cotwist` CLI under the layer tracer.

    python3 perfbench/shim.py setup <workload> <input.json>
    python3 perfbench/shim.py cocycles <input.json>
    python3 perfbench/shim.py --trace <out.json> --op <id> cli <cotwist args...>
    python3 perfbench/shim.py --trace <out.json> --op <id> cocycles <input.json>

The tracer wraps, from outside, the public functions and methods of every
layer module at each name other modules import them under, and records a
span (name, start, end, parent span, operation id) per wrapped call.  Spans
and per-function aggregates (calls, inclusive seconds, self seconds) stay in
memory and are written to <out.json> when the process ends.  Nothing under
`src/` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("cyclo", "freealg", "groups", "action", "twist", "gbasis", "linalg",
          "crossed", "presets", "jsonio", "cli")

# CycNum is wrapped on its arithmetic only: its predicates and constructors
# are called so often that wrapping them would mostly measure the wrapper.
CYCNUM_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
                  "__pow__", "inverse", "embed", "conj", "root_order")
ARITH_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
                 "__pow__")

# Sort-key helpers run once per comparison inside `gbasis`; wrapping them
# would triple the run time, so their time stays in the caller's self time.
UNWRAPPED = ("deglex_key", "word_degree")

# Spans beyond this many per process are aggregated but not kept one by one.
SPAN_CAP = 100_000


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list = []          # function id -> "layer.qualname"
        self.agg: list = []            # function id -> [calls, incl_s, self_s]
        self.spans: list = []          # (fid, start, end, parent, span id)
        self.dropped = 0
        self.stack: list = []          # frames [span id, child seconds]
        self.next_id = 1
        self.gb_calls: list = []       # (presentation, bound, result)

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        agg = [0, 0.0, 0.0]
        self.agg.append(agg)
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((fid, start, end, parent, sid))
                else:
                    self.dropped += 1

        return traced

    def wrap_truncated_gb(self, fn):
        inner = self.wrap("gbasis.truncated_gb", fn)

        @functools.wraps(fn)
        def recorded(presentation, bound, *args, **kwargs):
            result = inner(presentation, bound, *args, **kwargs)
            self.gb_calls.append((presentation, bound, result))
            return result

        return recorded

    def install(self) -> None:
        """Wrap every layer's public callables and rebind each name under
        which any loaded cotwist module holds them."""
        modules = {name: importlib.import_module(f"cotwist.{name}")
                   for name in LAYERS}
        replaced: dict = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or attr in UNWRAPPED:
                    continue
                if isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_class(layer, value)
                elif _is_plain_callable(value) and _defined_in(value, module):
                    if layer == "gbasis" and attr == "truncated_gb":
                        replaced[id(value)] = self.wrap_truncated_gb(value)
                    else:
                        replaced[id(value)] = self.wrap(f"{layer}.{attr}", value)
        namespaces = [vars(m) for name, m in sys.modules.items()
                      if name == "cotwist" or name.startswith("cotwist.")]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    ns[attr] = wrapper

    def _wrap_class(self, layer: str, cls: type) -> None:
        if cls.__name__ == "CycNum":
            names = CYCNUM_METHODS
        else:
            names = [n for n in vars(cls)
                     if not n.startswith("_") or n in ARITH_DUNDERS]
        for attr in names:
            raw = vars(cls).get(attr)
            label = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(label, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(label, raw.__func__)))
            elif isinstance(raw, types.FunctionType):
                setattr(cls, attr, self.wrap(label, raw))

    def gb_summary(self) -> dict:
        """Basis size, normal words and coefficient height, read from the
        truncated_gb results after the traced work has ended."""
        distinct = set()
        size = words = height = 0
        for presentation, bound, result in self.gb_calls:
            distinct.add((presentation.canonical_key(), bound))
            size = max(size, len(result.elements))
            words = max(words, sum(len(level) for level
                                   in result.normal_words_by_degree()))
            for element in result.elements:
                for coeff in element.terms.values():
                    for q in coeff.coeffs:
                        height = max(height, abs(q.numerator).bit_length(),
                                     q.denominator.bit_length())
        return {"truncated_gb_distinct": len(distinct), "basis_size": size,
                "normal_words": words, "coeff_height_bits": height}

    def dump(self, path: str) -> None:
        # snapshot first: reading the Groebner results calls wrapped code
        functions = {name: list(agg) for name, agg in zip(self.names, self.agg)
                     if agg[0]}
        # spans as [function id, start ns, end ns, parent span, span id]
        spans = [(fid, round(start * 1e9), round(end * 1e9), parent, sid)
                 for fid, start, end, parent, sid in self.spans]
        out = {"op": self.op_id, "functions": functions,
               "gbasis": self.gb_summary(), "spans_dropped": self.dropped,
               "span_names": self.names, "spans": spans}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(out))


def _is_plain_callable(value) -> bool:
    return isinstance(value, types.FunctionType) or hasattr(value, "cache_info")


def _defined_in(value, module) -> bool:
    return getattr(value, "__module__", None) == module.__name__


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

def run_cocycles(path: str) -> int:
    """Build each seeded exponent-form cocycle from its formula and decide
    whether it is a coboundary; print one verdict per case."""
    from cotwist import groups
    with open(path, encoding="utf-8") as handle:
        cases = json.load(handle)
    verdicts = []
    for case in cases:
        group = groups.AbGroup(tuple(case["factors"]))
        mu = groups.cocycle_from_formula(group, case["formula"])
        flag, _ = groups.is_coboundary(mu)
        verdicts.append({"factors": case["factors"], "coboundary": flag})
    sys.stdout.write(json.dumps(verdicts, sort_keys=True) + "\n")
    return 0


def run_setup(workload: str, path: str) -> int:
    """Import cotwist and load and validate one workload's inputs, without
    computing any verdict."""
    import cotwist.cli  # noqa: F401  (the import is part of set-up)
    from cotwist import groups, jsonio, presets
    from cotwist.cyclo import parse_scalar
    data = jsonio.load_json(path)
    if workload == "sklyanin-gb":
        jsonio.spec_bundle_from_dict(data)
    elif workload == "crossed-invariants":
        for name in data["presets"]:
            presets.preset(name).twist_spec()
    elif workload == "cocycles":
        for case in data:
            group = groups.AbGroup(tuple(case["factors"]))
            origin = {f"{side}{j + 1}": 0 for side in "ab"
                      for j in range(group.rank)}
            if not parse_scalar(case["formula"], origin).is_one():
                raise SystemExit("cocycle formula is not normalized")
    elif workload == "report":
        for name in presets.PRESET_NAMES:
            presets.preset(name).twist_spec()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    sys.stdout.write("ready\n")
    return 0


def main(argv: list) -> int:
    trace_path = None
    op_id = 0
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--trace":
            trace_path = value
        elif flag == "--op":
            op_id = int(value)
        else:
            raise SystemExit(f"unknown flag {flag}")
    entry, rest = argv[0], argv[1:]
    if entry == "setup":
        return run_setup(*rest)
    tracer = None
    if trace_path is not None:
        import cotwist.cli  # noqa: F401  (load every layer before wrapping)
        tracer = Tracer(op_id)
        tracer.install()
    try:
        if entry == "cli":
            from cotwist import cli
            return cli.main(rest)
        if entry == "cocycles":
            return run_cocycles(*rest)
        raise SystemExit(f"unknown entry {entry!r}")
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
