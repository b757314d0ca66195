"""Outside-in tracer: wraps package functions from the benchmark's side.

``Tracer.install`` replaces each traced function in *every* ``riskplan.*``
namespace that binds it (``find_threats`` is bound in ``plangraph``,
``linear`` and ``nonlinear``), plus the ``GroundOperator.effective_deletes``
method, and ``uninstall`` puts the originals back.  The package itself is
not edited.

Each call becomes a span (name, start, end, parent, item) kept in compact
arrays in memory; ``save`` writes them out once the run is over.  Self time
is a span's duration minus the part its child spans cover, accumulated as
spans close.  Work the tracer does for its own counters (the memo key of
``joint_probability``) is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# metric name -> (module, attribute) of every function recorded under it.
# ``plangraph.closure`` is ``_ordering_closure``, which every plan update
# passes through.
TARGETS = {
    "plangraph.find_threats": [("plangraph", "find_threats")],
    "plangraph.closure": [("plangraph", "_ordering_closure")],
    "plangraph.add_link": [("plangraph", "add_link")],
    "plangraph.tree_insert": [("plangraph", "tree_insert")],
    "plangraph.dag_add_step": [("plangraph", "dag_add_step")],
    "plangraph.condition_step": [("plangraph", "condition_step")],
    "plangraph.complete_goal_ids": [("plangraph", "complete_goal_ids")],
    "plangraph.uncovered_outcome_contexts":
        [("plangraph", "uncovered_outcome_contexts")],
    "plangraph.canonical_key": [("plangraph", "canonical_key")],
    "domain.effective_deletes": [("domain", "GroundOperator.effective_deletes")],
    "domain.parse": [("domain", "parse_domain"), ("domain", "parse_problem")],
    "domain.ground": [("domain", "ground")],
    "domain.validate": [("domain", "validate_problem")],
    "probmodel.joint_probability": [("probmodel", "joint_probability")],
    "probmodel.net_for_plan": [("probmodel", "net_for_plan")],
    "probmodel.success_bound": [("probmodel", "success_bound")],
    "probmodel.select_goal_node": [("probmodel", "select_goal_node")],
    "probmodel.d_connected": [("probmodel", "d_connected")],
    "linear.search": [("linear", "plan_linear")],
    "nonlinear.search": [("nonlinear", "plan_nonlinear")],
    "simulator.sample_world": [("simulator", "sample_world")],
    "simulator.execute_plan": [("simulator", "execute_plan")],
    "simulator.exhaustive_success": [("simulator", "exhaustive_success")],
    "simulator.estimate_success": [("simulator", "estimate_success")],
}

# layers reported by self time alone: their call counts follow from the
# number of problems
SELF_TIME_ONLY = {"domain.parse", "domain.ground", "domain.validate",
                  "linear.search", "nonlinear.search",
                  "simulator.estimate_success"}


def _original(module, attr: str):
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last, getattr(owner, last)


class Tracer:
    def __init__(self):
        self.active = False
        self.names = list(TARGETS)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.found = 0  # threats returned by find_threats
        self.joint_vars = 0  # net variables summed over joint_probability calls
        self.joint_repeats = 0
        self.bookkeeping_s = 0.0  # tracer's own work, charged to no layer
        self.item = -1
        # spans, one slot per call, in call order
        self.span_name = array("i")
        self.span_item = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self._seen_joints: set = set()
        self._cpt_keys: dict[int, tuple] = {}
        self._cpt_refs: list = []  # keeps ids in _cpt_keys from being reused

    # -- installation ------------------------------------------------------

    @staticmethod
    def modules() -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "riskplan"
                                      or name.startswith("riskplan."))]

    def install(self) -> None:
        mods = self.modules()
        by_name = {m.__name__: m for m in mods}
        for nid, name in enumerate(self.names):
            for mod_name, attr in TARGETS[name]:
                home = by_name[f"riskplan.{mod_name}"]
                owner, last, fn = _original(home, attr)
                wrapper = self._wrap(nid, fn)
                if owner is home:
                    # rebind the function wherever a module imported it
                    for m in mods:
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                self._patched.append((m, key, fn))
                                setattr(m, key, wrapper)
                else:  # a method on a class
                    self._patched.append((owner, last, fn))
                    setattr(owner, last, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched.clear()

    def begin_item(self, item: int) -> None:
        """Start a new problem: the repeat count of joint_probability looks
        for repeats within one problem only."""
        self.item = item
        self._seen_joints.clear()
        self._cpt_keys.clear()
        self._cpt_refs.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, nid: int, fn):
        name = self.names[nid]
        tracer = self
        joint = name == "probmodel.joint_probability"
        threats = name == "plangraph.find_threats"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if joint:
                args = tracer._count_joint(args, kwargs)
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_item.append(tracer.item)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if threats:
                tracer.found += len(result)
            return result

        return functools.wraps(fn)(traced)

    def _count_joint(self, args, kwargs):
        t0 = perf_counter()
        args = list(args)
        net = args[0] if args else kwargs["net"]
        if len(args) > 1:
            labels = args[1] = tuple(args[1])  # may be a one-shot iterator
        else:
            labels = kwargs["labels"] = tuple(kwargs["labels"])
        sig = []
        for var, nv in net.variables.items():
            key = self._cpt_keys.get(id(nv.cpt))
            if key is None:
                key = tuple(sorted(nv.cpt.items()))
                self._cpt_keys[id(nv.cpt)] = key
                self._cpt_refs.append(nv.cpt)
            sig.append((var, nv.space, nv.parents, key))
        memo = (frozenset(sig), frozenset(labels))
        self.joint_vars += len(net.variables)
        if memo in self._seen_joints:
            self.joint_repeats += 1
        else:
            self._seen_joints.add(memo)
        if self._stack:  # keep this bookkeeping out of the caller's self time
            spent = perf_counter() - t0
            self._stack[-1][1] += spent
            self.bookkeeping_s += spent
        return tuple(args)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for nid, name in enumerate(self.names):
            if name not in SELF_TIME_ONLY:
                out[f"{name}.calls"] = (self.calls[nid], "count")
            out[f"{name}.self_s"] = (self.self_s[nid], "s")
        out["plangraph.find_threats.found"] = (self.found, "count")
        joints = self.calls[self.names.index("probmodel.joint_probability")]
        out["probmodel.net_vars_mean"] = (
            self.joint_vars / joints if joints else 0.0, "vars")
        out["probmodel.joint_probability.repeat_frac"] = (
            self.joint_repeats / joints if joints else 0.0, "ratio")
        return out

    def save(self, path) -> None:
        import numpy as np

        origin = self.span_start[0] if self.span_start else 0.0
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 item=np.frombuffer(self.span_item, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64) - origin,
                 end=np.frombuffer(self.span_end, dtype=np.float64) - origin)
