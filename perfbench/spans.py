"""In-memory spans recorded around calls into each layer of softlogic.

The tracer patches the public functions a layer calls (module globals and
`HlMrf` methods) with timing wrappers for as long as it is installed; no
library file changes. Each span holds a name, start, end, parent and a few
attributes (counts); self time is a span's duration less the time its
children cover. Spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import time

import softlogic
import softlogic.ground.data
import softlogic.ground.grounder
import softlogic.lang.parser
import softlogic.learn
from softlogic import HlMrf, SolveOptions


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, name, start, end, parent, attrs
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._tree = (0, {})  # (span count when built, parent id -> children)

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _add(self, name, start, end, parent, **attrs):
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end,
             "parent": parent, "attrs": attrs}
        )

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attribute, wrapper_factory):
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper_factory(original))

    def _timed(self, name, describe=None):
        def factory(original):
            def wrapper(*args, **kwargs):
                with self.span(name) as record:
                    result = original(*args, **kwargs)
                    if describe is not None:
                        record["attrs"].update(describe(args, kwargs, result))
                return result

            return wrapper

        return factory

    def _timed_solve(self, original):
        def wrapper(mrf, opts=None, *args, **kwargs):
            marks = []
            traced = dataclasses.replace(
                opts or SolveOptions(), trace=lambda *_: marks.append(time.perf_counter())
            )
            before = resource.getrusage(resource.RUSAGE_SELF)
            with self.span("infer.solve") as record:
                y, diag = original(mrf, traced, *args, **kwargs)
            after = resource.getrusage(resource.RUSAGE_SELF)
            # One trace callback per iteration: the time before the first
            # callback, less one iteration, is compilation.
            iter_s = (marks[-1] - marks[0]) / (len(marks) - 1) if len(marks) > 1 else 0.0
            first = marks[0] - iter_s if marks else record["end"]
            self._add("infer.compile", record["start"], first, record["id"])
            self._add("infer.iterate", first, marks[-1] if marks else first, record["id"])
            record["attrs"].update(
                iterations=diag.iterations,
                iter_s=iter_s,
                minor_faults=after.ru_minflt - before.ru_minflt,
                sys_s=after.ru_stime - before.ru_stime,
            )
            return y, diag

        return wrapper

    def install(self):
        tokens = lambda a, k, result: {"tokens": len(result)}
        rule_id = lambda a, k, result: {"rule_id": k.get("rule_id", 0)}
        self._patch(softlogic.lang.parser, "tokenize", self._timed("lang.tokenize", tokens))
        self._patch(softlogic.ground.data, "tokenize", self._timed("lang.tokenize", tokens))
        self._patch(softlogic, "parse_program", self._timed("lang.parse"))
        self._patch(
            softlogic, "load_data",
            self._timed("ground.load", lambda a, k, d: {"observations": len(d.observations)}),
        )
        self._patch(
            softlogic, "ground_program",
            self._timed(
                "ground.ground",
                lambda a, k, m: {"potentials": len(m.potentials), "constraints": len(m.constraints)},
            ),
        )
        grounder = softlogic.ground.grounder
        self._patch(grounder, "ground_logical_rule", self._timed("ground.rule", rule_id))
        self._patch(grounder, "ground_arithmetic_rule", self._timed("ground.rule", rule_id))
        self._patch(softlogic, "solve_map", self._timed_solve)
        self._patch(softlogic.learn, "solve_map", self._timed_solve)
        self._patch(softlogic, "perceptron_train", self._timed("learn.train"))
        self._patch(softlogic.learn, "mle_gradient", self._timed("learn.step"))
        self._patch(HlMrf, "with_weights", self._timed("model.with_weights"))
        self._patch(HlMrf, "template_features", self._timed("model.features"))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- queries ---------------------------------------------------------------

    def _children(self):
        if self._tree[0] != len(self.spans):
            children = {}
            for s in self.spans:
                children.setdefault(s["parent"], []).append(s)
            self._tree = (len(self.spans), children)
        return self._tree[1]

    def within(self, root, name):
        """Spans called ``name`` anywhere below span ``root``."""
        children = self._children()
        found, todo = [], list(children.get(root["id"], []))
        while todo:
            s = todo.pop()
            if s["name"] == name:
                found.append(s)
            todo.extend(children.get(s["id"], []))
        return sorted(found, key=lambda s: s["id"])

    def roots(self, name):
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]

    def self_time(self, span):
        children = self._children().get(span["id"], [])
        return duration(span) - sum(duration(c) for c in children)

    def summary(self):
        """Per span name: (count, total seconds, self seconds)."""
        totals = {}
        for s in self.spans:
            count, total, own = totals.get(s["name"], (0, 0.0, 0.0))
            totals[s["name"]] = (count + 1, total + duration(s), own + self.self_time(s))
        return totals

    def write(self, path):
        records = [dict(s, self=self.self_time(s)) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": records, "summary": self.summary()}, fh)


def duration(span):
    return span["end"] - span["start"]
