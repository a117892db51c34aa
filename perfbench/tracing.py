"""Spans and counters recorded at the dvlg module boundaries.

The tracer rebinds public functions where one module calls another
(for example the name `simplify` inside dvlg.reduction) and the
functions the benchmark itself calls. Each wrapper records one span:
its name, start, end, parent span and op id. Spans stay in memory in
flat arrays and are written out when the run ends. Nothing inside the
package is edited; spans inside the package are a later change.

A layer's self time is the duration of its spans minus the time their
child spans cover. Metrics are per pass: one execution of every op.
An op runs a number of times that depends on the machine's speed, so a
time is the mean over the op's executions, and counts are taken from
the first execution of each op that never failed: an op cut by the
time limit stops at a point that depends on the machine, so its counts
would differ from run to run. Times cover every op.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

LAYERS = (
    "parser", "rewrites", "reduction", "boolalg", "oracle", "linear",
    "periodic", "selfcheck",
)

# function called by the benchmark -> layer
BENCH_CALLS = {
    "parse": "parser",
    "reduce": "reduction",
    "assemble_reduct": "reduction",
    "ba_decide": "boolalg",
    "decide_finite": "oracle",
    "periodic_witness_search": "selfcheck",
}

# module -> {name bound in that module -> layer of the callee}
REBIND = {
    "reduction": {
        "simplify": "rewrites",
        "one_point": "rewrites",
        "rename_bound": "rewrites",
        "group_atoms_to_lattice": "rewrites",
        "push_valuation_formula": "rewrites",
        "gterm_to_lin": "rewrites",
        "val_of_lin": "rewrites",
        "ba_qe": "boolalg",
    },
    "boolalg": {"simplify": "rewrites", "rename_bound": "rewrites"},
    "oracle": {
        "linearize_group_term": "rewrites",
        "one_point": "rewrites",
        "rename_bound": "rewrites",
        "to_dnf": "oracle",
        "prune_dnf": "oracle",
        "fm_eliminate": "linear",
    },
    "periodic": {
        name: "periodic"
        for name in (
            "normalize", "normalize_set", "periodic_op", "periodic_scale",
            "periodic_leq", "periodic_valuation", "set_op",
        )
    },
}


def tree_size(node, node_types) -> int:
    """Number of term and formula nodes, counted without recursion."""
    size, todo = 0, [node]
    while todo:
        x = todo.pop()
        size += 1
        todo.extend(v for v in vars(x).values() if isinstance(v, node_types))
    return size


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.label_layer: list[str] = []
        # five numbers per span: label, parent span, op, start, end
        self.spans = array("d")
        self.stack = [-1]
        self.op = -1  # -1 while setting up
        self.op_counts: Counter = Counter()  # counts of the running op
        self.exec_counts: dict = {}  # op execution id -> its counts
        self.setup_counts: Counter = Counter()
        self.in_candidate = False

    # --- recording ---

    def _label(self, label: str, layer: str) -> int:
        self.labels.append(label)
        self.label_layer.append(layer)
        return len(self.labels) - 1

    def wrap(self, fn, layer: str, label: str, after=None):
        lid = self._label(label, layer)
        perf = time.perf_counter
        stack, op_counts, spans = self.stack, self.op_counts, self.spans

        def traced(*args, **kwargs):
            idx = len(spans) // 5
            # one call appends the whole record, so the time-limit signal
            # cannot leave it half written
            spans.extend((lid, stack[-1], self.op, perf(), -1.0))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[5 * idx + 4] = perf()
                stack.pop()
            if after is not None:
                after(op_counts, args, out)
            return out

        return traced

    def span_count(self) -> int:
        return len(self.spans) // 5

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.op_counts.clear()
        del self.stack[1:]

    def end_op(self, decided: bool, first_span: int, t_end: float) -> None:
        if decided:
            self.exec_counts[self.op] = Counter(self.op_counts)
        else:
            # a span the failure left open ends with its op
            for i in range(5 * first_span + 4, len(self.spans), 5):
                if self.spans[i] < 0:
                    self.spans[i] = t_end
        del self.stack[1:]
        self.op = -1

    # --- installing ---

    def install(self, mods, api) -> None:
        """Wrap the benchmark's calls in `api` and rebind the module
        boundaries in the freshly imported package `mods`."""
        nodes = (mods.syntax.Term, mods.syntax.Formula)

        def reduce_after(c, args, out):
            c["reduction.eliminations"] += out.eliminations
            c["reduction.chi_nodes"] += tree_size(out.chi, nodes)

        def qe_after(c, args, out):
            c["boolalg.qe_out_nodes"] += tree_size(out, nodes)

        def to_dnf_after(c, args, out):
            c["oracle.dnf_disjuncts"] += len(out)

        def prune_after(c, args, out):
            c["oracle.prune_in"] += len(args[0])
            c["oracle.prune_out"] += len(out)

        def fm_after(c, args, out):
            c["linear.conj_in"] += len(args[1])
            c["linear.conj_out"] += len(out)

        after = {
            ("bench", "reduce"): reduce_after,
            ("reduction", "ba_qe"): qe_after,
            ("oracle", "to_dnf"): to_dnf_after,
            ("oracle", "prune_dnf"): prune_after,
            ("oracle", "fm_eliminate"): fm_after,
        }
        for name, layer in BENCH_CALLS.items():
            fn = getattr(api, name)
            setattr(api, name, self.wrap(fn, layer, f"{layer}.{name}",
                                         after.get(("bench", name))))
        for mod_name, table in REBIND.items():
            mod = getattr(mods, mod_name)
            for name, layer in table.items():
                fn = getattr(mod, name)
                setattr(mod, name, self.wrap(
                    fn, layer, f"{layer}.{name}@{mod_name}",
                    after.get((mod_name, name)),
                ))
        self._install_candidates(mods)
        self._install_subsets(mods)
        self._install_corpus(mods)

    def _install_candidates(self, mods) -> None:
        """eval_qf_periodic recurses through its module name; only the
        outermost call, one witness candidate, gets a span."""
        sc = mods.selfcheck
        inner = sc.eval_qf_periodic
        traced = self.wrap(inner, "selfcheck", "selfcheck.eval_qf_periodic")

        def candidate(env, phi):
            if self.in_candidate:
                return inner(env, phi)
            self.in_candidate = True
            try:
                return traced(env, phi)
            finally:
                self.in_candidate = False

        sc.eval_qf_periodic = candidate

    def _install_subsets(self, mods) -> None:
        cls = mods.standard.FinStdStructure
        enumerate_subsets = cls.all_subsets
        counts = self.op_counts

        def all_subsets(struct):
            for s in enumerate_subsets(struct):
                counts["oracle.subsets"] += 1
                yield s

        cls.all_subsets = all_subsets

    def _install_corpus(self, mods) -> None:
        """Count fragment checks during corpus generation (set-up only)."""
        corpus, counts = mods.corpus, self.setup_counts
        check = corpus.reduce

        def reduce(phi, mode="tplus"):
            counts["corpus.candidates"] += 1
            out = check(phi, mode=mode)
            counts["corpus.accepted"] += 1
            return out

        corpus.reduce = reduce

    # --- aggregating ---

    def layer_metrics(self, weight: list, counted: set) -> dict:
        """Per-pass self times and counts for each layer. `weight` gives
        each op execution's share of a pass (one over the number of times
        its op ran); counts come from the executions in `counted`."""
        n = self.span_count()
        label, parent, op, start, end = (
            [int(x) for x in self.spans[0::5]],
            [int(x) for x in self.spans[1::5]],
            [int(x) for x in self.spans[2::5]],
            self.spans[3::5],
            self.spans[4::5],
        )
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = Counter()
        calls = Counter()
        label_calls = Counter()
        for i in range(n):
            o = op[i]
            if o < 0:
                continue
            lid = label[i]
            layer = self.label_layer[lid]
            own = (end[i] - start[i] - child[i]) * weight[o]
            self_s[layer] += own
            if layer == "rewrites" and self.labels[lid].endswith("@oracle"):
                self_s["rewrites@oracle"] += own
            if o in counted:
                calls[layer] += 1
                label_calls[self.labels[lid]] += 1
        c = Counter()
        for o in counted:
            c.update(self.exec_counts[o])
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        out["bench.self_s"] = self_s["bench"]
        out["rewrites.oracle_self_s"] = self_s["rewrites@oracle"]
        out["rewrites.linearize_calls"] = (
            label_calls["rewrites.linearize_group_term@oracle"]
        )
        out["linear.fm_calls"] = label_calls["linear.fm_eliminate@oracle"]
        out["selfcheck.witness_candidates"] = (
            label_calls["selfcheck.eval_qf_periodic"]
        )
        out["selfcheck.witness_self_s"] = out["selfcheck.self_s"]
        for key in ("reduction.eliminations", "reduction.chi_nodes",
                    "boolalg.qe_out_nodes", "oracle.subsets",
                    "oracle.dnf_disjuncts", "linear.conj_in"):
            out[key] = c[key]
        out["oracle.prune_kept_ratio"] = _ratio(c["oracle.prune_out"], c["oracle.prune_in"])
        out["linear.fm_survive_ratio"] = _ratio(c["linear.conj_out"], c["linear.conj_in"])
        sc = self.setup_counts
        out["corpus.accept_ratio"] = _ratio(sc["corpus.accepted"], sc["corpus.candidates"])
        return out

    def write_spans(self, path) -> None:
        """One line per span: op, name, parent, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tname\tparent\tstart\tend\n")
            sp = self.spans
            for i in range(0, len(sp), 5):
                fh.write(
                    f"{int(sp[i + 2])}\t{self.labels[int(sp[i])]}\t"
                    f"{int(sp[i + 1])}\t{sp[i + 3]:.7f}\t{sp[i + 4]:.7f}\n"
                )


def _ratio(num, den) -> float:
    return num / den if den else 0.0
