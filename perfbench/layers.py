"""Fixed module -> layer table and profile folding for the traced run.

The layers are the ``repro`` subpackages. The three top-level modules
(the package ``__init__``, ``__main__`` and ``cli``) are the command-line
entry points to the evaluation harness, so they fold into ``eval``.
Everything outside ``src/repro`` -- builtins, the standard library, this
benchmark's own glue -- and the profiler's unattributed residual fold
into ``python``.
"""

import pathlib

#: Subpackage prefix -> layer. A module ``repro.<pkg>.*`` maps by prefix.
PACKAGE_LAYERS = {
    "repro.sim": "sim",
    "repro.coherence": "coherence",
    "repro.protocols": "protocols",
    "repro.memory": "memory",
    "repro.xg": "xg",
    "repro.accel": "accel",
    "repro.host": "host",
    "repro.testing": "testing",
    "repro.workloads": "workloads",
    "repro.obs": "obs",
    "repro.verify": "verify",
    "repro.eval": "eval",
}

#: Top-level modules -> layer, matched exactly (``repro`` is the package
#: ``__init__``; a prefix match on it would swallow every module).
MODULE_LAYERS = {
    "repro": "eval",
    "repro.__main__": "eval",
    "repro.cli": "eval",
}

LAYERS = tuple(PACKAGE_LAYERS.values()) + ("python",)

#: Functions whose call counts and cumulative times feed named per-layer
#: metrics: key -> (module, function name as the profiler reports it).
#: Each name is unique within its module.
TIMED_FUNCTIONS = {
    "build_system": ("repro.host.system", "build_system"),
    "harness_apply": ("repro.verify.explorer", "apply"),
    "harness_canonical": ("repro.verify.explorer", "canonical"),
    "harness_check": ("repro.verify.explorer", "state_problems"),
}


def layer_matches(module):
    """Every table entry ``module`` matches (a well-formed table gives one)."""
    hits = [layer for name, layer in MODULE_LAYERS.items() if module == name]
    hits += [
        layer for prefix, layer in PACKAGE_LAYERS.items()
        if module == prefix or module.startswith(prefix + ".")
    ]
    return hits


def _dotted(rel_path):
    """Dotted module name of a ``.py`` path relative to the package dir."""
    parts = ("repro",) + rel_path.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def repro_modules(repro_root):
    """Dotted names of every module under the ``repro`` package directory."""
    root = pathlib.Path(repro_root)
    return [_dotted(path.relative_to(root)) for path in sorted(root.rglob("*.py"))]


def check_layer_map(repro_root):
    """Problems with the table: modules that map to no layer or to several."""
    problems = []
    for module in repro_modules(repro_root):
        hits = layer_matches(module)
        if len(hits) != 1:
            problems.append(f"{module} maps to {len(hits)} layers: {hits}")
    return problems


class Folder:
    """Folds ``pstats``-style raw stats into per-layer self time.

    ``repro_root`` is the resolved ``src/repro`` directory; a profiled
    function belongs to ``repro`` when its file lies under it.
    """

    def __init__(self, repro_root):
        self.root = pathlib.Path(repro_root).resolve()
        self._module_of = {}

    def module(self, filename):
        """Dotted module of a profiled file, or None outside ``repro``."""
        cached = self._module_of.get(filename, False)
        if cached is not False:
            return cached
        module = None
        if filename.endswith(".py"):
            try:
                rel = pathlib.Path(filename).resolve().relative_to(self.root)
            except ValueError:
                rel = None
            if rel is not None:
                module = _dotted(rel)
        self._module_of[filename] = module
        return module

    def layer(self, filename):
        module = self.module(filename)
        if module is None:
            return "python"
        hits = layer_matches(module)
        if len(hits) != 1:
            raise ValueError(f"{module} maps to {len(hits)} layers: {hits}")
        return hits[0]

    def fold(self, raw_stats):
        """Fold ``pstats.Stats(profile).stats`` by layer.

        Returns ``{"self": {layer: s}, "calls": {key: n}, "cum": {key: s},
        "cum_by_caller": {key: {layer: s}}}``, keyed by the entries of
        :data:`TIMED_FUNCTIONS`; ``cum_by_caller`` splits a function's
        cumulative time by the layer of its direct callers.
        """
        fold = empty_fold()
        for (filename, _line, funcname), row in raw_stats.items():
            _cc, ncalls, tottime, cumtime, callers = row
            fold["self"][self.layer(filename)] += tottime
            module = self.module(filename)
            if module is None:
                continue
            for key, (want_module, want_name) in TIMED_FUNCTIONS.items():
                if module == want_module and funcname == want_name:
                    fold["calls"][key] += ncalls
                    fold["cum"][key] += cumtime
                    by_caller = fold["cum_by_caller"][key]
                    for (caller_file, _l, _f), caller_row in callers.items():
                        by_caller[self.layer(caller_file)] += caller_row[3]
        return fold


def empty_fold():
    return {
        "self": dict.fromkeys(LAYERS, 0.0),
        "calls": dict.fromkeys(TIMED_FUNCTIONS, 0),
        "cum": dict.fromkeys(TIMED_FUNCTIONS, 0.0),
        "cum_by_caller": {key: dict.fromkeys(LAYERS, 0.0) for key in TIMED_FUNCTIONS},
    }


def merge_folds(folds):
    """Sum several :meth:`Folder.fold` results key by key."""
    out = empty_fold()
    for fold in folds:
        for part in ("self", "calls", "cum"):
            for key, value in fold[part].items():
                out[part][key] += value
        for key, by_layer in fold["cum_by_caller"].items():
            for layer, value in by_layer.items():
                out["cum_by_caller"][key][layer] += value
    return out
