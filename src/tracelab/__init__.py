"""tracelab: a source-to-source tracing JIT laboratory.

Interpret a small labeled-command language, mine hot loop paths from recorded
traces under pluggable store abstractions, extract them as guarded stitches,
optimize along the stitch (type specialization, constant folding, dead-store
elimination), and check observational correctness of every transform.
``pipeline`` runs that loop for a number of rounds and returns a report the CLI
only formats.  A while-language front end reproduces the bisimulation-based
comparison model on top of the same machinery.

Every name in ``__all__`` loads on first use (PEP 562): importing the package
runs none of its modules, and ``import tracelab.textio`` runs only ``values``,
``lang``, ``semantics``, ``domains`` and ``textio``.  A module's name is the
module, so ``tracelab.extract`` is the module, whose ``extract`` function is
``tracelab.extract.extract``.
"""

import importlib

# the names each module exports here, besides the module itself
_EXPORTS = {
    "values": "Bool FF TT UNDEF",
    "lang": "Command Program find_cmpl rename_equal well_formed",
    "semantics": "Run State Store collecting_eval eval_bexpr eval_expr apply_action run step",
    "domains": "AbstractStore cp_domain eval_type get_domain onepoint_domain type_domain",
    "observe": "out out_equiv_check sc sc_equiv_check st",
    "hotpath": "HotPath count hot_n hotcut sloop topo_order",
    "extract": "StitchResult extract_gp extract_nested",
    "optimize": "const_fold dead_store_eliminate free_vars optimize_full type_specialize",
    "witness": "lift_full rtr sp specialization_map td tr_out",
    "gp": "GPCompiler GAssign GBail GIf GSkip GWhile gp_equivalence_check gp_record_hot_path "
          "gp_run gp_step gp_trace_step",
    "textio": "parse_gp_program parse_program print_program",
    "pipeline": "",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names.split())}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    value = mod if name == module else getattr(mod, name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
