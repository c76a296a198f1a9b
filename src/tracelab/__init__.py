"""tracelab: a source-to-source tracing JIT laboratory.

Interpret a small labeled-command language, mine hot loop paths from recorded
traces under pluggable store abstractions, extract them as guarded stitches,
optimize along the stitch (type specialization, constant folding, dead-store
elimination), and check observational correctness of every transform.
``pipeline`` runs that loop for a number of rounds and returns a report the CLI
only formats.  A while-language front end reproduces the bisimulation-based
comparison model on top of the same machinery.
"""

from .values import Bool, FF, TT, UNDEF
from .lang import Command, Program, find_cmpl, rename_equal, well_formed
from .semantics import (Run, State, Store, collecting_eval, eval_bexpr,
                        eval_expr, apply_action, run, step)
from .domains import (AbstractStore, abstract_add_type, cp_domain, eval_type,
                      get_domain, onepoint_domain, type_domain)
from .observe import out, out_equiv_check, sc, sc_equiv_check, st
from .hotpath import HotPath, count, hot_n, hotcut, sloop, topo_order
from .extract import StitchResult, extract, extract_gp, extract_nested
from .optimize import (const_fold, dead_store_eliminate, free_vars,
                       optimize_full, type_specialize)
from .witness import lift_full, rtr, sp, specialization_map, td, tr_out
from .gp import (GPCompiler, GAssign, GBail, GIf, GSkip, GWhile,
                 gp_equivalence_check, gp_record_hot_path, gp_run, gp_step,
                 gp_trace_step)
from .textio import parse_gp_program, parse_program, print_program
from . import pipeline

__all__ = [n for n in dir() if not n.startswith("_")]
