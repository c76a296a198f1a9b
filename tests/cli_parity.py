"""CLI parity: 1,250 in-process ``cli.main`` calls and one digest of their
output.

The programs are gen seeds 0-119 (the text of ``gen --seed s``) and the
conftest ``LOOP_SRC``, ``SIEVE_SRC``, ``CF_SRC``, ``DSE_SRC`` and
``SHARED_EXIT_SRC``.  Each gets ten calls, with ``--sample 4 --seed s`` (seed
0 for the conftest programs; the sieve runs from its 100 ``primes_i: true``
store with ``--budget 20000`` instead):

- ``run``, and ``run --sample 4 --budget 50`` (the sieve: its store);
- ``hot`` under type, onepoint and cp;
- ``extract --domain type`` and ``optimize --domain type --pass ts``;
- ``pipeline --rounds 3`` under type/ts and cp/cf, and under onepoint/dse on
  the program with its halting ``skip`` replaced by a ``put`` of all its
  variables.

The digest is the sha256 over ``f"{code}\\n{stdout}--\\n{stderr}"`` of every
call in that order.  Reports are deterministic, so it must not move with the
hash seed or with a change that keeps every report byte-identical.

Usage: ``PYTHONPATH=src python tests/cli_parity.py [--check]``.  Without
``--check`` it prints the digest; with it, it exits 1 unless the digest is
the recorded one.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import CF_SRC, DSE_SRC, LOOP_SRC, SHARED_EXIT_SRC, SIEVE_SRC  # noqa: E402
from tracelab import cli, gen, lang, textio  # noqa: E402

DIGEST = "691ced29d6e45fcdd46f93bf0cdfb553462efbb3e7d80d7ef06e6d3a8fcd1cff"


def _with_put(p):
    """p with its halting ``skip`` replaced by a put of all its variables."""
    (halt,) = [c for c in p.commands if c.succ == lang.HALT]
    put = lang.Command(halt.label, lang.Put(p.vars()), lang.HALT)
    return lang.Program(p.commands - {halt} | {put}, p.entry, p.arrays)


def programs():
    """(name, source text, seed, store file or None) of every program."""
    for seed in range(120):
        yield f"gen{seed}", textio.print_program(gen.gen_program(seed)), seed, None
    for name, src in [("loop", LOOP_SRC), ("sieve", SIEVE_SRC), ("cf", CF_SRC),
                      ("dse", DSE_SRC), ("shared_exit", SHARED_EXIT_SRC)]:
        yield name, src, 0, "sieve.json" if name == "sieve" else None


def calls(workdir: Path):
    """The argument lists of every call, in digest order."""
    (workdir / "sieve.json").write_text(json.dumps({f"primes_{i}": True for i in range(100)}))
    for name, src, seed, store in programs():
        path = workdir / f"{name}.tl"
        path.write_text(src)
        put_path = workdir / f"{name}.put.tl"
        put_path.write_text(textio.print_program(_with_put(textio.parse_program(src))))
        if store:
            stores = ["--initials", str(workdir / store), "--budget", "20000"]
            short = ["--initials", str(workdir / store), "--budget", "50"]
        else:
            stores = ["--sample", "4", "--seed", str(seed)]
            short = ["--sample", "4", "--budget", "50"]
        prog = str(path)
        yield ["run", prog, *stores]
        yield ["run", prog, *short]
        for domain in ("type", "onepoint", "cp"):
            yield ["hot", prog, "--domain", domain, *stores]
        yield ["extract", prog, "--domain", "type", *stores]
        yield ["optimize", prog, "--domain", "type", "--pass", "ts", *stores]
        for domain, pass_ in (("type", "ts"), ("cp", "cf")):
            yield ["pipeline", prog, "--domain", domain, "--pass", pass_, "--rounds", "3", *stores]
        yield ["pipeline", str(put_path), "--domain", "onepoint", "--pass", "dse", "--rounds", "3",
               *stores]


def digest() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for argv in calls(Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            h.update(f"{code}\n{out.getvalue()}--\n{err.getvalue()}".encode())
    return h.hexdigest()


def main(argv) -> int:
    d = digest()
    print(d)
    if "--check" in argv and d != DIGEST:
        print(f"CLI parity digest differs from the recorded {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
