"""The key of a committed perf row (tools/bench_record.sh, tools/bench_diff.sh).

A row is keyed by the code it measured: perfbench builds only `perfbench/`
and the library under `src/`, so the key is the hash of a git tree holding
just those two trees. Documents, tools, tests and the rows themselves may
change after recording without changing the key; the commit that lands a
change and its rows maps to the change's row, and two different trees on
the same HEAD never share a key.
"""
import os
import subprocess
import tempfile

MEASURED = ("perfbench", "src")


def source_tree(checkout, rev=None):
    """The row key of `rev` in `checkout`, or of its working tree (tracked
    files as they are, plus untracked files that are not ignored) when rev
    is None."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))

        def git(*args, stdin=None):
            return subprocess.run(["git", "-C", checkout, *args], env=env, check=True,
                                  input=stdin, capture_output=True, text=True).stdout.strip()

        git("read-tree", rev or "HEAD")
        if rev is None:
            git("add", "-A", "--", *MEASURED)
        tree = git("write-tree")
        entries = "".join(f"040000 tree {git('rev-parse', f'{tree}:{path}')}\t{path}\n"
                          for path in MEASURED)
        return git("mktree", stdin=entries)[:12]
