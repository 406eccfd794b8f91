"""The benchmark's workloads: fixed lists of ellipta CLI invocations, and the
correctness check applied to every one of them.

Sizes are fixed. The workload seed reaches the program only as `--seed` to
`verify all`, where it picks the random closure instances. No op passes
`--jobs`, which today only runs threads under the GIL.

Digests were recorded from the program at the commit that introduced this
benchmark. CLI stdout must stay byte-identical across refactors, so a digest
mismatch is a wrong answer, never a reason to update the digest.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_SUITES = (
    "routes", "dumont", "viennot-symmetry", "thm1", "thm2",
    "lemma5", "theorem13", "corollary15", "lemma9", "closure",
)

# sha256 of stdout, or of the written cache file for writes. The tree
# outputs equal those of the recurrence and operator routes, and the s
# cache file equals `compute s --max-n 120 --route operator`.
J120 = "685dac86dbe679e22a1b7bb4ba61bd45413998223af30c4ddee23a451a0261e6"
GAMMA8 = "cda7a36a5f214eae17b0a63a1f3f5165765964273d60694230f5a1157e58cfc5"
S8 = "99fda8239ce41c6fe0a892607899a2ec51f423d78cc301fd8fbe20db5106c77f"
S120_JSONL = "6ac85d0b9d552ba267739075531e47f0fb885bbec0a582af0220807533e6012b"
GAMMA160_JSONL = "8400c75c5414207c82ce5eefc5079d01550cd058a522236cc22c0e4feefd7934"
GAMMA160_CSV = "1fbad681856d3b0f05b966ec5e7a453ffde351dfd98347ad3e44ac3ceee46766"
DECOMPOSE100 = "3758544d2d29fdf2e7c023131bd81331874f40c40da1aa13018ef23f1f60128a"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check on its result.

    kind "stdout": exit 0 and the stdout sha256 equals `digest`.
    kind "verify": exit 0, `suite <name>: PASS` for each of `suites`, and
    no FAIL line. Stdout is not digested: it may gain timings.
    kind "cache_write": exit 0 and the written file's sha256 equals `digest`.
    kind "cache_read": as "stdout"; the file read is `cache_file`.
    """

    name: str
    argv: tuple
    kind: str
    digest: str = ""
    suites: tuple = ()
    cache_file: str = ""

    def args(self, seed: int, cache_dir: str) -> list:
        return [a.format(seed=seed, cache=cache_dir) for a in self.argv]


def _j(route: str) -> Op:
    return Op(f"j_{route}", ("compute", "j", "--n", "120", "--route", route), "stdout", J120)


def _cache(action: str, target: str, digest: str, *extra: str) -> Op:
    argv = ("cache", action, "--target", target, *extra, "--cache-dir", "{cache}")
    kind = f"cache_{action}"
    return Op(f"{action}_{target}", argv, kind, digest, cache_file=f"{target}.jsonl")


WORKLOADS = {
    # The four independent J routes at a size where bigint arithmetic
    # dominates: derive_once, p_poly row scans, uni_mul on J-sized operands,
    # uni_mul on factorial-scaled bigints.
    "jroutes": tuple(_j(r) for r in ("operator", "recurrence", "viennot", "series")),
    # Certificate construction: gamma triangle, j_even_decompositions and
    # the gammakit checks beside Viennot's uni_mul; no grammar, series or
    # tree code. `compute decompose` is the only op that reaches
    # gammakit.gamma_expand.
    "certify": (
        Op("thm1", ("verify", "thm1", "--max-n", "80"), "verify", suites=("thm1",)),
        Op("thm2", ("verify", "thm2", "--max-n", "80"), "verify", suites=("thm2",)),
        Op("decompose", ("compute", "decompose", "--n", "100"), "stdout", DECOMPOSE100),
    ),
    # n!-sized enumeration at the default cap: interpreter-bound small-int
    # work with almost no bigint arithmetic.
    "oracle": (
        Op("verify_all", ("verify", "all", "--seed", "{seed}"), "verify", suites=ALL_SUITES),
        Op("gamma_trees", ("compute", "gamma", "--max-n", "8", "--route", "trees"), "stdout",
           GAMMA8),
        Op("s_trees", ("compute", "s", "--max-n", "8", "--route", "trees"), "stdout", S8),
    ),
    # The triangle layer as persistence: build + serialize + write, then
    # read + parse + validate + emit (about 29 MB of stdout), in a fresh
    # cache dir per pass. Each read finds a complete file, so the stale
    # partial read of a short cache file is not exercised here.
    "cache": (
        _cache("write", "s", S120_JSONL, "--max-n", "120"),
        _cache("read", "s", S120_JSONL),
        _cache("write", "gamma", GAMMA160_JSONL, "--max-n", "160"),
        _cache("read", "gamma", GAMMA160_CSV, "--format", "csv"),
    ),
}


def check(op: Op, returncode: int, stdout_sha: str, stdout: bytes, file_sha: str | None):
    """Why the op's result is wrong, or None when it is right."""
    if returncode != 0:
        return f"exit code {returncode}"
    if op.kind in ("stdout", "cache_read") and stdout_sha != op.digest:
        return f"stdout sha256 {stdout_sha} != reference {op.digest}"
    if op.kind == "cache_write" and file_sha != op.digest:
        return f"cache file sha256 {file_sha} != reference {op.digest}"
    if op.kind == "verify":
        lines = stdout.decode("utf-8", "replace").splitlines()
        if any("FAIL" in line for line in lines):
            return "verify printed a FAIL line"
        passed = {
            line[len("suite "):line.index(": PASS")]
            for line in lines
            if line.startswith("suite ") and ": PASS" in line
        }
        missing = [s for s in op.suites if s not in passed]
        if missing:
            return f"no PASS verdict for suite(s) {', '.join(missing)}"
    return None
