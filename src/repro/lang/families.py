"""Parameterized workload families, compiled from the workload language.

Each *family* is a generator of programs spanning one structural axis the
attestation schemes care about -- loop-nesting depth (``nest``), branch
density (``branchy``), call-graph shape (``calls``), array sizes
(``arrays``).  A family instance is fully described by a small parameter
dict, compiles deterministically to assembly through :mod:`repro.lang`, and
carries a pure-Python reference model so its expected output is known for
any input without trusting the simulator.

Every arithmetic step in a family program is masked to 31 bits
(``& 0x7FFFFFFF``), which keeps all values non-negative and makes the RV32
semantics (wrapping mul/add, logical ``>>``, signed ``%``) coincide exactly
with unbounded Python integers.

Inputs are drawn through the same ``derive_rng`` plumbing as the adversary
tooling: one seed (explicit > ``REPRO_SEED`` > 20170618) reproduces the
whole matrix.  Workload *names* depend only on the parameters -- never the
seed -- so campaign specs stay stable while inputs vary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.adversary.seeds import derive_rng, resolve_seed
from repro.lang.codegen import CompiledProgram, compile_source
from repro.workloads.common import WORKLOAD_REGISTRY, Workload

#: All family arithmetic stays below 2**31: non-negative and wrap-free.
MASK = 0x7FFFFFFF

#: LCG constants (glibc's ``rand``); any fixed mixing constants would do.
LCG_MUL = 1103515245
LCG_INC = 12345

#: Knuth's multiplicative-hash constant, used by call-family leaves.
HASH_MUL = 2654435761

Params = Dict[str, object]


def _lcg(x: int) -> int:
    return (x * LCG_MUL + LCG_INC) & MASK


@dataclass(frozen=True)
class Family:
    """One parameterized workload family.

    Attributes:
        name: family identifier (``nest``, ``branchy``, ...).
        description: one-line summary of the structural axis it spans.
        grid: the default parameter grid, one dict per family member.
        source: ``params -> lang source`` builder.
        reference: ``(params, inputs) -> expected output`` pure-Python model.
        sample_inputs: ``(params, rng) -> inputs`` drawing one input vector.
        tags: extra workload tags beyond the standard family tags.
    """

    name: str
    description: str
    grid: Sequence[Params]
    source: Callable[[Params], str]
    reference: Callable[[Params, Sequence[int]], str]
    sample_inputs: Callable[[Params, random.Random], List[int]]
    tags: Sequence[str] = ()

    def member_name(self, params: Params) -> str:
        """Registry name for one family member, e.g. ``fam_nest_d3_i2``."""
        suffix = "_".join(
            "%s%s" % (key[0] if isinstance(value, int) else "", value)
            for key, value in params.items()
        )
        return "fam_%s_%s" % (self.name, suffix)


# ------------------------------------------------------------------ families
def _nest_source(params: Params) -> str:
    depth = int(params["depth"])  # type: ignore[arg-type]
    iters = int(params["iters"])  # type: ignore[arg-type]
    lines = [
        "// nest family: %d nested while loops, inner bounds %d" % (depth, iters),
        "fn main() {",
        "    var n = read();",
        "    var acc = read();",
    ]
    pad = "    "
    for level in range(1, depth + 1):
        bound = "n" if level == 1 else str(iters)
        lines.append("%svar i%d = 0;" % (pad, level))
        lines.append("%swhile (i%d < %s) {" % (pad, level, bound))
        pad += "    "
    index_sum = " + ".join("i%d" % level for level in range(1, depth + 1))
    lines.append("%sacc = (acc * 31 + %s + 7) & 2147483647;" % (pad, index_sum))
    for level in range(depth, 0, -1):
        lines.append("%si%d = i%d + 1;" % (pad, level, level))
        pad = pad[:-4]
        lines.append("%s}" % pad)
    lines += [
        "    print(acc);",
        "    printc(10);",
        "    return 0;",
        "}",
    ]
    return "\n".join(lines) + "\n"


def _nest_reference(params: Params, inputs: Sequence[int]) -> str:
    depth = int(params["depth"])  # type: ignore[arg-type]
    iters = int(params["iters"])  # type: ignore[arg-type]
    n, acc = int(inputs[0]), int(inputs[1])

    def run(level: int, index_sum: int, acc: int) -> int:
        bound = n if level == 1 else iters
        for i in range(bound):
            if level == depth:
                acc = (acc * 31 + index_sum + i + 7) & MASK
            else:
                acc = run(level + 1, index_sum + i, acc)
        return acc

    return "%d\n" % run(1, 0, acc)


def _nest_inputs(params: Params, rng: random.Random) -> List[int]:
    return [rng.randint(3, 7), rng.randint(1, 1000000)]


def _branchy_source(params: Params) -> str:
    branches = int(params["branches"])  # type: ignore[arg-type]
    filler = int(params["filler"])  # type: ignore[arg-type]
    lines = [
        "// branchy family: %d data-dependent branches, %d filler ops"
        % (branches, filler),
        "fn main() {",
        "    var n = read();",
        "    var x = read();",
        "    var acc = 0;",
        "    var i = 0;",
        "    while (i < n) {",
        "        x = (x * %d + %d) & 2147483647;" % (LCG_MUL, LCG_INC),
    ]
    for j in range(branches):
        lines += [
            "        if ((x >> %d) & 1) {" % j,
            "            acc = (acc + (x >> %d)) & 2147483647;" % (j + 1),
            "        } else {",
            "            acc = (acc ^ %d) & 2147483647;" % (j * j + 1),
            "        }",
        ]
    for k in range(filler):
        lines.append(
            "        acc = (acc + %d) & 2147483647;" % ((HASH_MUL >> k) & MASK))
    lines += [
        "        i = i + 1;",
        "    }",
        "    print(acc);",
        "    printc(10);",
        "    return 0;",
        "}",
    ]
    return "\n".join(lines) + "\n"


def _branchy_reference(params: Params, inputs: Sequence[int]) -> str:
    branches = int(params["branches"])  # type: ignore[arg-type]
    filler = int(params["filler"])  # type: ignore[arg-type]
    n, x = int(inputs[0]), int(inputs[1])
    acc = 0
    for _ in range(n):
        x = _lcg(x)
        for j in range(branches):
            if (x >> j) & 1:
                acc = (acc + (x >> (j + 1))) & MASK
            else:
                acc = (acc ^ (j * j + 1)) & MASK
        for k in range(filler):
            acc = (acc + ((HASH_MUL >> k) & MASK)) & MASK
    return "%d\n" % acc


def _branchy_inputs(params: Params, rng: random.Random) -> List[int]:
    return [rng.randint(6, 12), rng.randint(1, MASK)]


def _calls_source(params: Params) -> str:
    shape = str(params["shape"])
    depth = int(params["depth"])  # type: ignore[arg-type]
    lines = ["// calls family: %s-shaped call graph of depth %d" % (shape, depth)]
    for k in range(1, depth):
        lines += [
            "fn f%d(x) {" % k,
            "    var r = (x + %d) & 2147483647;" % k,
            "    var i = 0;",
            "    while (i < 3) {",
            "        r = (r * 33 + i) & 2147483647;",
            "        i = i + 1;",
            "    }",
        ]
        if shape == "tree":
            lines.append(
                "    return (r + f%d((r ^ %d) & 2147483647)"
                " + f%d((r + %d) & 2147483647)) & 2147483647;"
                % (k + 1, k, k + 1, 11 * k))
        else:
            lines.append(
                "    return (r + f%d((r ^ %d) & 2147483647)) & 2147483647;"
                % (k + 1, k))
        lines.append("}")
    lines += [
        "fn f%d(x) {" % depth,
        "    return (x * %d + 97) & 2147483647;" % HASH_MUL,
        "}",
        "fn main() {",
        "    var q = read();",
        "    var x = read();",
        "    var acc = 0;",
        "    var i = 0;",
        "    while (i < q) {",
        "        acc = (acc + f1((x + i) & 2147483647)) & 2147483647;",
        "        i = i + 1;",
        "    }",
        "    print(acc);",
        "    printc(10);",
        "    return 0;",
        "}",
    ]
    return "\n".join(lines) + "\n"


def _calls_reference(params: Params, inputs: Sequence[int]) -> str:
    shape = str(params["shape"])
    depth = int(params["depth"])  # type: ignore[arg-type]
    q, x = int(inputs[0]), int(inputs[1])

    def fk(k: int, value: int) -> int:
        if k == depth:
            return (value * HASH_MUL + 97) & MASK
        r = (value + k) & MASK
        for i in range(3):
            r = (r * 33 + i) & MASK
        total = r + fk(k + 1, (r ^ k) & MASK)
        if shape == "tree":
            total += fk(k + 1, (r + 11 * k) & MASK)
        return total & MASK

    acc = 0
    for i in range(q):
        acc = (acc + fk(1, (x + i) & MASK)) & MASK
    return "%d\n" % acc


def _calls_inputs(params: Params, rng: random.Random) -> List[int]:
    return [rng.randint(2, 5), rng.randint(1, MASK)]


def _arrays_source(params: Params) -> str:
    size = int(params["size"])  # type: ignore[arg-type]
    window = int(params["window"])  # type: ignore[arg-type]
    return "\n".join([
        "// arrays family: %d-word array, sliding window of %d" % (size, window),
        "fn main() {",
        "    var x = read();",
        "    var q = read();",
        "    array a[%d];" % size,
        "    var i = 0;",
        "    while (i < %d) {" % size,
        "        x = (x * %d + %d) & 2147483647;" % (LCG_MUL, LCG_INC),
        "        a[i] = x % 1000;",
        "        i = i + 1;",
        "    }",
        "    var acc = 0;",
        "    var j = 0;",
        "    while (j < %d) {" % (size - window),
        "        var k = 0;",
        "        while (k < %d) {" % window,
        "            acc = (acc + a[j + k]) & 2147483647;",
        "            k = k + 1;",
        "        }",
        "        if (a[j] > a[j + 1]) {",
        "            acc = (acc + j) & 2147483647;",
        "        }",
        "        j = j + 1;",
        "    }",
        "    acc = (acc + a[q %% %d]) & 2147483647;" % size,
        "    print(acc);",
        "    printc(10);",
        "    return 0;",
        "}",
    ]) + "\n"


def _arrays_reference(params: Params, inputs: Sequence[int]) -> str:
    size = int(params["size"])  # type: ignore[arg-type]
    window = int(params["window"])  # type: ignore[arg-type]
    x, q = int(inputs[0]), int(inputs[1])
    a = []
    for _ in range(size):
        x = _lcg(x)
        a.append(x % 1000)
    acc = 0
    for j in range(size - window):
        for k in range(window):
            acc = (acc + a[j + k]) & MASK
        if a[j] > a[j + 1]:
            acc = (acc + j) & MASK
    acc = (acc + a[q % size]) & MASK
    return "%d\n" % acc


def _arrays_inputs(params: Params, rng: random.Random) -> List[int]:
    return [rng.randint(1, MASK), rng.randint(0, 1000000)]


#: All registered families, keyed by name.
FAMILY_REGISTRY: Dict[str, Family] = {}


def _register(family: Family) -> Family:
    FAMILY_REGISTRY[family.name] = family
    return family


_register(Family(
    name="nest",
    description="nested while loops, depth 1-4, varying inner trip counts",
    grid=tuple(
        [{"depth": 1, "iters": 2}]
        + [{"depth": d, "iters": m} for d in (2, 3, 4) for m in (2, 3, 4)]
    ),
    source=_nest_source,
    reference=_nest_reference,
    sample_inputs=_nest_inputs,
    tags=("loops", "nested"),
))

_register(Family(
    name="branchy",
    description="data-dependent branch chains of varying density",
    grid=tuple(
        {"branches": b, "filler": f} for b in (2, 4, 6) for f in (0, 3)
    ),
    source=_branchy_source,
    reference=_branchy_reference,
    sample_inputs=_branchy_inputs,
    tags=("branches", "loops"),
))

_register(Family(
    name="calls",
    description="chain- and tree-shaped call graphs of varying depth",
    grid=tuple(
        {"shape": s, "depth": d} for s in ("chain", "tree") for d in (2, 3, 4)
    ),
    source=_calls_source,
    reference=_calls_reference,
    sample_inputs=_calls_inputs,
    tags=("calls", "loops"),
))

_register(Family(
    name="arrays",
    description="array fills and sliding-window reductions",
    grid=tuple(
        {"size": s, "window": w} for s in (16, 64) for w in (2, 4, 8)
    ),
    source=_arrays_source,
    reference=_arrays_reference,
    sample_inputs=_arrays_inputs,
    tags=("arrays", "loops", "nested"),
))


# ---------------------------------------------------------------- generation
def family_names() -> List[str]:
    """Sorted names of all registered families."""
    return sorted(FAMILY_REGISTRY)


def get_family(name: str) -> Family:
    try:
        return FAMILY_REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown family %r (known: %s)" % (name, ", ".join(family_names()))
        ) from None


def compile_member(family: Family, params: Params,
                   verify: bool = True) -> CompiledProgram:
    """Compile one family member, verifying codegen metadata by default."""
    name = family.member_name(params)
    return compile_source(family.source(params), name=name, verify=verify)


def member_inputs(family: Family, params: Params, seed: int,
                  variant: int = 0) -> List[int]:
    """The deterministic input vector for one member and input-set index."""
    rng = derive_rng(seed, "family", family.name,
                     family.member_name(params), "inputs%d" % variant)
    return family.sample_inputs(params, rng)


def build_member(family: Family, params: Params, seed: Optional[int] = None,
                 verify: bool = True) -> Workload:
    """Compile one family member into a registrable :class:`Workload`."""
    effective = resolve_seed(seed)
    compiled = compile_member(family, params, verify=verify)
    inputs = member_inputs(family, params, effective)
    expected = family.reference(params, inputs)
    param_text = ", ".join(
        "%s=%s" % (key, value) for key, value in params.items())
    return Workload(
        name=compiled.name,
        description="%s family (%s): %s" % (
            family.name, param_text, family.description),
        source=compiled.assembly,
        inputs=inputs,
        expected_output=expected,
        tags=["lang", "family", "family:%s" % family.name] + list(family.tags),
    )


def generate_family(name: str, seed: Optional[int] = None,
                    grid: Optional[Iterable[Params]] = None,
                    verify: bool = True) -> List[Workload]:
    """Compile every member of one family over ``grid`` (default grid)."""
    family = get_family(name)
    members = list(grid) if grid is not None else list(family.grid)
    return [build_member(family, params, seed=seed, verify=verify)
            for params in members]


def family_matrix(names: Optional[Sequence[str]] = None,
                  seed: Optional[int] = None,
                  register: bool = True,
                  verify: bool = True) -> List[Workload]:
    """Compile the full family matrix and (by default) register the members.

    Registration installs one factory per member in ``WORKLOAD_REGISTRY`` so
    campaign specs can name family workloads exactly like hand-written ones.
    Re-registering with a different seed replaces the factories (names are
    seed-independent; inputs and expected outputs are not).
    """
    workloads: List[Workload] = []
    for name in names if names is not None else family_names():
        workloads.extend(generate_family(name, seed=seed, verify=verify))
    if register:
        register_family_workloads(workloads)
    return workloads


def register_family_workloads(workloads: Sequence[Workload]) -> None:
    """Install factories for already-built family workloads."""
    for workload in workloads:
        WORKLOAD_REGISTRY[workload.name] = (
            lambda w=workload: w  # late-binding guard: capture per iteration
        )
