"""Hand-assembled workloads re-implemented in the workload language.

Three of the original assembly workloads -- bubble sort, word-wise CRC-32
and binary search -- ported to :mod:`repro.lang` and registered alongside
the originals under ``lang_``-prefixed names.  The ports compute the same
function over the same input convention, so their *outputs* must match the
originals' reference models exactly, and their protocol verdicts must agree
under every attestation scheme (pinned by ``tests/test_lang_ports.py``).

The measurements themselves necessarily differ -- different instruction
sequences hash to different values -- which is precisely what makes the
ports useful: they double the program population exercising each scheme's
loop and branch handling without duplicating any binary.
"""

from __future__ import annotations

from typing import Dict

from repro.cache import DigestCache
from repro.lang.codegen import CompiledProgram, compile_source
from repro.workloads.common import Workload, register_workload
from repro.workloads.search import TABLE

BUBBLE_SORT_SOURCE = """\
// bubble sort: read n values, sort ascending, print space separated
fn main() {
    var n = read();
    array a[64];
    var i = 0;
    while (i < n) {
        a[i] = read();
        i = i + 1;
    }
    i = 0;
    while (i < n - 1) {
        var j = 0;
        while (j < n - i - 1) {
            if (a[j] > a[j + 1]) {
                var t = a[j];
                a[j] = a[j + 1];
                a[j + 1] = t;
            }
            j = j + 1;
        }
        i = i + 1;
    }
    i = 0;
    while (i < n) {
        print(a[i]);
        printc(32);
        i = i + 1;
    }
    return 0;
}
"""

CRC32_SOURCE = """\
// word-wise reflected CRC-32 (poly 0xEDB88320) over n input words
fn main() {
    var n = read();
    var crc = -1;
    var w = 0;
    while (w < n) {
        crc = crc ^ read();
        var bits = 32;
        while (bits > 0) {
            var low = crc & 1;
            crc = crc >> 1;      // logical shift, like the original's srli
            if (low) {
                crc = crc ^ 0xEDB88320;
            }
            bits = bits - 1;
        }
        w = w + 1;
    }
    print(~crc);
    return 0;
}
"""

_TABLE_FILL = "\n".join(
    "    t[%d] = %d;" % (index, value) for index, value in enumerate(TABLE)
)

BINARY_SEARCH_SOURCE = """\
// binary search: the original's 16-entry prime table, filled locally
fn main() {{
    var n = read();
    array t[{size}];
{fill}
    var q = 0;
    while (q < n) {{
        var key = read();
        var lo = 0;
        var hi = {last};
        var result = -1;
        while (lo <= hi) {{
            var mid = (lo + hi) >> 1;
            if (t[mid] == key) {{
                result = mid;
                break;
            }}
            if (t[mid] < key) {{
                lo = mid + 1;
            }} else {{
                hi = mid - 1;
            }}
        }}
        print(result);
        printc(32);
        q = q + 1;
    }}
    return 0;
}}
""".format(size=len(TABLE), fill=_TABLE_FILL, last=len(TABLE) - 1)

#: Port name -> (original workload name, language source).
PORTS: Dict[str, tuple] = {
    "lang_bubble_sort": ("bubble_sort", BUBBLE_SORT_SOURCE),
    "lang_crc32": ("crc32", CRC32_SOURCE),
    "lang_binary_search": ("binary_search", BINARY_SEARCH_SOURCE),
}


def compile_port(name: str, verify: bool = False) -> CompiledProgram:
    """Compile one port by its ``lang_`` name."""
    _, source = PORTS[name]
    return compile_source(source, name=name, verify=verify)


#: Compiled assembly per (port name, source): ``get_workload`` builds a
#: fresh :class:`Workload` on every call, and compiling the source was most
#: of that cost.
_PORT_ASSEMBLY = DigestCache(budget=16)


def _port_workload(name: str) -> Workload:
    from repro.workloads.common import get_workload

    original_name, source = PORTS[name]
    original = get_workload(original_name)
    assembly = _PORT_ASSEMBLY.get_or_build(
        (name, source), lambda: compile_port(name).assembly)
    return Workload(
        name=name,
        description="%s (workload-language port)" % original.description,
        source=assembly,
        inputs=list(original.inputs),
        expected_output=original.expected_output,
        tags=["lang", "port"] + [t for t in original.tags
                                 if t != "paper-workload"],
    )


@register_workload
def lang_bubble_sort() -> Workload:
    """Bubble sort, compiled from the workload language."""
    return _port_workload("lang_bubble_sort")


@register_workload
def lang_crc32() -> Workload:
    """Word-wise CRC-32, compiled from the workload language."""
    return _port_workload("lang_crc32")


@register_workload
def lang_binary_search() -> Workload:
    """Binary search, compiled from the workload language."""
    return _port_workload("lang_binary_search")
