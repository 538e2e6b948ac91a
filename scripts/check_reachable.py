#!/usr/bin/env python3
"""Reachability gate: every `latol::` function compiled from src/ must be
reachable from the `latol` binary, or carry a reasoned allowlist row.

Usage: python3 scripts/check_reachable.py (no options)

Four steps:

1. Configure and build the `latol` target alone in its own build
   directory, build-reachable/ at the repo root: Debug, `-O0
   -ffunction-sections -fdata-sections`, linked with
   `-Wl,--gc-sections`. At -O0 nothing is inlined away, so a function
   the binary calls keeps its own symbol, and the linker drops every
   section that nothing reaches.
2. Collect the strong text symbols (`nm -C --defined-only`, type `T`)
   in the `latol` namespace from every object under the build's src/:
   the members of the src/ static libraries, plus the objects of the
   `latol` target itself. Reading the archives, which CMake recreates
   on every link, keeps an object left behind by a deleted source file
   from counting.
3. Remove the symbols that the linked `latol` still defines. What is
   left was compiled but never reached.
4. Fail on any unreachable symbol whose name has no row in the
   allowlist, and on any allowlist row whose name no longer matches an
   unreachable symbol (it became reachable, or its code is gone), so
   the list can only shrink.

The gate sees out-of-line functions only: `constexpr`, inline and
template code emits no strong text symbol in the object that defines
it, so an unused helper of that kind passes unnoticed.

Allowlist format (scripts/reachable_allowlist.txt): one
`name<TAB>reason` row per line; `#` starts a comment. `name` is the
qualified function name without the leading `latol::` and without the
parameter list (`qn::solve_ctmc`), so one row covers every overload.

Standard library plus cmake, a C++ toolchain and binutils `nm`. Exits
0 when clean, 1 with a list of problems otherwise.
"""

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BUILD_DIR = REPO / "build-reachable"
ALLOWLIST = REPO / "scripts" / "reachable_allowlist.txt"
PREFIX = "latol::"
CXX_FLAGS = "-O0 -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"


def run(cmd):
    """Run `cmd`, echoing it; exit with its status on failure."""
    print("+ " + " ".join(cmd), flush=True)
    result = subprocess.run(cmd)
    if result.returncode != 0:
        sys.exit(result.returncode)


def build():
    """Step 1: configure and build `latol` with dead-section collection."""
    cmd = ["cmake", "-S", str(REPO), "-B", str(BUILD_DIR),
           "-DCMAKE_BUILD_TYPE=Debug",
           "-DCMAKE_CXX_FLAGS=" + CXX_FLAGS,
           "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS]
    if shutil.which("ninja") and not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    run(cmd)
    run(["cmake", "--build", str(BUILD_DIR), "--target", "latol",
         "--parallel"])


def nm_symbols(path, types):
    """Demangled names of the symbols in `path` whose nm type is in `types`."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in types:
            names.add(parts[2])
    return names


def function_name(symbol):
    """`latol::qn::f(int) const` -> `qn::f`: drop the namespace prefix, the
    parameter list, trailing qualifiers and ABI tags."""
    end = len(symbol)
    while end > 0 and symbol[end - 1] != ")":
        end -= 1
    if end == 0:
        return symbol[len(PREFIX):]
    depth = 0
    start = end - 1
    while start >= 0:
        if symbol[start] == ")":
            depth += 1
        elif symbol[start] == "(":
            depth -= 1
            if depth == 0:
                break
        start -= 1
    name = symbol[:start].replace("[abi:cxx11]", "")
    return name[len(PREFIX):] if name.startswith(PREFIX) else name


def read_allowlist(path):
    """Map of allowlisted name -> reason; rows without a reason are errors."""
    rows, problems = {}, []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, _, reason = line.partition("\t")
        if not reason.strip():
            problems.append(f"{path.name}:{lineno}: row `{name}` has no "
                            "<TAB>reason")
        rows[name.strip()] = reason.strip()
    return rows, problems


def main():
    if len(sys.argv) > 1:
        sys.exit(__doc__.split("\n\n")[1])
    build()
    binary = BUILD_DIR / "src" / "cli" / "latol"
    src = BUILD_DIR / "src"
    objects = sorted(src.rglob("*.a")) + sorted(
        (src / "cli" / "CMakeFiles" / "latol.dir").rglob("*.o"))
    if not binary.exists() or not objects:
        sys.exit(f"error: no latol binary or objects under {BUILD_DIR}")

    compiled = set()
    for obj in objects:
        compiled |= {s for s in nm_symbols(obj, {"T"}) if s.startswith(PREFIX)}
    linked = nm_symbols(binary, {"T", "t", "W", "w"})
    unreachable = {}
    for symbol in sorted(compiled - linked):
        unreachable.setdefault(function_name(symbol), []).append(symbol)

    allowed, problems = read_allowlist(ALLOWLIST)
    for name, symbols in sorted(unreachable.items()):
        if name not in allowed:
            problems.append(f"unreachable from latol and not allowlisted: "
                            f"{name}  [{symbols[0]}]")
    for name in sorted(allowed):
        if name not in unreachable:
            problems.append(f"stale allowlist row (now reachable or gone): "
                            f"{name}")

    print(f"{len(compiled)} latol:: functions compiled from src/, "
          f"{sum(map(len, unreachable.values()))} unreachable "
          f"({len(unreachable)} names), {len(allowed)} allowlisted")
    for problem in problems:
        print(problem)
    if problems:
        sys.exit(1)
    print("ok")


if __name__ == "__main__":
    main()
