#!/usr/bin/env bash
# Turns the shim's sample file into shares of samples.
#
#   symbolise.sh BINARY SAMPLES [TOP]          four tables, TOP rows each (default 25)
#   symbolise.sh BINARY SAMPLES --lines PATH   samples per source line of files matching PATH
#
# `addr2line -i` expands a sampled address into its chain of inlined
# frames, innermost first; the last one is the function that was actually
# called. Tables: source files (a sample counts once for every file in its
# chain), innermost function, outermost function, and functions inclusive
# (once for every function in the chain). A sample outside the binary
# (libc's memcpy, malloc, the kernel's vdso) reads `??`.
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,5p' "$0" >&2; exit 64; }
binary=$1 samples=$2 top=${3:-25} path=
if [ "$top" = --lines ]; then
    path=${4:?--lines needs a path fragment} top=100000
fi
addr2line -a -f -i -C -e "$binary" <"$samples" | awk -v top="$top" -v path="$path" '
function flush(   i, seen_fn, seen_file) {
    if (!depth) return
    total++
    inner[fn[1]]++; outer[fn[depth]]++
    for (i = 1; i <= depth; i++) {
        if (!(fn[i] in seen_fn)) { seen_fn[fn[i]]; incl[fn[i]]++ }
        if (!(file[i] in seen_file)) { seen_file[file[i]]; files[file[i]]++ }
        if (path != "" && index(file[i], path)) lines[file[i] ":" line[i] "  " fn[i]]++
    }
    depth = 0
}
function table(title, counts,   k, cmd) {
    printf "\n== %s (%d samples) ==\n", title, total
    cmd = "sort -k1,1nr | head -n " top
    for (k in counts) printf "%6d %5.1f%%  %s\n", counts[k], 100 * counts[k] / total, k | cmd
    close(cmd)
}
/^0x/ { flush(); want_fn = 1; next }
want_fn { fn[++depth] = $0; want_fn = 0; next }
{
    loc = $1; sub(/ \(discriminator.*/, "", loc)
    n = split(loc, part, ":"); line[depth] = part[n]
    sub(/:[^:]*$/, "", loc); sub(/^.*\/crates\//, "crates/", loc); file[depth] = loc
    want_fn = 1
}
END {
    flush()
    if (path != "") { table("lines of " path, lines); exit }
    table("source files, inclusive", files)
    table("innermost function", inner)
    table("outermost function", outer)
    table("functions, inclusive", incl)
}'
