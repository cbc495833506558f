#!/usr/bin/env bash
# Turns the shim's sample file into shares of samples.
#
#   symbolise.sh BINARY SAMPLES [TOP]          four tables (five with SAMPLES.maps), TOP rows each (default 25)
#   symbolise.sh BINARY SAMPLES --lines PATH   samples per source line of files matching PATH
#
# `addr2line -i` expands a sampled address into its chain of inlined
# frames, innermost first; the last one is the function that was actually
# called. Tables: source files (a sample counts once for every file in its
# chain), innermost function, outermost function, and functions inclusive
# (once for every function in the chain). A sample outside the binary
# (libc's memcpy, malloc, the kernel's vdso) is named by the shared object
# it fell in — `[libc.so.6]`, `[libm.so.6]`, `[vdso]`, or `[none]` outside
# every executable mapping — read from SAMPLES.maps, which the shim writes
# next to the samples; a fifth table counts samples per object. Without
# that file such a sample reads `??`.
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,5p' "$0" >&2; exit 64; }
binary=$1 samples=$2 top=${3:-25} path=
if [ "$top" = --lines ]; then
    path=${4:?--lines needs a path fragment} top=100000
fi
maps=$samples.maps
[ -f "$maps" ] || maps=
addr2line -a -f -i -C -e "$binary" <"$samples" | awk -v top="$top" -v path="$path" \
    -v maps="$maps" -v binary="${binary##*/}" '
function hex(s,   n, i) {
    n = 0; s = tolower(s); sub(/^0x/, "", s)
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}
# The object the sample at offset `a` fell in: the basename of its mapping.
function object(a,   k) {
    for (k = 0; k < nmaps; k++) if (a >= lo[k] && a < hi[k]) return obj[k]
    return "none"
}
function flush(   i, seen_fn, seen_file, o) {
    if (!depth) return
    total++
    o = binary
    if (nmaps && fn[1] == "??") o = object(addr)
    objects[o]++
    if (o != binary) { depth = 1; fn[1] = file[1] = "[" o "]"; line[1] = 0 }
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
BEGIN {
    while (maps != "" && (getline entry < maps) > 0) {
        split(entry, f, " "); sub(/.*\//, "", f[3]); gsub(/[][]/, "", f[3])
        lo[nmaps] = hex(f[1]); hi[nmaps] = hex(f[2]); obj[nmaps++] = f[3]
    }
}
/^0x/ { flush(); addr = hex($0); want_fn = 1; next }
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
    if (nmaps) table("objects", objects)
}'
