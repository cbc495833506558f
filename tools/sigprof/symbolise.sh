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
# next to the samples; a fifth table counts samples per object. Within an
# object file the sample is also named by the nearest dynamic symbol at or
# below it: SAMPLES.maps gives the sample's offset into the file,
# `readelf -lW` the segment that maps that offset to an address, and
# `nm -D --defined-only` the symbols and their sizes. Inside the symbol
# the name is `[libc.so.6] malloc`; past its end, in code no dynamic
# symbol names (a stripped object's local functions), `[libc.so.6] past
# malloc`. Without SAMPLES.maps such a sample reads `??`.
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
# The mapping the sample at offset `a` fell in, or -1.
function mapping(a,   k) {
    for (k = 0; k < nmaps; k++) if (a >= lo[k] && a < hi[k]) return k
    return -1
}
# The LOAD segments and the sorted text symbols of the object file `p`.
function load(p,   cmd, f, n) {
    loaded[p]
    cmd = "readelf -lW \"" p "\" 2>/dev/null"
    while ((cmd | getline entry) > 0) {
        if (split(entry, f, " ") < 5 || f[1] != "LOAD") continue
        n = nseg[p]++; seg_off[p, n] = hex(f[2]); seg_va[p, n] = hex(f[3]); seg_len[p, n] = hex(f[5])
    }
    close(cmd)
    cmd = "nm -D -S --defined-only -n \"" p "\" 2>/dev/null"
    while ((cmd | getline entry) > 0) {
        # nm leaves out the size of a symbol that has none.
        if (split(entry, f, " ") == 3) { f[4] = f[3]; f[3] = f[2]; f[2] = "0" }
        if (f[3] !~ /^[TtWwi]$/) continue
        sub(/@.*/, "", f[4]); n = nsym[p]++
        sym_va[p, n] = hex(f[1]); sym_end[p, n] = sym_va[p, n] + hex(f[2]); sym[p, n] = f[4]
    }
    close(cmd)
}
# The name of the sample at offset `a` in mapping `k` by the nearest
# dynamic symbol at or below it, or "" when its object is no readable file
# or has none there.
function symbol(k, a,   p, o, va, i, l, h, m) {
    p = objpath[k]
    if (p !~ /^\//) return ""
    if (!(p in loaded)) load(p)
    o = a - lo[k] + off[k]; va = -1
    for (i = 0; i < nseg[p]; i++)
        if (o >= seg_off[p, i] && o < seg_off[p, i] + seg_len[p, i]) va = o - seg_off[p, i] + seg_va[p, i]
    if (va < 0 || !nsym[p] || va < sym_va[p, 0]) return ""
    l = 0; h = nsym[p] - 1
    while (l < h) { m = int((l + h + 1) / 2); if (sym_va[p, m] <= va) l = m; else h = m - 1 }
    return (va < sym_end[p, l] ? "" : "past ") sym[p, l]
}
function flush(   i, seen_fn, seen_file, o, k, s) {
    if (!depth) return
    total++
    o = binary
    if (nmaps && fn[1] == "??") { k = mapping(addr); o = k < 0 ? "none" : obj[k] }
    objects[o]++
    if (o != binary) {
        depth = 1; fn[1] = file[1] = "[" o "]"; line[1] = 0
        if (k >= 0 && (s = symbol(k, addr)) != "") fn[1] = fn[1] " " s
    }
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
        split(entry, f, " "); p = entry; sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", p)
        o = p; sub(/.*\//, "", o); gsub(/[][]/, "", o)
        lo[nmaps] = hex(f[1]); hi[nmaps] = hex(f[2]); off[nmaps] = hex(f[3])
        objpath[nmaps] = p; obj[nmaps++] = o
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
