#!/usr/bin/env bash
# Docs-freshness check (run by CI).
#
# 1. The preset table in src/chameleon/README.md must list exactly the
#    systems `chameleon_sim --list-systems` reports — a preset added or
#    renamed without a docs update fails the build.
# 2. The spec-keys schema table in src/chameleon/README.md must list
#    exactly the keys `chameleon_sim --dump-config` emits (plus rows
#    marked parse-only) — a spec knob added without a docs update
#    fails the build.
# 3. The annotated jsonc config in src/chameleon/README.md (its first
#    jsonc block) must parse: `chameleon_sim --config - --dump-config`
#    — a key deleted from the schema but left in the example fails.
# 4. docs/ARCHITECTURE.md and bench/README.md must exist and be linked
#    from the root README.
# 5. With a chameleon_sweep binary given, the shipped example sweeps
#    must still expand (`--dry-run` smoke, hetero fleet included).
# 6. Every *.md path named in a comment under src/, tools/ or bench/
#    must resolve to a file, from the repository root or from the
#    commenting file's directory — a doc renamed or never written
#    fails the build.
# 7. Each enum row of the spec-keys table (its type column opens with
#    a backticked `a \| b` list) must list exactly the names the parser
#    knows: the "known:" list `chameleon_sim --set <key>=<bogus>`
#    prints — a value added, renamed or dropped without a docs update
#    fails the build.
# 8. Every backticked `Type::member` in README.md, docs/*.md,
#    src/*/README.md and bench/README.md names a member that appears in
#    the src/ header declaring Type; a namespace-qualified name
#    (`sim::sortDoubles`) resolves anywhere under src/. A trailing `*`
#    (a prefix) or `()` is ignored, and `std::` names are skipped — a
#    member deleted or renamed without a docs update fails the build.
# 9. With a chameleon_sweep binary given, the annotated sweep in
#    src/sweep/README.md (its first jsonc block) must expand:
#    `chameleon_sweep --config - --dry-run` — a key deleted from the
#    sweep grammar but left in the example fails.
# 10. Every bench target the docs name must still exist as
#    bench/<name>.cc: the `target` column of bench/README.md's table,
#    and bench/<name> in README.md, docs/*.md, src/*/README.md,
#    bench/README.md or a comment under src/, tools/, bench/, tests/
#    or examples/. A `./build/<name>` there must name a target too: a
#    bench, a tool, a test or an example (example_<name>) — a bench
#    deleted or renamed without a docs update fails the build.
# 11. Every backticked dotted spec path in README.md, docs/*.md,
#    src/*/README.md and bench/README.md (first segment engine,
#    scheduler, adapters, predictor, cluster, tenancy or fabric) must
#    resolve to a key `--dump-config` prints, a parse-only row of the
#    spec-keys table, or a metric a small fabric run exports
#    (`fabric.migrations`). `[i]` indices are stripped,
#    `cluster.replicas[i].k` resolves as `engine.k`, a `{a,b}` group
#    expands and a trailing `*` is a prefix — a key deleted from the
#    schema but left in prose fails the build.
# 12. Every `--system NAME` in README.md, docs/*.md, src/*/README.md,
#    bench/README.md and .github/workflows/ci.yml, and every entry of
#    an example sweep's "systems" list, must resolve:
#    `chameleon_sim --system NAME --dump-config` exits 0 — a preset
#    deleted or renamed but left in a command line fails the build.
#    (The fidelity table's row labels are not system names.)
#
# Usage: tools/check_docs.sh <chameleon_sim-binary> <repo-root> \
#            [chameleon_sweep-binary]
set -euo pipefail

bin="${1:?usage: check_docs.sh <chameleon_sim-binary> <repo-root>}"
root="${2:?usage: check_docs.sh <chameleon_sim-binary> <repo-root>}"
sweep_bin="${3:-}"

fail=0

registry_names=$("$bin" --list-systems |
    awk '/^registered systems:/{f=1; next} /^$/{f=0} f{print $1}' |
    sort)

doc_names=$(awk '/<!-- preset-table:begin -->/{f=1; next}
                 /<!-- preset-table:end -->/{f=0}
                 f && /^\| `/ {gsub(/[|` ]/, "", $2); print $2}' \
        "$root/src/chameleon/README.md" | sort)

if [ "$registry_names" != "$doc_names" ]; then
    echo "FAIL: src/chameleon/README.md preset table is out of sync" \
         "with --list-systems:"
    diff <(echo "$registry_names") <(echo "$doc_names") |
        sed 's/^</  only in registry: /; s/^>/  only in README:   /' |
        grep -v '^---' || true
    fail=1
fi

# --- spec-keys table vs the keys --dump-config actually emits -------
# The dump is pretty-printed one key per line at 2-space indentation,
# so an indent-depth stack flattens it to dotted paths portably; the
# metrics snapshot (check 11) is printed the same way.
flatten_keys() {
    awk '
    /^[[:space:]]*"[^"]+":/ {
        line = $0
        n = 0
        while (substr(line, n + 1, 1) == " ") n++
        depth = n / 2
        key = line
        sub(/^[[:space:]]*"/, "", key)
        sub(/".*$/, "", key)
        stack[depth] = key
        path = stack[1]
        for (i = 2; i <= depth; i++) path = path "." stack[i]
        print path
    }'
}
dump_keys=$("$bin" --dump-config | flatten_keys | sort)

table_keys=$(awk '/<!-- spec-keys:begin -->/{f=1; next}
                  /<!-- spec-keys:end -->/{f=0}
                  f && /^\| `/ && !/parse-only/ \
                      {gsub(/[|` ]/, "", $2); print $2}' \
        "$root/src/chameleon/README.md" | sort)

if [ "$dump_keys" != "$table_keys" ]; then
    echo "FAIL: src/chameleon/README.md spec-keys table is out of sync" \
         "with --dump-config:"
    diff <(echo "$dump_keys") <(echo "$table_keys") |
        sed 's/^</  only in --dump-config: /; s/^>/  only in README:      /' |
        grep -v '^---' || true
    fail=1
fi

# --- the README's annotated config still parses ---------------------
annotated=$(awk '/^```jsonc$/{f=1; next} f && /^```$/{exit} f' \
        "$root/src/chameleon/README.md")
if [ -z "$annotated" ]; then
    echo "FAIL: src/chameleon/README.md has no annotated jsonc config"
    fail=1
elif ! config_error=$("$bin" --config - --dump-config \
        <<< "$annotated" 2>&1 > /dev/null); then
    echo "FAIL: src/chameleon/README.md annotated config does not parse:"
    echo "  $config_error"
    fail=1
fi

for doc in docs/ARCHITECTURE.md bench/README.md; do
    if [ ! -f "$root/$doc" ]; then
        echo "FAIL: $doc is missing"
        fail=1
    elif ! grep -q "$doc" "$root/README.md"; then
        echo "FAIL: $doc is not linked from the root README"
        fail=1
    fi
done

# --- shipped sweep examples still expand (dry-run smoke) ------------
if [ -n "$sweep_bin" ]; then
    for sweep_json in "$root"/examples/sweeps/*.json; do
        if ! "$sweep_bin" --dry-run --config "$sweep_json" > /dev/null
        then
            echo "FAIL: $sweep_json does not expand" \
                 "(chameleon_sweep --dry-run)"
            fail=1
        fi
    done
fi

# --- 9. The sweep README's annotated sweep still expands -------------
if [ -n "$sweep_bin" ]; then
    annotated_sweep=$(awk '/^```jsonc$/{f=1; next} f && /^```$/{exit} f' \
            "$root/src/sweep/README.md")
    if [ -z "$annotated_sweep" ]; then
        echo "FAIL: src/sweep/README.md has no annotated jsonc sweep"
        fail=1
    elif ! sweep_error=$("$sweep_bin" --config - --dry-run \
            <<< "$annotated_sweep" 2>&1 > /dev/null); then
        echo "FAIL: src/sweep/README.md annotated sweep does not expand:"
        echo "  $sweep_error"
        fail=1
    fi
fi

# --- 6. Markdown paths named in source comments resolve --------------
# A comment line starts with //, /*, * or #, or carries a trailing //.
# URLs are dropped before paths are picked out.
md_refs=0
while IFS=: read -r file line text; do
    refs=$(sed -E 's#[a-z]+://[^[:space:]]*##g' <<< "$text" |
        grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' || true)
    for ref in $refs; do
        md_refs=$((md_refs + 1))
        if [ ! -f "$root/$ref" ] && [ ! -f "$root/$(dirname "$file")/$ref" ]
        then
            echo "FAIL: $file:$line names $ref, which does not exist"
            fail=1
        fi
    done
done < <(cd "$root" && grep -rnE \
    --include='*.h' --include='*.cc' --include='*.cpp' \
    --include='*.sh' --include='*.py' \
    '^[[:space:]]*(//|/\*|\*|#)|[[:space:]]//' src tools bench |
    grep -E '\.md\b' || true)

# --- 7. Enum rows list the names the parser knows ------------------
enum_rows=0
while IFS=$'\t' read -r key values; do
    enum_rows=$((enum_rows + 1))
    documented=$(sed 's/ \\| /, /g' <<< "$values")
    known=$("$bin" --set "$key=not-a-value" --dump-config 2>&1 > /dev/null |
        sed -n 's/.*; known: //p' | head -n 1 || true)
    if [ "$known" != "$documented" ]; then
        echo "FAIL: src/chameleon/README.md lists $key as" \
             "\"$documented\"; the parser knows \"$known\""
        fail=1
    fi
done < <(awk '/<!-- spec-keys:begin -->/{f=1; next}
              /<!-- spec-keys:end -->/{f=0} f' \
        "$root/src/chameleon/README.md" |
    sed -nE 's/^\| `([^`]+)` \| `([^`]*\\\|[^`]*)`.*/\1\t\2/p')
if [ "$enum_rows" -eq 0 ]; then
    echo "FAIL: src/chameleon/README.md spec-keys table has no enum rows"
    fail=1
fi

# --- 8. Backticked Type::member names resolve in src/ ---------------
namespaces=$(cd "$root" && grep -rhoE '^[[:space:]]*namespace [A-Za-z_:]+' \
        --include='*.h' --include='*.cc' src |
    awk '{print $2}' | tr ':' '\n' | sed '/^$/d' | sort -u)
sym_refs=0
while IFS=: read -r doc ref; do
    sym=${ref//\`/}
    sym=${sym%()}
    word=-w
    if [ "${sym%\*}" != "$sym" ]; then
        sym=${sym%\*}
        word=
    fi
    qualifier=${sym%%::*}
    member=${sym##*::}
    [ "$qualifier" = std ] && continue
    sym_refs=$((sym_refs + 1))
    if grep -qx "$qualifier" <<< "$namespaces"; then
        where="src/"
        files=$(cd "$root" && grep -rl $word -- "$member" src || true)
    else
        where="the header declaring $qualifier"
        files=$(cd "$root" && grep -rlE --include='*.h' \
            "^[[:space:]]*(class|struct|enum class|enum|union)[[:space:]]+$qualifier([[:space:]]*([:{]|final)|[[:space:]]*\$)" \
            src | xargs -r grep -l $word -- "$member" || true)
    fi
    if [ -z "$files" ]; then
        echo "FAIL: $doc names \`$sym\`, but $member is not in $where"
        fail=1
    fi
done < <(cd "$root" && grep -oE \
    '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+(\(\)|\*)?`' \
    README.md docs/*.md src/*/README.md bench/README.md)

# --- 10. Bench and build targets named in the docs exist -------------
target_refs=0
check_target() { # <where> <name> <bench|any>
    target_refs=$((target_refs + 1))
    [ -f "$root/bench/$2.cc" ] && return
    if [ "$3" = any ] && { [ -f "$root/tools/$2.cc" ] ||
            [ -f "$root/tests/$2.cc" ] ||
            { [ "${2#example_}" != "$2" ] &&
              [ -f "$root/examples/${2#example_}.cpp" ]; }; }; then
        return
    fi
    local nor=""
    [ "$3" = any ] && nor=", nor a tool, test or example target"
    echo "FAIL: $1 names $2, but bench/$2.cc does not exist$nor"
    fail=1
}
while read -r name; do
    check_target "the bench/README.md table" "$name" bench
done < <(awk '/^\| target \|/{f=1; next} f && !/^\|/{f=0}
              f && /^\| `/ {gsub(/[` ]/, "", $2); print $2}' \
        "$root/bench/README.md")
while IFS=: read -r file line text; do
    for name in $(grep -oE \
            '(^|[^A-Za-z0-9_./-])bench/[A-Za-z0-9_]+(\.[a-z]+|[*/])?' \
            <<< "$text" | sed -E 's#^[^b]*bench/##' |
            grep -E '^[A-Za-z0-9_]+(\.cc)?$' | sed 's/\.cc$//' || true); do
        check_target "$file:$line" "$name" bench
    done
    for name in $(grep -oE '\./build/[A-Za-z0-9_]+' <<< "$text" |
            sed 's#^\./build/##' || true); do
        check_target "$file:$line" "$name" any
    done
done < <(cd "$root" && {
    grep -nE 'bench/|\./build/' README.md docs/*.md src/*/README.md \
        bench/README.md || true
    grep -rnE --include='*.h' --include='*.cc' --include='*.cpp' \
        --include='*.sh' --include='*.py' \
        '(^[[:space:]]*(//|/\*|\*|#)|[[:space:]]//).*(bench/|\./build/)' \
        src tools bench tests examples || true
})

# --- 11. Backticked spec paths in the docs resolve -------------------
# Each inline code span as file:line:text, where line is the span's
# first; a span may wrap onto the next lines of its paragraph, and
# fenced blocks are skipped.
inline_code_spans() {
    awk '
    FNR == 1 { open = 0; fence = 0 }
    /^[[:space:]]*```/ { fence = !fence; open = 0; next }
    fence { next }
    /^[[:space:]]*$/ { open = 0; next }
    {
        rest = $0
        if (open) text = text " "
        while ((i = index(rest, "`")) > 0) {
            if (open) {
                print FILENAME ":" start ":" text substr(rest, 1, i - 1)
            } else {
                start = FNR
                text = ""
            }
            open = !open
            rest = substr(rest, i + 1)
        }
        if (open) text = text rest
    }' "$@"
}
metrics_json=$(mktemp)
trap 'rm -f "$metrics_json"' EXIT
"$bin" --replicas 2 --set cluster.router=affinity-dir \
    --set fabric.migration=all --rps 1 --duration 2 \
    --metrics-out "$metrics_json" > /dev/null
parse_only_keys=$(awk '/<!-- spec-keys:begin -->/{f=1; next}
                       /<!-- spec-keys:end -->/{f=0}
                       f && /^\| `/ && /parse-only/ \
                           {gsub(/[|` ]/, "", $2); print $2}' \
        "$root/src/chameleon/README.md")
known_paths=$(printf '%s\n%s\n%s\n' "$dump_keys" "$parse_only_keys" \
    "$(flatten_keys < "$metrics_json")" | sort -u)
path_refs=0
segment='([A-Za-z0-9_*]+|\{[A-Za-z0-9_,]+\})'
while IFS=: read -r doc line span; do
    for ref in $(grep -oE "(^|[^A-Za-z0-9_./-])(engine|scheduler|adapters|predictor|cluster|tenancy|fabric)(\[[^]]*\])?(\.$segment(\[[^]]*\])?)+" \
            <<< "$span" | sed -E 's/^[^a-z]//'); do
        # C++ member paths (camelCase) and file names are not spec keys.
        grep -qE '[A-Z]|\.(h|cc|cpp|md|json|py|sh|csv|txt)$' <<< "$ref" &&
            continue
        for path in $(eval "echo ${ref//\*/\\*}"); do
            path=$(sed -E 's/\[[^]]*\]//g; s/^cluster\.replicas\./engine./' \
                <<< "$path")
            path_refs=$((path_refs + 1))
            if [ "${path%\*}" != "$path" ]; then
                grep -qF -- "${path%\*}" <<< "$known_paths" && continue
            elif grep -qxF -- "$path" <<< "$known_paths"; then
                continue
            fi
            echo "FAIL: $doc:$line names \`$ref\`, but $path is neither" \
                 "a --dump-config key, a parse-only row nor a metric"
            fail=1
        done
    done
done < <(cd "$root" && inline_code_spans README.md docs/*.md \
    src/*/README.md bench/README.md)

# --- 12. System names in command lines and sweeps resolve ------------
system_refs=0
check_system() { # <where> <name>
    system_refs=$((system_refs + 1))
    "$bin" --system "$2" --dump-config > /dev/null 2>&1 && return
    echo "FAIL: $1 names system $2, which chameleon_sim --system" \
         "does not resolve"
    fail=1
}
while IFS=: read -r file line text; do
    for name in $(grep -oE -- '--system[ =][A-Za-z0-9_+.-]+' <<< "$text" |
            sed -E 's/^--system[ =]//'); do
        check_system "$file:$line" "$name"
    done
done < <(cd "$root" && grep -nE -- '--system[ =]' README.md docs/*.md \
    src/*/README.md bench/README.md .github/workflows/ci.yml || true)
for sweep_json in "$root"/examples/sweeps/*.json; do
    for name in $(awk '/"systems"[[:space:]]*:/{f=1} f{print} f && /]/{exit}' \
            "$sweep_json" | sed 's/"systems"//' | grep -oE '"[^"]+"' |
            tr -d '"'); do
        check_system "${sweep_json#"$root"/}" "$name"
    done
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docs freshness OK ($(echo "$registry_names" | wc -l) presets," \
     "$(echo "$dump_keys" | wc -l) spec keys documented," \
     "$enum_rows enum value lists match the parser," \
     "$md_refs doc paths in comments resolve," \
     "$sym_refs Type::member names in docs resolve," \
     "$target_refs bench and build targets named in docs exist," \
     "$path_refs spec paths in docs resolve," \
     "$system_refs system names in docs, CI and sweeps resolve)"
