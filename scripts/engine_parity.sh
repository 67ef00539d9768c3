#!/usr/bin/env bash
# Backend parity at the CLI: every query below runs through `xrquy run`
# (the compiled plans) and `xrquy run --interpret` (the reference
# interpreter). The two runs must print the same stdout, the same
# `xrquy:` lines on stderr and exit with the same code, and that code
# must be the one listed beside the query (0 ok, 1 dynamic error,
# 2 static error) — so a fault both backends share, such as an internal
# error (4) on both, fails too.
#
# Usage: scripts/engine_parity.sh [path/to/xrquy.exe]
# (default: _build/default/bin/xrquy.exe, i.e. run after `dune build`)

set -uo pipefail

X=${1:-_build/default/bin/xrquy.exe}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo '<a><b k="1"/><c>t</c></a>' > "$WORK/t.xml"
echo '<r><q v="y"/><q v="1"/><q v="z"/><q v="1"/></r>' > "$WORK/u.xml"

# <expected exit code> TAB <query>
QUERIES=$(cat <<'EOF'
1	for $x in (1,2) return (($x, 3) eq 1)
1	(1,2) + 1
1	string((1,2))
1	(10,20,30)[(1,2)]
1	doc("t.xml")/a/b/@k/string()
2	9223372036854775807
2	4611686018427387904
1	4611686018427387903 + 1
1	sum((4611686018427387903, 1))
0	sum((4611686018427387903, 1, -1))
1	abs(-4611686018427387903 - 1)
1	(-4611686018427387903 - 1) idiv -1
1	-(-4611686018427387903 - 1)
0	4611686018427387902 + 1
1	(1)|(2)
1	(3,1) intersect (1)
1	(3,1) except (1)
0	doc("t.xml")/a/(b|c)
1	element {()} {()}
1	attribute {()} {"x"}
1	let $e := () return element {$e} {()}
0	doc(())
0	count(doc("t.xml")//b[@k = doc("u.xml")//q/@v])
0	let $e := <e a="1"/> return count(doc("t.xml")//@k[. = $e/@a])
0	for $b in doc("t.xml")//b, $q in doc("u.xml")//q where $b/@k = $q/@v return concat($b/@k, $q/@v)
1	1e300 idiv 1
1	-1e300 idiv 1
1	(1 div 0e0) idiv 1
1	(0e0 div 0e0) idiv 1
1	1e300 cast as xs:integer
1	round(1e300) cast as xs:integer
1	4.611686018427387904e18 cast as xs:integer
0	4.6116860184273874e18 cast as xs:integer
1	"0x10" cast as xs:integer
1	"1_000" cast as xs:integer
1	"0b11" cast as xs:integer
1	"0x1p3" cast as xs:double
1	"inf" cast as xs:double
1	"infinity" cast as xs:double
1	"nan" cast as xs:double
0	number("0x10")
1	<a v="0x10"/>/@v = 16
0	" 12 " cast as xs:integer
0	"+5" cast as xs:integer
0	"1." cast as xs:double
0	".5" cast as xs:double
0	"1E3" cast as xs:double
0	"-INF" cast as xs:double
1	1 to 3.0
0	1 to <a>3</a>
0	<r>{1, doc("t.xml")//c/text(), "s", 2, doc("t.xml")//c/text()}</r>
1	<r>{doc("t.xml")//c, doc("t.xml")//@k}</r>
0	<r>{doc("t.xml")//@k, doc("t.xml")//c}</r>
0	<r>{doc("t.xml")}</r>
0	<r>{text {""}}</r>
0	count(<r>{text {""}, text {""}}</r>/node())
0	element {concat("a", "b")} {attribute {"k"} {1}, comment {"c"}}
0	for $n in ("x", "y") return element {$n} {attribute {$n} {$n}, $n}
0	for $i in (3, 1, 2) return <r a="{$i}">{$i}</r>
0	for $v in doc("t.xml")/a/* return <r>{$v/node(), "s"}<s>{$v/@k}</s></r>
0	for $x in (9007199254740993, 1) for $y in (9007199254740992, 0) where $x > $y return ($x, $y)
0	for $x in (9007199254740992, 1) for $y in (9007199254740993, 0) where $x >= $y return ($x, $y)
0	for $x in (9007199254740992, 1) for $y in (9007199254740993, 0) where $x < $y return ($x, $y)
0	for $x in (9007199254740993, 1) for $y in (9007199254740992, 0) where $x <= $y return ($x, $y)
1	insert-before((1,2,3), 2.5, 9)
1	remove((1,2,3), 2.0)
1	remove((1,2,3), true())
0	remove((1,2,3), <a>2</a>)
1	element {1} {()}
1	attribute {1.5} {"x"}
EOF
)

run() {
  # run <name> [flag]: one backend's stdout, xrquy: lines and exit code
  local name=$1
  shift
  "$X" run "$@" -d "t.xml=$WORK/t.xml" -d "u.xml=$WORK/u.xml" -- "$q" \
    > "$WORK/$name.out" 2> "$WORK/$name.err"
  echo $? > "$WORK/$name.rc"
  grep '^xrquy:' "$WORK/$name.err" > "$WORK/$name.msg"
}

n=0
failed=0
while IFS=$'\t' read -r want q; do
  n=$((n + 1))
  run compiled
  run interpreted --interpret
  for part in out msg rc; do
    if ! cmp -s "$WORK/compiled.$part" "$WORK/interpreted.$part"; then
      echo "differs ($part): $q"
      diff "$WORK/compiled.$part" "$WORK/interpreted.$part" | sed 's/^/  /'
      failed=$((failed + 1))
    fi
  done
  got=$(cat "$WORK/compiled.rc")
  if [ "$got" != "$want" ]; then
    echo "exit code $got, expected $want: $q"
    sed 's/^/  /' "$WORK/compiled.msg"
    failed=$((failed + 1))
  fi
done <<< "$QUERIES"

if [ "$failed" -gt 0 ]; then
  echo "engine parity: $failed failures over $n queries"
  exit 1
fi
echo "engine parity: $n queries, both backends agree"
