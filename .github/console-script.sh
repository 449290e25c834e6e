#!/usr/bin/env bash
# Checks of the installed `polyvem` console script, run from outside the
# checkout in the directory given as $1.  Every other CI step imports the
# checkout through PYTHONPATH=src and calls cli.main; this one runs the
# [project.scripts] entry point.  solve and eig reach scipy through the
# imports on first use.
#
#   bash .github/console-script.sh "$RUNNER_TEMP"
set -eu
cd "$1"

# exit code of a command that must fail, its stderr in the file $1
fails() {
    local err=$1 code=0
    shift
    "$@" > /dev/null 2> "$err" || code=$?
    echo "$code"
}

polyvem mesh --family th3 --N 8 --out m
test -s m/th3_N8.json
polyvem solve --family th2 --case test1 --N 8 --format csv --out s
test -s s/solution_th2_N8_errors.csv
polyvem eig --family th2 --case eigen_square --N 8 --format csv --out e
test -s e/eig_th2_N8.csv
# the reentrant T domain, where the field-of-values guard decides the request
polyvem eig --family th7 --case eigen_T --N 16 --eig-count 6 --format csv --out t
test -s t/eig_th7_N16.csv
# n = 9, too small for ARPACK's request: the dense shift-invert branch
polyvem eig --family th2 --case eigen_square --N 2 --eig-count 2 --format csv --out d
test -s d/eig_th2_N2.csv
# with --quiet, eig prints only its one `wrote` line
polyvem eig --family th2 --case eigen_square --N 8 --quiet --format csv --out q > q.log
test "$(wc -l < q.log)" -eq 1
# k = 226 above the pencil's n = 225: exit 1 before anything is factored
test "$(fails k.err polyvem eig --family th2 --case eigen_square --N 8 --eig-count 226 --format csv --out k)" -eq 1
grep -q "exceeds" k.err
# eig writes only a CSV: --format vtk is a usage error, before any mesh is built
test "$(fails v.err polyvem eig --family th2 --case eigen_square --N 8 --format vtk --out v)" -eq 2
grep -q "use --format csv or both" v.err
# eig runs only eigen problems: a load config is a usage error
echo '{"problem": "load", "mesh_family": "th2", "N_list": [8], "coefficients": "test1"}' > load.json
test "$(fails c.err polyvem eig --config load.json --out c)" -eq 2
grep -q "runs only eigen problems" c.err
# a config fixes every study input: a study flag next to it is a usage error
test "$(fails f.err polyvem solve --config load.json --family th2 --out f)" -eq 2
grep -q -- "remove --family" f.err
# solve and eig run the finest --N; there is no --N-single
test "$(fails n.err polyvem solve --family th2 --case test1 --N 4 --N-single 8 --out n)" -eq 2
grep -q -- "--N-single" n.err
python -c "import polyvem"
