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
# the JSON that `polyvem mesh` writes, read back and written again, is the same file
python -c "from polyvem.mesh import io_read, io_write; io_write('again.json', io_read('m/th3_N8.json'))"
cmp m/th3_N8.json again.json
# th7 N=96 spells the stem's y = 0.5 on x = 0 two ways; the lattice keys make it one vertex
polyvem mesh --family th7 --N 96 --out m96 > m96.log
grep -q "^vertices 14457," m96.log
# a solution VTK carries one POINT_DATA value per vertex
polyvem solve --family th2 --case test1 --N 8 --format both --out b
test -s b/solution_th2_N8_errors.csv
# the error norms' exact-solution pass runs on a second thread while the
# main thread factors K: two runs of one study still write the same bytes
polyvem convergence --family th2 --case test1 --N 8 16 32 --quiet --out r1 > /dev/null
polyvem convergence --family th2 --case test1 --N 8 16 32 --quiet --out r2 > /dev/null
cmp r1/convergence_load_th2.csv r2/convergence_load_th2.csv
points=$(awk '$1 == "POINTS" {print $2}' b/solution_th2_N8.vtk)
test "$points" -gt 0
test "$(awk '$1 == "POINT_DATA" {print $2}' b/solution_th2_N8.vtk)" -eq "$points"
test "$(awk '/^LOOKUP_TABLE/ {on = 1; next} on' b/solution_th2_N8.vtk | wc -l)" -eq "$points"
# solve runs one level: it takes one --N, and heads its CSV with the hash
# that convergence writes for that level
test "$(fails h48.err polyvem solve --family th2 --case test1 --N 4 8 --out h48)" -eq 2
grep -q -- "unrecognized arguments: 8" h48.err
polyvem solve --family th2 --case test1 --N 8 --format csv --quiet --out h8 > /dev/null
polyvem convergence --family th2 --case test1 --N 8 --quiet --out c8 > /dev/null
grep -h "^# config" h8/solution_th2_N8_errors.csv c8/convergence_load_th2.csv > heads
test "$(wc -l < heads)" -eq 2
test "$(sort -u heads | wc -l)" -eq 1
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
# eig writes only a CSV: --format vtk is not a choice
test "$(fails v.err polyvem eig --family th2 --case eigen_square --N 8 --format vtk --out v)" -eq 2
grep -q "invalid choice" v.err
# eig runs only eigen problems: a load config is a usage error
echo '{"problem": "load", "mesh_family": "th2", "N_list": [8], "coefficients": "test1"}' > load.json
test "$(fails c.err polyvem eig --config load.json --out c)" -eq 2
grep -q "runs only eigen problems" c.err
# a coefficient whose constant part fails to evaluate is a usage error
echo '{"problem": "load", "mesh_family": "th2", "N_list": [8], "coefficients": {"f": "1/0"}}' > div.json
test "$(fails z.err polyvem solve --config div.json --out z)" -eq 2
grep -q "^error: cannot evaluate expression '1/0'" z.err
# a config fixes every study input: a study flag next to it is a usage error
test "$(fails f.err polyvem solve --config load.json --family th2 --out f)" -eq 2
grep -q -- "remove --family" f.err
# solve and eig run one --N; there is no --N-single
test "$(fails n.err polyvem solve --family th2 --case test1 --N 4 --N-single 8 --out n)" -eq 2
grep -q -- "--N-single" n.err
# a command takes only the inputs it reads: solve has no eigensolver flags,
# convergence no --format
test "$(fails s.err polyvem solve --family th2 --case test1 --N 4 --seed 1 --out s)" -eq 2
grep -q -- "unrecognized arguments: --seed 1" s.err
test "$(fails g.err polyvem convergence --family th2 --case test1 --N 4 8 --format csv --out g)" -eq 2
grep -q -- "unrecognized arguments: --format csv" g.err
# any family splits: th7 with edges of 1e-10 of their length still validates
python -c "from polyvem import gen_rotated_T, split_edges, validate; validate(split_edges(gen_rotated_T('th7', 16), 1e-10))"
python -c "import polyvem"
