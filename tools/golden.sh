#!/usr/bin/env bash
# Fixed-seed CLI run whose output listing shows whether two source trees
# behave the same.
#
#   tools/golden.sh SRC OUT
#
# SRC is a directory holding the ``substat`` package (a checkout's ``src``);
# OUT is an empty or missing directory for the outputs.  Every command runs
# inside OUT with relative paths, its stdout is kept as ``NN-name.stdout``,
# and the script prints one ``sha256  path`` line per file written, sorted by
# path, after a first ``# python ... numpy ... scipy ...`` line that names the
# toolchain, so a diff also flags a toolchain change.  The listing of the
# current tree is kept in ``tools/golden.expected``; diff against it:
#
#   tools/golden.sh src /tmp/g | diff tools/golden.expected -
#
# Set PYTHON to choose the interpreter (default python3).  The commands run at
# the caller's OpenBLAS thread count; the listing must not depend on it, so
# CI diffs one run at the default and one with OPENBLAS_NUM_THREADS=1.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 1
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
python=${PYTHON:-python3}

"$python" -c 'import platform, numpy, scipy
print(f"# python {platform.python_version()} numpy {numpy.__version__} scipy {scipy.__version__}")'

step=0
run() {
    local name=$1
    shift
    step=$((step + 1))
    PYTHONPATH="$src" "$python" -m substat.cli "$@" \
        > "$(printf '%02d' "$step")-$name.stdout"
}

run simulate simulate --process poisson --a 3 --z 2 --seed 7 --out pattern.csv
run simulate-thomas simulate --process thomas --a 2 --z 2 --seed 8 --out thomas.csv
run table1 experiment table1 --process poisson --a-values 2,3 --z-values 1 \
    --h-values 0.02,0.05 --replications 4 --seed 3 --threads 2 --out table1.csv
run table2-poisson experiment table2 --process poisson --a-values 3 --z-values 1,2 \
    --h-values 0.05 --replications 3 --seed 4 --threads 2 --out table2-poisson.csv
run table2-thomas experiment table2 --process thomas --a-values 2 --z-values 1 \
    --h-values 0.05 --replications 3 --seed 5 --threads 1 --out table2-thomas.csv
# h=1e-5 leaves isolated points with a vanishing leave-one-out estimate: -inf
run select-bandwidth select-bandwidth --data pattern.csv --region 0,2,0,1 \
    --theta-deg 10 --candidates 0.00001,0.02,0.05,0.1 --out cv.csv
run fit-subspace fit-subspace --data pattern.csv --region 0,2,0,1 --h 0.05 \
    --threads 2 --out trace.csv
# a bounded search of two bandwidths on two workers: one fit in each process
mkdir -p grids
run apply apply --data thomas.csv --region 0,2,0,1 --h-values 0.05,0.1 \
    --search-halfwidth 10 --resolution 64 --grid-dir grids --threads 2 --out report.csv
run estimate-substationary estimate-intensity --data pattern.csv --region 0,2,0,1 \
    --estimator substationary --theta-deg 15 --h 0.05 --resolution 64 \
    --out substationary.csv --svg substationary.svg
run estimate-kernel2d estimate-intensity --data pattern.csv --region 0,2,0,1 \
    --estimator kernel2d --h 0.1 --resolution 16 --out kernel2d.csv --svg kernel2d.svg
run estimate-stationary estimate-intensity --data pattern.csv --region 0,2,0,1 \
    --estimator stationary --resolution 8 --out stationary.csv --svg stationary.svg
# n of about 5000: the leave-one-out sums and the 2000-node export each
# span several target chunks of the kernel-sum engine
run simulate-large simulate --process poisson --a 3 --z 50 --seed 9 --out large.csv
run select-bandwidth-large select-bandwidth --data large.csv --region 0,50,0,1 \
    --candidates 0.02,0.05 --out cv-large.csv
run estimate-large estimate-intensity --data large.csv --region 0,50,0,1 \
    --estimator substationary --theta-deg 1 --h 0.05 --resolution 2000 \
    --out substationary-large.csv
# a config file: a shared-session key of another subcommand (candidates) is
# ignored, and search_halfwidth = none opens the search
printf '%s\n' 'seed = 12' 'threads = 2' 'h_values = 0.05, 0.1' 'search_halfwidth = none' \
    'candidates = 0.02, 0.05' > sweep.cfg
run table1-config experiment table1 --config sweep.cfg --process poisson --a-values 2 \
    --z-values 1 --replications 2 --out table1-config.csv
# several table-1 cells of the cluster process
run table1-thomas experiment table1 --process thomas --a-values 2 --z-values 1,2 \
    --h-values 0.02,0.05 --replications 3 --threads 2 --out table1-thomas.csv
# a bounded fit at n of about 5000: every profile evaluation takes the
# interpolated kernel sums
run fit-subspace-large fit-subspace --data large.csv --region 0,50,0,1 --h 0.05 \
    --search-halfwidth 6 --threads 2 --out trace-large.csv
# n of about 1000 in a 10x1 window with the open search: at oblique angles
# the node grids span long projections
run simulate-open simulate --process poisson --a 3 --z 10 --seed 10 --out open.csv
run fit-subspace-open fit-subspace --data open.csv --region 0,10,0,1 --h 0.05 \
    --threads 2 --out trace-open.csv
# a region inside the window: points outside it are dropped and the rest
# shifted to its lower-left corner
run ingest ingest --data pattern.csv --region 0.5,1.75,0.2,0.9 --out ingested.csv
# the application report on an open search: the axis row reads theta = 0
# from a trace of both stages of the search; on two workers the two
# bandwidths' fits run in two processes
run apply-open apply --data pattern.csv --region 0,2,0,1 --h-values 0.05,0.1 \
    --search-halfwidth none --threads 2 --out report-open.csv
# a file that ingest's numpy pass refuses and its line loop reads: CRLF
# endings, a comment and a blank line below the header, and 1_0, which the
# loop reads as 10
printf 'x,y\r\n0.5,0.25\r\n# a note\r\n\r\n1_0,0.75\r\n3.5,0.5\r\n' > fallback.csv
run ingest-fallback ingest --data fallback.csv --region 0,20,0,1 --out ingested-fallback.csv

find . -type f | LC_ALL=C sort | xargs sha256sum
