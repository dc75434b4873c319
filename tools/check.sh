#!/usr/bin/env sh
# Tier-1 verification gate: configure, build, run the full test suite, then
# smoke-check the observability layer (trace capture -> validation, bench
# manifest emission) and re-run the obsx tests under ASan+UBSan.
# Exits nonzero on the first failure — the entry point a CI workflow calls.
#
# Usage: tools/check.sh [build-dir] [extra cmake args...]
#   tools/check.sh                       # default build/ tree
#   tools/check.sh build-asan -DCITYMESH_SANITIZE=ON
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"${repo_root}/build"}
[ $# -gt 0 ] && shift

cmake -B "${build_dir}" -S "${repo_root}" "$@"
cmake --build "${build_dir}" -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc 2>/dev/null || echo 4)"

# --- Observability smoke: a traced delivery must round-trip through the
# JSONL file and validate, and a bench must emit a parseable manifest.
smoke_dir=$(mktemp -d)
trap 'rm -rf "${smoke_dir}"' EXIT

cli="${build_dir}/tools/citymesh"
"${cli}" send boston 10 200 --trace "${smoke_dir}/send.jsonl" >/dev/null || true
[ -s "${smoke_dir}/send.jsonl" ] || {
  echo "check.sh: citymesh send --trace wrote no events" >&2; exit 1; }
"${cli}" trace "${smoke_dir}/send.jsonl" | grep -q "originate" || {
  echo "check.sh: trace validation found no originate event" >&2; exit 1; }

"${build_dir}/bench/ablation_width" --json "${smoke_dir}/bench.json" >/dev/null
for key in '"schema"' '"citymesh-manifest-v1"' '"digest"' '"metrics"' \
           '"medium.transmissions"' '"net.delivered"' '"wall_clock_s"'; do
  grep -q -- "${key}" "${smoke_dir}/bench.json" || {
    echo "check.sh: bench manifest missing ${key}" >&2; exit 1; }
done
echo "check.sh: obsx smoke (trace round-trip + bench manifest) OK"

# --- Compile-service gate: a network compiles every message, acks included,
# on its coordinator, so `citymesh send` prints the same bytes, compile
# counters included, at every shard count.
for k in 1 2 4; do
  "${cli}" send boston 10 400 --shards "$k" > "${smoke_dir}/send_k${k}.txt" || {
    echo "check.sh: citymesh send failed at --shards $k" >&2; exit 1; }
  cmp -s "${smoke_dir}/send_k1.txt" "${smoke_dir}/send_k${k}.txt" || {
    echo "check.sh: citymesh send stdout at --shards $k differs from K=1" >&2
    exit 1; }
done
echo "check.sh: compile-service gate (citymesh send identical at --shards 1, 2, 4) OK"

# --- Parallel-compile gate: a city compiles on the CPUs its calling thread
# may use (src/graphx/parallel.hpp), with byte-identical graphs at every
# count. So `citymesh send` prints the same bytes and writes the same
# manifest pinned to one CPU and unrestricted, disc and shadowed.
if command -v taskset >/dev/null 2>&1; then
  first_cpu=$(taskset -pc $$ | sed 's/.*: *//; s/[-,].*//')
  for model in disc shadowed; do
    model_arg=""
    [ "${model}" = shadowed ] && model_arg="--shadowed"
    for cpus in one all; do
      out="${smoke_dir}/cpus_${model}_${cpus}"
      pin=""
      [ "${cpus}" = one ] && pin="taskset -c ${first_cpu}"
      # shellcheck disable=SC2086  # pin and model_arg are empty or whole words
      ${pin} "${cli}" send boston 10 400 ${model_arg} --json "${out}.json" > "${out}.txt" || {
        echo "check.sh: citymesh send failed (${model}, ${cpus} CPU)" >&2; exit 1; }
    done
    cmp -s "${smoke_dir}/cpus_${model}_one.txt" "${smoke_dir}/cpus_${model}_all.txt" || {
      echo "check.sh: citymesh send stdout differs between one CPU and all (${model})" >&2
      exit 1; }
    cmp -s "${smoke_dir}/cpus_${model}_one.json" "${smoke_dir}/cpus_${model}_all.json" || {
      echo "check.sh: citymesh send manifest differs between one CPU and all (${model})" >&2
      exit 1; }
  done
  echo "check.sh: parallel-compile gate (citymesh send identical on one CPU and all) OK"
else
  echo "check.sh: taskset not found; skipping the parallel-compile gate" >&2
fi

# --- trafficx smoke: a tiny workload must run through `citymesh load` and
# two same-seed runs must emit byte-identical manifests (the determinism
# digest covers the schedule and the capacity summary).
cat > "${smoke_dir}/load.spec" <<'EOF'
name check-smoke
seed 11
duration 4
rate 2
spatial hotspot bias 8
payload 64 128
EOF
"${cli}" load boston --spec "${smoke_dir}/load.spec" \
  --json "${smoke_dir}/load1.json" >/dev/null || {
  echo "check.sh: citymesh load failed" >&2; exit 1; }
"${cli}" load boston --spec "${smoke_dir}/load.spec" \
  --json "${smoke_dir}/load2.json" >/dev/null
cmp -s "${smoke_dir}/load1.json" "${smoke_dir}/load2.json" || {
  echo "check.sh: citymesh load manifests differ across same-seed runs" >&2
  exit 1; }
grep -q '"medium.airtime_us"' "${smoke_dir}/load1.json" || {
  echo "check.sh: load manifest missing contention counters" >&2; exit 1; }
echo "check.sh: trafficx smoke (citymesh load + manifest digest) OK"

# --- runx smoke: a sweep grid must produce byte-identical merged manifests
# (including the determinism digest) no matter how many worker threads
# execute it — the engine's core contract.
cat > "${smoke_dir}/sweep.spec" <<'EOF'
name check-sweep
cities cambridge
seeds 1 2
pairs 20
deliver 2
point eval
EOF
"${cli}" sweep "${smoke_dir}/sweep.spec" --jobs 1 \
  --json "${smoke_dir}/sweep1.json" >/dev/null || {
  echo "check.sh: citymesh sweep failed" >&2; exit 1; }
"${cli}" sweep "${smoke_dir}/sweep.spec" --jobs 4 \
  --json "${smoke_dir}/sweep4.json" >/dev/null
cmp -s "${smoke_dir}/sweep1.json" "${smoke_dir}/sweep4.json" || {
  echo "check.sh: sweep manifests differ between --jobs 1 and --jobs 4" >&2
  exit 1; }
grep -q '"digest"' "${smoke_dir}/sweep1.json" || {
  echo "check.sh: sweep manifest missing digest" >&2; exit 1; }
echo "check.sh: runx smoke (sweep digest identical across --jobs) OK"

# --- Golden digest-identity gate: the committed manifest in tools/golden pins
# the protocol's behavior, hashed per-link loss/jitter draws included. Any
# behavioral drift in decode, conduit reconstruction, rebroadcast
# membership, link draws, or event ordering changes the manifest and fails
# the byte compare — refactors may move *when* work happens, never *what*
# the protocol does. The shard count only changes speed, so the same bytes
# must come out of one, two and four tiles.
for k in 1 2 4; do
  "${cli}" sweep "${repo_root}/tools/golden/fig6_smoke.spec" --jobs 1 \
    --shards "$k" --json "${smoke_dir}/golden_k${k}.json" >/dev/null || {
    echo "check.sh: golden sweep failed at --shards $k" >&2; exit 1; }
  cmp -s "${repo_root}/tools/golden/fig6_smoke.json" "${smoke_dir}/golden_k${k}.json" || {
    echo "check.sh: sweep manifest at --shards $k drifted from" \
      "tools/golden/fig6_smoke.json" >&2
    exit 1; }
done
echo "check.sh: golden digest-identity gate (--shards 1, 2, 4) OK"

# --- Live-scenario shard gate: a faultx scenario installed live under a
# trafficx load (draw-free: --jitter 0) must fire every action at every
# shard count — N/N applied at --shards 1 and 4 — with one digest. Fault actions are coordinator events (schedule_control),
# so an action that never fires shows up here as a short count.
cat > "${smoke_dir}/live_blackout.spec" <<'EOF'
name live-blackout
seed 3
blackout rect -100000 -100000 100000 100000 at 2
EOF
cat > "${smoke_dir}/live_load.spec" <<'EOF'
name live-load
seed 11
duration 4
rate 4
payload 64 128
EOF
for k in 1 4; do
  "${cli}" load cambridge --spec "${smoke_dir}/live_load.spec" \
    --scenario "${smoke_dir}/live_blackout.spec" --shards "$k" --jitter 0 \
    > "${smoke_dir}/live_k${k}.txt" || {
    echo "check.sh: citymesh load --scenario failed at --shards $k" >&2; exit 1; }
  applied=$(grep -o '([0-9]*/[0-9]* actions applied)' "${smoke_dir}/live_k${k}.txt" \
    | tr -d '()' | cut -d' ' -f1)
  [ -n "${applied}" ] && [ "${applied%/*}" = "${applied#*/}" ] \
    && [ "${applied%/*}" -gt 0 ] || {
    echo "check.sh: live scenario applied '${applied}' actions at --shards $k" >&2
    exit 1; }
done
live_digest() { grep -o 'determinism digest: [0-9a-f]*' "$1"; }
[ "$(live_digest "${smoke_dir}/live_k4.txt")" = \
  "$(live_digest "${smoke_dir}/live_k1.txt")" ] || {
  echo "check.sh: live scenario digest differs at --shards 4" >&2; exit 1; }
echo "check.sh: live-scenario shard gate (${applied} actions, K=4 digest == K=1) OK"

# --- Settled-duplicate gate: an untraced conduit flood settles provable
# duplicate receptions at fan-out instead of queueing them; a traced run
# queues and records every one. The live-scenario load above (a blackout
# landing mid-run) must print the same digest and write the same manifest
# both ways, at --shards 1 and 2.
for k in 1 2; do
  for traced in 0 1; do
    trace_arg=""
    [ "${traced}" = 1 ] && trace_arg="--trace ${smoke_dir}/settle_k${k}.jsonl"
    out="${smoke_dir}/settle_k${k}_t${traced}"
    # shellcheck disable=SC2086  # trace_arg is empty or one flag pair
    "${cli}" load cambridge --spec "${smoke_dir}/live_load.spec" \
      --scenario "${smoke_dir}/live_blackout.spec" --shards "$k" --jitter 0 \
      ${trace_arg} --json "${out}.json" > "${out}.txt" || {
      echo "check.sh: citymesh load failed at --shards $k (traced=${traced})" >&2; exit 1; }
    [ "$(live_digest "${out}.txt")" = "$(live_digest "${smoke_dir}/live_k1.txt")" ] || {
      echo "check.sh: live load digest differs at --shards $k (traced=${traced})" >&2
      exit 1; }
    cmp -s "${smoke_dir}/settle_k1_t0.json" "${out}.json" || {
      echo "check.sh: live load manifest differs at --shards $k (traced=${traced})" >&2
      exit 1; }
  done
done
echo "check.sh: settled-duplicate gate (live load traced == untraced, --shards 1, 2) OK"

# --- relayx smoke: the fig11 overhead/deliverability frontier must run its
# quick grid and produce the same determinism digest across two same-seed
# runs (the digest folds every policy row, so any nondeterminism in the
# suppression timers or per-AP RNG streams shows up here; the full-file
# bytes legitimately differ in wall_clock_s, unlike the CLI manifests).
"${build_dir}/bench/fig11_frontier" --quick --json "${smoke_dir}/fig11a.json" \
  >/dev/null || { echo "check.sh: fig11_frontier --quick failed" >&2; exit 1; }
"${build_dir}/bench/fig11_frontier" --quick --json "${smoke_dir}/fig11b.json" \
  >/dev/null
"${build_dir}/bench/fig11_frontier" --quick --shards 4 \
  --json "${smoke_dir}/fig11k4.json" >/dev/null || {
  echo "check.sh: fig11_frontier --quick --shards 4 failed" >&2; exit 1; }
fig11_digest() { grep -o '"digest": "[0-9a-f]*"' "$1"; }
[ -n "$(fig11_digest "${smoke_dir}/fig11a.json")" ] || {
  echo "check.sh: fig11 manifest missing digest" >&2; exit 1; }
[ "$(fig11_digest "${smoke_dir}/fig11a.json")" = \
  "$(fig11_digest "${smoke_dir}/fig11b.json")" ] || {
  echo "check.sh: fig11_frontier digests differ across same-seed runs" >&2
  exit 1; }
[ "$(fig11_digest "${smoke_dir}/fig11k4.json")" = \
  "$(fig11_digest "${smoke_dir}/fig11a.json")" ] || {
  echo "check.sh: fig11_frontier digest differs at --shards 4" >&2; exit 1; }
echo "check.sh: relayx smoke (fig11 quick-grid digest deterministic, K=4 == K=1) OK"

# --- shardx smoke: the tiled parallel engine must be invisible in every
# manifest (the golden gate above covers the fig6 spec at K = 1, 2, 4), and
# the fig10 scaling bench self-asserts that each shard count reproduces
# K=1's behavioral cells, exiting nonzero on the first divergence.
"${build_dir}/bench/fig10_scale" --quick >/dev/null || {
  echo "check.sh: fig10_scale shard-count invariance failed" >&2; exit 1; }

# Tiling gate: the event-rate-adaptive tiler moves tile boundaries, never
# behavior. The fig10 quick ladder under both partitioners must emit the
# same behavioral digest (memory/wall/idle columns stay outside it).
fig10_digest() { grep -o '"digest": "[0-9a-f]*"' "$1"; }
"${build_dir}/bench/fig10_scale" --quick --tiling adaptive \
  --json "${smoke_dir}/fig10_adaptive.json" >/dev/null || {
  echo "check.sh: fig10_scale --tiling adaptive failed" >&2; exit 1; }
"${build_dir}/bench/fig10_scale" --quick --tiling grid \
  --json "${smoke_dir}/fig10_grid.json" >/dev/null || {
  echo "check.sh: fig10_scale --tiling grid failed" >&2; exit 1; }
[ -n "$(fig10_digest "${smoke_dir}/fig10_adaptive.json")" ] || {
  echo "check.sh: fig10 manifest missing digest" >&2; exit 1; }
[ "$(fig10_digest "${smoke_dir}/fig10_adaptive.json")" = \
  "$(fig10_digest "${smoke_dir}/fig10_grid.json")" ] || {
  echo "check.sh: fig10 digest differs between adaptive and grid tiling" >&2
  exit 1; }
echo "check.sh: tiling gate (adaptive == grid behavioral digest) OK"

# fig8/fig9-style points (a faultx scenario and a trafficx workload) in the
# draw-free regime (--jitter 0, zero loss): the K=1 manifest must be
# byte-identical to the K = 2, 4 and 8 ones.
cat > "${smoke_dir}/shard_quake.spec" <<'EOF'
name shard-quake
seed 5
blackout rect 200 200 700 600 at 0.0 restore 40 stages 2 every 10
EOF
cat > "${smoke_dir}/shard_load.spec" <<'EOF'
name shard-load
seed 11
duration 4
rate 2
spatial hotspot bias 8
payload 64 128
EOF
cat > "${smoke_dir}/shard_smoke.spec" <<EOF
name shard-smoke
cities cambridge
seeds 1 2
pairs 20
deliver 2
point scenario ${smoke_dir}/shard_quake.spec
point workload ${smoke_dir}/shard_load.spec
EOF
for k in 1 2 4 8; do
  "${cli}" sweep "${smoke_dir}/shard_smoke.spec" --jitter 0 --shards "$k" \
    --json "${smoke_dir}/shard_k${k}.json" >/dev/null || {
    echo "check.sh: shard smoke sweep failed at --shards $k" >&2; exit 1; }
  cmp -s "${smoke_dir}/shard_k1.json" "${smoke_dir}/shard_k${k}.json" || {
    echo "check.sh: shard smoke manifest at --shards $k differs from K=1" >&2
    exit 1; }
done
echo "check.sh: shardx smoke (K=1 manifest == K=2, 4, 8) OK"

# --- qfgeo smoke: the fig12 conduit-vs-QF-Geo quick grid must emit the same
# determinism digest no matter how many workers or shards execute it
# (wall_clock_s makes full-file compares meaningless here, like fig11).
fig12_digest() { grep -o '"digest": "[0-9a-f]*"' "$1"; }
"${build_dir}/bench/fig12_baselines" --quick --jobs 1 \
  --json "${smoke_dir}/fig12_j1.json" >/dev/null || {
  echo "check.sh: fig12_baselines --quick failed" >&2; exit 1; }
"${build_dir}/bench/fig12_baselines" --quick --jobs 4 \
  --json "${smoke_dir}/fig12_j4.json" >/dev/null
"${build_dir}/bench/fig12_baselines" --quick --jobs 4 --shards 4 \
  --json "${smoke_dir}/fig12_k4.json" >/dev/null || {
  echo "check.sh: fig12_baselines --shards 4 failed" >&2; exit 1; }
[ -n "$(fig12_digest "${smoke_dir}/fig12_j1.json")" ] || {
  echo "check.sh: fig12 manifest missing digest" >&2; exit 1; }
for v in j4 k4; do
  [ "$(fig12_digest "${smoke_dir}/fig12_${v}.json")" = \
    "$(fig12_digest "${smoke_dir}/fig12_j1.json")" ] || {
    echo "check.sh: fig12 digest differs at variant ${v}" >&2; exit 1; }
done
echo "check.sh: qfgeo smoke (fig12 digest identical across --jobs/--shards) OK"

# --- The obsx buffer/JSONL code is pointer-heavy, the trafficx runner
# threads raw pointers through scheduled closures, the medium fans shared
# immutable packets through queues and backoff closures, and the compiled-
# message layer shares read-only CompiledMessages across receptions, and the
# relayx policies keep per-AP state the backoff closures point into, the
# shardx tiles hand shared immutable packets across thread boundaries, and
# the qfgeo election timers capture per-reception state into medium
# closures, and the scheduler layer recycles event and batch blocks
# through freelists, and the metro-memory slabs (CSR views, per-AP seen
# sets, medium transmit rings) index shared flat arrays, and the flat
# spatial grid and essential-edge planning graph are offset-indexed CSRs
# (geo, graphx, core), and faultx actions capture the scenario engine into
# coordinator closures, and every message's record (acks, send_reliable,
# geo-broadcast, forward_pending) opens, merges and erases through the one
# origination path (extensions, apps, integration), and the ideal-hop
# query indexes per-call label and bucket buffers and a hop-landmark table
# (mesh), and the
# remaining suites parse and encode bytes (wire, osmx, cryptox) or index
# flat tables (routing, runx, measure, viz); run every test suite under
# ASan+UBSan in a separate tree (skipped if that tree's configure fails,
# e.g. no sanitizer runtime on minimal images).
san_suites="test_obsx test_trafficx test_sim test_compiled test_relayx test_shardx
  test_qfgeo test_scheduler test_metromem test_geo test_graphx test_core test_faultx
  test_extensions test_apps test_integration test_mesh test_routing test_runx
  test_cryptox test_wire test_osmx test_measure test_viz"
san_dir="${build_dir}-asan"
if cmake -B "${san_dir}" -S "${repo_root}" -DCITYMESH_SANITIZE=ON >/dev/null; then
  # One goal over every suite: successive --target goals would compile one
  # test file at a time (a CMake Makefile tree runs its goals in series).
  cmake --build "${san_dir}" -j "$(nproc 2>/dev/null || echo 4)" --target citymesh_tests
  san_count=0
  for t in ${san_suites}; do
    "${san_dir}/tests/${t}"
    san_count=$((san_count + 1))
  done
  echo "check.sh: all ${san_count} test suites clean under ASan+UBSan"
else
  echo "check.sh: sanitizer configure failed; skipping ASan+UBSan pass" >&2
fi

# --- The runx engine shares compiled cities across worker threads, the
# compile-once refactor additionally shares immutable CompiledMessages, and
# the shardx worker pool runs tile simulators concurrently inside one run,
# and the qfgeo sweep tests drive the protocol axis across worker threads,
# and the tiles share one agent-state slab and one first-arrival table
# whose per-AP entries only the AP's own tile thread writes, and one
# compile service that only the coordinator calls (acks are compiled at
# origination), and live faultx scenarios flip AP status between the
# tiles' windows, and tiles read the message records (acks included) that
# the coordinator opens and merges between windows (extensions, trafficx),
# and sweep jobs run the ideal-hop query concurrently on one shared
# compiled city, whose hop-landmark table the first query builds behind a
# call_once (runx), and runx compiles cities — the grid sweep and the link
# builder (geo, graphx, mesh) — on its worker threads. Every suite runs
# under TSan in a third tree, so every network test (core, apps,
# integration included) runs its tiles and the shared first-arrival table
# there, to catch data races the determinism digest can't see.
tsan_dir="${build_dir}-tsan"
if cmake -B "${tsan_dir}" -S "${repo_root}" -DCITYMESH_SANITIZE=thread >/dev/null; then
  cmake --build "${tsan_dir}" -j "$(nproc 2>/dev/null || echo 4)" --target citymesh_tests
  tsan_count=0
  for t in ${san_suites}; do
    "${tsan_dir}/tests/${t}"
    tsan_count=$((tsan_count + 1))
  done
  echo "check.sh: all ${tsan_count} test suites clean under TSan"
else
  echo "check.sh: TSan configure failed; skipping thread-sanitizer pass" >&2
fi
