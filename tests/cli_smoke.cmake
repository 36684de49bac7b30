# Drives the anycastd CLI end-to-end: run a small census to disk, analyze
# it back with GeoJSON export, and check the outputs exist and parse.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Pulls one counter value out of a JSON metrics scrape.
function(metric_value json name out_var)
  string(REGEX MATCH "\"name\": \"${name}\"[^\n]*\"value\": ([0-9]+)"
         _match "${json}")
  set(value "${CMAKE_MATCH_1}")  # copy: a later MATCHES clobbers it
  if(NOT value MATCHES "^[0-9]+$")
    message(FATAL_ERROR "metric ${name} missing from scrape")
  endif()
  set(${out_var} "${value}" PARENT_SCOPE)
endfunction()

execute_process(
  COMMAND ${ANYCASTD} census --out ${WORK_DIR}/c1 --vps 12 --unicast 400
          --metrics-out ${WORK_DIR}/metrics.json --verbose
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "census failed (${rc}): ${out}${err}")
endif()

# --verbose prints the metrics table and the span tree.
if(NOT out MATCHES "-- metrics ")
  message(FATAL_ERROR "verbose census missing metrics table: ${out}")
endif()
if(NOT out MATCHES "census_probes_sent")
  message(FATAL_ERROR "verbose table missing census counters: ${out}")
endif()
if(NOT out MATCHES "-- trace spans ")
  message(FATAL_ERROR "verbose census missing span tree: ${out}")
endif()
if(NOT out MATCHES "resume_census")
  message(FATAL_ERROR "span tree missing the census root span: ${out}")
endif()

# --metrics-out produced a JSON scrape with the census instruments.
if(NOT EXISTS ${WORK_DIR}/metrics.json)
  message(FATAL_ERROR "--metrics-out produced no file")
endif()
file(READ ${WORK_DIR}/metrics.json metrics_json)
if(NOT metrics_json MATCHES "\"metrics\": \\[")
  message(FATAL_ERROR "metrics scrape is not the expected JSON shape")
endif()
metric_value("${metrics_json}" census_probes_sent clean_sent)
if(clean_sent EQUAL 0)
  message(FATAL_ERROR "census scrape claims zero probes sent")
endif()

file(GLOB anc_files ${WORK_DIR}/c1/*.anc)
list(LENGTH anc_files anc_count)
if(NOT anc_count EQUAL 12)
  message(FATAL_ERROR "expected 12 census files, got ${anc_count}")
endif()

execute_process(
  COMMAND ${ANYCASTD} analyze --in ${WORK_DIR}/c1 --vps 12 --unicast 400
          --geojson ${WORK_DIR}/map.geojson
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "analyze failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "anycast: [0-9]+ /24 in [0-9]+ ASes")
  message(FATAL_ERROR "analyze output missing summary: ${out}")
endif()

file(READ ${WORK_DIR}/map.geojson geojson)
if(NOT geojson MATCHES "FeatureCollection")
  message(FATAL_ERROR "GeoJSON export malformed")
endif()

execute_process(
  COMMAND ${ANYCASTD} portscan --top 10 --unicast 100
          --metrics-out ${WORK_DIR}/portscan.prom
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "portscan failed (${rc})")
endif()

# A .prom suffix selects the Prometheus exposition format. Counter TYPE
# lines must declare the *_total family promtool expects.
file(READ ${WORK_DIR}/portscan.prom prom)
if(NOT prom MATCHES "# TYPE portscan_deployments_total counter")
  message(FATAL_ERROR "Prometheus scrape missing portscan counter family")
endif()
if(NOT prom MATCHES "portscan_deployments_total [0-9]+")
  message(FATAL_ERROR "Prometheus scrape missing counter sample")
endif()

# An unwritable --metrics-out path must fail fast with a clean error —
# before any probing starts, so no census directory appears.
execute_process(
  COMMAND ${ANYCASTD} census --out ${WORK_DIR}/c3 --vps 2 --unicast 50
          --metrics-out ${WORK_DIR}/no_such_dir/metrics.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unwritable --metrics-out path was not rejected")
endif()
if(NOT err MATCHES "cannot open --metrics-out path")
  message(FATAL_ERROR "unwritable path error message missing: ${err}")
endif()
if(EXISTS ${WORK_DIR}/c3)
  message(FATAL_ERROR "census ran despite an unwritable metrics path")
endif()

# Serve leg: the query plane answers a request file against the census
# just written, deterministically.
file(WRITE ${WORK_DIR}/queries.txt
  "# smoke queries\npoint 0\nbatch 0 1 2 3 4 5 6 7\nreplicas 2\n"
  "nearest 2 48.85 2.35\n")
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1 --vps 12 --unicast 400
          --queries ${WORK_DIR}/queries.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "point 0 target=0 anycast=[01] responsive=[01]")
  message(FATAL_ERROR "serve missing point answer: ${out}")
endif()
if(NOT out MATCHES "batch n=8")
  message(FATAL_ERROR "serve missing batch answer: ${out}")
endif()
if(NOT err MATCHES "serve: answered 4 queries from snapshot 1")
  message(FATAL_ERROR "serve missing summary line: ${err}")
endif()

# Platform mismatch: c1 holds checkpoints from VPs 0..11, so reading it
# with a 4-VP platform must fail cleanly with exit 2 and name the --vps
# it needs — never index past the platform (exit by signal) or answer
# from the wrong VPs (exit 0).
foreach(verb analyze serve report)
  set(extra)
  if(verb STREQUAL "serve")
    set(extra --queries ${WORK_DIR}/queries.txt)
  endif()
  execute_process(
    COMMAND ${ANYCASTD} ${verb} --in ${WORK_DIR}/c1 --vps 4 --unicast 400
            ${extra}
    RESULT_VARIABLE rc OUTPUT_VARIABLE mismatch_out
    ERROR_VARIABLE mismatch_err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${verb} --vps 4 on a 12-VP census: expected exit 2, "
                        "got '${rc}': ${mismatch_out}${mismatch_err}")
  endif()
  if(NOT mismatch_err MATCHES "rerun with --vps 12")
    message(FATAL_ERROR "${verb} mismatch diagnostic missing: ${mismatch_err}")
  endif()
endforeach()

# The same answers must be byte-identical on a second run.
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1 --vps 12 --unicast 400
          --queries ${WORK_DIR}/queries.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out2 ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out STREQUAL out2)
  message(FATAL_ERROR "serve answers are not deterministic")
endif()

# A malformed query batch is refused atomically: rc 2, the offending
# line named, and NO answers emitted for the lines before it.
file(WRITE ${WORK_DIR}/bad_queries.txt "point 0\nbogus 12 13\n")
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1 --vps 12 --unicast 400
          --queries ${WORK_DIR}/bad_queries.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "malformed query batch exited ${rc}, want 2: ${err}")
endif()
if(NOT err MATCHES "serve: bad query at line 2")
  message(FATAL_ERROR "malformed batch error missing line number: ${err}")
endif()
if(out MATCHES "point 0 target=0")
  message(FATAL_ERROR "malformed batch still emitted answers: ${out}")
endif()

# An unwritable --metrics-out during serve fails fast, before the
# snapshot is even loaded.
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1 --vps 12 --unicast 400
          --queries ${WORK_DIR}/queries.txt
          --metrics-out ${WORK_DIR}/no_such_dir/serve_metrics.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "serve with unwritable --metrics-out did not fail")
endif()
if(NOT err MATCHES "cannot open --metrics-out path")
  message(FATAL_ERROR "serve metrics-out error message missing: ${err}")
endif()

# Chaos leg: a fault-injected census must still produce one checkpoint per
# VP, resume must repair the damage we do, and analyze must still work.
execute_process(
  COMMAND ${ANYCASTD} census --out ${WORK_DIR}/c2 --vps 12 --unicast 400
          --chaos --outage-rate 0.9 --retries 2 --quarantine-drop 0.5
          --metrics-out ${WORK_DIR}/chaos_metrics.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos census failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "VP outcomes: [0-9]+ completed")
  message(FATAL_ERROR "chaos census missing outcome summary: ${out}")
endif()

# Exact probe accounting under chaos: every probe sent is answered,
# rejected, organically timed out, or lost to an injected fault.
file(READ ${WORK_DIR}/chaos_metrics.json chaos_json)
metric_value("${chaos_json}" census_probes_sent sent)
metric_value("${chaos_json}" census_replies_echo echo)
metric_value("${chaos_json}" census_replies_prohibited prohibited)
metric_value("${chaos_json}" census_timeouts_organic organic)
metric_value("${chaos_json}" census_timeouts_injected injected)
if(injected EQUAL 0)
  message(FATAL_ERROR "outage-rate 0.9 chaos census injected no timeouts")
endif()
math(EXPR accounted "${echo} + ${prohibited} + ${organic} + ${injected}")
if(NOT accounted EQUAL sent)
  message(FATAL_ERROR "probe accounting broken: sent ${sent} != "
          "echo ${echo} + prohibited ${prohibited} + organic ${organic} "
          "+ injected ${injected} = ${accounted}")
endif()

file(GLOB chaos_files ${WORK_DIR}/c2/*.anc)
list(LENGTH chaos_files chaos_count)
if(NOT chaos_count EQUAL 12)
  message(FATAL_ERROR "expected 12 chaos census files, got ${chaos_count}")
endif()

# Destroy one checkpoint (simulating a crash mid-write) and delete
# another; resume must re-run exactly those VPs and reuse the rest.
file(WRITE ${WORK_DIR}/c2/census1_vp3.anc "not a census file")
file(REMOVE ${WORK_DIR}/c2/census1_vp5.anc)

execute_process(
  COMMAND ${ANYCASTD} resume --out ${WORK_DIR}/c2 --vps 12 --unicast 400
          --retries 2 --quarantine-drop 0.5
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "resume: [0-9]+ checkpoints reused, [0-9]+ VPs re-run")
  message(FATAL_ERROR "resume output missing reuse summary: ${out}")
endif()

execute_process(
  COMMAND ${ANYCASTD} analyze --in ${WORK_DIR}/c2 --vps 12 --unicast 400
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos analyze failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "anycast: [0-9]+ /24 in [0-9]+ ASes")
  message(FATAL_ERROR "chaos analyze output missing summary: ${out}")
endif()

# Diff query across two snapshot directories (c1 clean vs c2 repaired
# chaos census of the same world).
file(WRITE ${WORK_DIR}/diff_query.txt "diff\n")
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c2 --vps 12 --unicast 400
          --against ${WORK_DIR}/c1 --queries ${WORK_DIR}/diff_query.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve diff failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "diff dirty=[0-9]+ changes=[0-9]+")
  message(FATAL_ERROR "serve diff answer malformed: ${out}")
endif()

# A snapshot directory with a checksum-failing file is refused strictly —
# serving silently-partial data is worse than not serving — and served
# from the recoverable remainder only under --allow-salvage.
file(MAKE_DIRECTORY ${WORK_DIR}/c_bad)
file(GLOB c1_files ${WORK_DIR}/c1/*.anc)
file(COPY ${c1_files} DESTINATION ${WORK_DIR}/c_bad)
file(WRITE ${WORK_DIR}/c_bad/census1_vp4.anc "garbage, not a census file")
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c_bad --vps 12 --unicast 400
          --queries ${WORK_DIR}/queries.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "serve accepted a checksum-failing snapshot")
endif()
if(NOT err MATCHES "failed checksum validation")
  message(FATAL_ERROR "serve refusal message missing: ${err}")
endif()
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c_bad --vps 12 --unicast 400
          --queries ${WORK_DIR}/queries.txt --allow-salvage
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve --allow-salvage failed (${rc}): ${out}${err}")
endif()
if(NOT err MATCHES "serve: answered 4 queries")
  message(FATAL_ERROR "salvage serve missing summary: ${err}")
endif()

# Flight recorder leg: a census with the journal, trace export, and live
# progress on. The progress heartbeat goes to stderr; the journal is
# JSONL with walk events; the trace is a Trace Event Format JSON object.
execute_process(
  COMMAND ${ANYCASTD} census --out ${WORK_DIR}/d1 --vps 12 --unicast 400
          --threads 2 --journal-out ${WORK_DIR}/d1.jsonl
          --trace-out ${WORK_DIR}/d1.trace.json --progress
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "flight recorder census failed (${rc}): ${out}${err}")
endif()
if(NOT err MATCHES "\\[census\\] [0-9]+/12 VPs")
  message(FATAL_ERROR "--progress printed no heartbeat line: ${err}")
endif()
file(READ ${WORK_DIR}/d1.jsonl journal1)
if(NOT journal1 MATCHES "\"key\":\"census.walk\"")
  message(FATAL_ERROR "journal missing census.walk events")
endif()
if(NOT journal1 MATCHES "\"key\":\"census.summary\"")
  message(FATAL_ERROR "journal missing the census.summary event")
endif()
file(READ ${WORK_DIR}/d1.trace.json trace1)
if(NOT trace1 MATCHES "\"traceEvents\":")
  message(FATAL_ERROR "trace export is not Trace Event Format JSON")
endif()
if(NOT trace1 MATCHES "resume_census")
  message(FATAL_ERROR "trace export missing the census root span")
endif()
if(NOT trace1 MATCHES "\"otherData\":")
  message(FATAL_ERROR "trace export missing the drop-accounting footer")
endif()

# Unwritable journal/trace paths must fail fast, before any probing.
foreach(flag journal-out trace-out)
  execute_process(
    COMMAND ${ANYCASTD} census --out ${WORK_DIR}/d_reject --vps 2
            --unicast 50 --${flag} ${WORK_DIR}/no_such_dir/out.file
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "unwritable --${flag} path was not rejected")
  endif()
  if(NOT err MATCHES "cannot open --${flag} path")
    message(FATAL_ERROR "unwritable --${flag} error message missing: ${err}")
  endif()
  if(EXISTS ${WORK_DIR}/d_reject)
    message(FATAL_ERROR "census ran despite an unwritable --${flag} path")
  endif()
endforeach()

# Drift diff: the same census at a different thread count must journal a
# byte-identical semantic stream — `report --diff` proves it (rc 0).
execute_process(
  COMMAND ${ANYCASTD} census --out ${WORK_DIR}/d2 --vps 12 --unicast 400
          --threads 8 --journal-out ${WORK_DIR}/d2.jsonl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second flight recorder census failed (${rc})")
endif()
execute_process(
  COMMAND ${ANYCASTD} report --diff ${WORK_DIR}/d1.jsonl
          --against ${WORK_DIR}/d2.jsonl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "identical runs reported drift (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "zero drift: [0-9]+ semantic events identical")
  message(FATAL_ERROR "drift diff output malformed: ${out}")
endif()

# A chaos run's journal diverges from the clean run's — rc 3 and the
# first diverging event printed from both sides.
execute_process(
  COMMAND ${ANYCASTD} census --out ${WORK_DIR}/d3 --vps 12 --unicast 400
          --chaos --outage-rate 0.9 --journal-out ${WORK_DIR}/d3.jsonl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos journal census failed (${rc})")
endif()
execute_process(
  COMMAND ${ANYCASTD} report --diff ${WORK_DIR}/d1.jsonl
          --against ${WORK_DIR}/d3.jsonl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "chaos drift not detected (rc ${rc}): ${out}")
endif()
if(NOT out MATCHES "DRIFT at semantic event [0-9]+")
  message(FATAL_ERROR "drift report missing divergence point: ${out}")
endif()

# Run report: checkpoints + journal render as one Markdown document.
execute_process(
  COMMAND ${ANYCASTD} report --in ${WORK_DIR}/d1 --vps 12 --unicast 400
          --journal ${WORK_DIR}/d1.jsonl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run report failed (${rc}): ${out}${err}")
endif()
foreach(section "# anycastd run report" "## Census characterisation"
        "## Flight recorder" "## Semantic metrics snapshot")
  if(NOT out MATCHES "${section}")
    message(FATAL_ERROR "run report missing section '${section}': ${out}")
  endif()
endforeach()
if(NOT out MATCHES "census.walk")
  message(FATAL_ERROR "run report missing journal event table: ${out}")
endif()

# Resume with no checkpoints on disk must refuse with a clear one-line
# error and a nonzero exit, instead of silently running a fresh census.
execute_process(
  COMMAND ${ANYCASTD} resume --out ${WORK_DIR}/never_ran --vps 4
          --unicast 100
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "resume with nothing to resume did not fail")
endif()
if(NOT err MATCHES "resume: no checkpoint for census [0-9]+ in")
  message(FATAL_ERROR "resume-nothing error message missing: ${err}")
endif()

# Watch leg: a churning multi-round campaign must journal a byte-identical
# semantic stream at any thread count — the tentpole determinism contract.
# --serve-queries keeps a query reader live across every round's epoch
# swap and answers the file once more against the final snapshot; the
# final answers are deterministic, so they must not differ by thread
# count either.
file(WRITE ${WORK_DIR}/watch_queries.txt "point 0\nbatch 0 1 2 3\n")
foreach(threads 2 8)
  execute_process(
    COMMAND ${ANYCASTD} watch --out ${WORK_DIR}/w${threads} --rounds 3
            --vps 12 --unicast 400 --churn --threads ${threads}
            --journal-out ${WORK_DIR}/w${threads}.jsonl
            --serve-queries ${WORK_DIR}/watch_queries.txt
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "watch (${threads} threads) failed (${rc}): "
            "${out}${err}")
  endif()
  if(NOT out MATCHES "watch: campaign at 3/3 rounds")
    message(FATAL_ERROR "watch output missing campaign summary: ${out}")
  endif()
  if(NOT out MATCHES "point 0 target=0")
    message(FATAL_ERROR "watch --serve-queries printed no final answers: "
            "${out}")
  endif()
  if(NOT err MATCHES "serve: [0-9]+ in-campaign batches across [0-9]+ snapshot")
    message(FATAL_ERROR "watch --serve-queries missing serving summary: "
            "${err}")
  endif()
  string(REGEX MATCH "point 0 target=0[^\n]*" serve_answer_${threads}
         "${out}")
endforeach()
if(NOT serve_answer_2 STREQUAL serve_answer_8)
  message(FATAL_ERROR "watch serve answers differ by thread count: "
          "'${serve_answer_2}' vs '${serve_answer_8}'")
endif()
execute_process(
  COMMAND ${ANYCASTD} report --diff ${WORK_DIR}/w2.jsonl
          --against ${WORK_DIR}/w8.jsonl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "watch journals drifted across thread counts "
          "(${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "zero drift: [0-9]+ semantic events identical")
  message(FATAL_ERROR "watch drift diff output malformed: ${out}")
endif()

# Watchdog drill: the daemon aborts round 2 mid-walk with the dedicated
# exit code, and a plain restart over the same directory resumes the
# half-done round and finishes the campaign.
execute_process(
  COMMAND ${ANYCASTD} watch --out ${WORK_DIR}/w_drill --rounds 3 --vps 12
          --unicast 400 --churn --die-at-round 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 70)
  message(FATAL_ERROR "watchdog drill exited ${rc}, want 70: ${out}${err}")
endif()
if(NOT out MATCHES "watchdog abort drill fired")
  message(FATAL_ERROR "drill output missing abort notice: ${out}")
endif()
execute_process(
  COMMAND ${ANYCASTD} watch --out ${WORK_DIR}/w_drill --rounds 3 --vps 12
          --unicast 400 --churn
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "watch restart after drill failed (${rc}): "
          "${out}${err}")
endif()
if(NOT out MATCHES "round 2: healthy[^\n]*\\[resumed\\]")
  message(FATAL_ERROR "restart did not resume the aborted round: ${out}")
endif()
if(NOT out MATCHES "watch: campaign at 3/3 rounds")
  message(FATAL_ERROR "restarted campaign did not finish: ${out}")
endif()

# Telemetry leg: the serving protocol's introspection verbs, SLO burn
# state, the periodic metrics flusher, and `top` over the flushed file.
file(WRITE ${WORK_DIR}/telemetry_queries.txt
  "point 0\nbatch 0 1 2 3\nstats\nslo\nmetricsdump\n")
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1 --vps 12 --unicast 400
          --queries ${WORK_DIR}/telemetry_queries.txt
          --slo "p99_query_us=5000,availability=0.999"
          --metrics-out ${WORK_DIR}/live.json --metrics-interval 0.2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "telemetry serve failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "stats snapshot=[0-9]+ targets=[0-9]+")
  message(FATAL_ERROR "serve stats verb missing: ${out}")
endif()
if(NOT out MATCHES "slo objectives=2")
  message(FATAL_ERROR "serve slo verb missing objectives: ${out}")
endif()
if(NOT out MATCHES "state=ok")
  message(FATAL_ERROR "serve slo verb missing burn state: ${out}")
endif()
if(NOT out MATCHES "\"latency\": \\[")
  message(FATAL_ERROR "metricsdump missing the latency section: ${out}")
endif()
if(NOT err MATCHES "metrics-interval: wrote [0-9]+ periodic scrape")
  message(FATAL_ERROR "metrics flusher summary missing: ${err}")
endif()
file(READ ${WORK_DIR}/live.json live_doc)
if(NOT live_doc MATCHES "\"metrics\": \\[")
  message(FATAL_ERROR "flushed telemetry document malformed")
endif()
if(NOT live_doc MATCHES "\"slo\": \\[")
  message(FATAL_ERROR "flushed telemetry document missing slo section")
endif()

# `anycastd top` renders one frame from the flushed document.
execute_process(
  COMMAND ${ANYCASTD} top --metrics ${WORK_DIR}/live.json --iterations 1
          --plain
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "anycastd top failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "anycastd top")
  message(FATAL_ERROR "top frame missing header: ${out}")
endif()
if(NOT out MATCHES "serving_query_ns")
  message(FATAL_ERROR "top frame missing latency rows: ${out}")
endif()

# top over a missing file fails with a nonzero exit, not a blank frame.
execute_process(
  COMMAND ${ANYCASTD} top --metrics ${WORK_DIR}/no_such_file.json
          --iterations 1 --plain
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "top over a missing file did not fail")
endif()

# A malformed --slo spec is rejected before any work starts.
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1 --vps 12 --unicast 400
          --queries ${WORK_DIR}/queries.txt --slo "p99_bogus=1"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bad --slo spec exited ${rc}, want 2: ${err}")
endif()
if(NOT err MATCHES "bad --slo spec")
  message(FATAL_ERROR "bad --slo error message missing: ${err}")
endif()

# --metrics-interval without a --metrics-out sink is refused.
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1 --vps 12 --unicast 400
          --queries ${WORK_DIR}/queries.txt --metrics-interval 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--metrics-interval without sink exited ${rc}: ${err}")
endif()
if(NOT err MATCHES "needs --metrics-out")
  message(FATAL_ERROR "metrics-interval error message missing: ${err}")
endif()
