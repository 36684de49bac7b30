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

# Runs anycastd with ARGN and requires exit 2, never a signal, with a
# diagnostic on stderr matching `pattern`.
function(expect_exit2 label pattern)
  execute_process(COMMAND ${ANYCASTD} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${label}: expected exit 2, got '${rc}': ${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${label}: diagnostic missing '${pattern}': ${err}")
  endif()
endfunction()

execute_process(
  COMMAND ${ANYCASTD} census --out ${WORK_DIR}/c1 --vps 12 --unicast 400
          --metrics-out ${WORK_DIR}/metrics.json --verbose
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "census failed (${rc}): ${out}${err}")
endif()

# --verbose prints the metrics table, every histogram (name, unit, count,
# p50, p99, max), and the span tree.
if(NOT out MATCHES "-- metrics ")
  message(FATAL_ERROR "verbose census missing metrics table: ${out}")
endif()
if(NOT out MATCHES "census_probes_sent")
  message(FATAL_ERROR "verbose table missing census counters: ${out}")
endif()
foreach(histo census_walk_us census_rtt_us)
  if(NOT out MATCHES "${histo} +us +[1-9][0-9]* +[0-9]+ +[0-9]+ +[0-9]+\n")
    message(FATAL_ERROR "verbose table missing histogram ${histo}: ${out}")
  endif()
endforeach()
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
string(FIND "${metrics_json}" "\"latency\": [" latency_at)
string(FIND "${metrics_json}" "\"name\": \"census_rtt_us\"" rtt_at)
if(latency_at EQUAL -1 OR NOT rtt_at GREATER latency_at)
  message(FATAL_ERROR "census_rtt_us missing from the latency section")
endif()

file(GLOB anc_files ${WORK_DIR}/c1/*.anc)
list(LENGTH anc_files anc_count)
if(NOT anc_count EQUAL 12)
  message(FATAL_ERROR "expected 12 census files, got ${anc_count}")
endif()

execute_process(
  COMMAND ${ANYCASTD} analyze --in ${WORK_DIR}/c1
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

# A GeoJSON path that cannot be written fails with a diagnostic and exit
# 1, never a signal. /dev/full is refused before anything is written, so
# the device node is never replaced.
execute_process(
  COMMAND ${ANYCASTD} analyze --in ${WORK_DIR}/c1
          --geojson /dev/full
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "analyze --geojson /dev/full did not exit 1 (${rc})")
endif()
if(NOT err MATCHES "failed writing GeoJSON to /dev/full")
  message(FATAL_ERROR "analyze --geojson /dev/full diagnostic missing: ${err}")
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
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1
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

# c1 records its world in c1/census.manifest, so the readers take no
# world flags: a recorded flag exits 2 and names the manifest (resume
# included), where a wrong --vps used to be accepted or re-derived.
foreach(verb analyze serve report resume)
  set(args ${verb} --in ${WORK_DIR}/c1)
  if(verb STREQUAL "serve")
    list(APPEND args --queries ${WORK_DIR}/queries.txt)
  elseif(verb STREQUAL "resume")
    set(args resume --out ${WORK_DIR}/c1)
  endif()
  expect_exit2("${verb} --vps 4"
               "--vps is recorded in ${WORK_DIR}/c1/census.manifest"
               ${args} --vps 4)
endforeach()

# A damaged census directory exits 2 with a diagnostic on every reader:
# no manifest, a manifest with one changed byte, a truncated manifest,
# and a checkpoint whose header names another VP than its file name.
file(READ ${WORK_DIR}/c1/census.manifest manifest_text)
string(REPLACE "vps=12" "vps=13" flipped_manifest "${manifest_text}")
string(SUBSTRING "${manifest_text}" 0 100 truncated_manifest)
foreach(damage missing flipped truncated mislabelled)
  set(d ${WORK_DIR}/c_${damage})
  file(REMOVE_RECURSE ${d})
  file(COPY ${WORK_DIR}/c1/ DESTINATION ${d})
  if(damage STREQUAL "missing")
    file(REMOVE ${d}/census.manifest)
    set(pattern "refusing ${d}/census.manifest: cannot read it")
  elseif(damage STREQUAL "flipped")
    file(WRITE ${d}/census.manifest "${flipped_manifest}")
    set(pattern "refusing ${d}/census.manifest: crc mismatch")
  elseif(damage STREQUAL "truncated")
    file(WRITE ${d}/census.manifest "${truncated_manifest}")
    set(pattern "refusing ${d}/census.manifest: truncated manifest")
  else()
    execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${d}/census1_vp2.anc
                            ${d}/census1_vp3.anc)
    set(pattern "refusing ${d}/census1_vp3.anc: it holds VP 2 of census 1")
  endif()
  expect_exit2("analyze (${damage})" "${pattern}" analyze --in ${d})
  expect_exit2("serve (${damage})" "${pattern}" serve --in ${d}
               --queries ${WORK_DIR}/queries.txt)
  expect_exit2("report (${damage})" "${pattern}" report --in ${d})
  expect_exit2("resume (${damage})" "${pattern}" resume --out ${d})
endforeach()

# A census of another world is refused as serve's --against baseline, and
# a fresh census into a directory that records another census exits 2
# instead of mixing the two.
execute_process(
  COMMAND ${ANYCASTD} census --out ${WORK_DIR}/c_seed7 --vps 12 --unicast 400
          --seed 7
  RESULT_VARIABLE rc OUTPUT_VARIABLE seed7_out ERROR_VARIABLE seed7_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "seed-7 census failed (${rc}): ${seed7_out}${seed7_err}")
endif()
expect_exit2("serve --against another world"
             "refusing --against ${WORK_DIR}/c_seed7"
             serve --in ${WORK_DIR}/c1 --against ${WORK_DIR}/c_seed7
             --queries ${WORK_DIR}/queries.txt)
expect_exit2("census into another census's directory"
             "c1/census.manifest records another census \\(census-id is 1"
             census --out ${WORK_DIR}/c1 --vps 12 --unicast 400
             --census-id 2)

# Numeric flags must parse whole and in range: each bad value exits 2 and
# is named, before any probing (no directory appears).
foreach(bad "--vps;-3" "--vps;abc" "--vps;12x" "--vps;0" "--rate;nan"
        "--availability;nan" "--unicast;-1")
  string(REPLACE ";" " " bad_text "${bad}")
  expect_exit2("census ${bad_text}" "bad flag value: ${bad_text}"
               census --out ${WORK_DIR}/c_badflag ${bad})
  if(EXISTS ${WORK_DIR}/c_badflag)
    message(FATAL_ERROR "census ${bad_text} created its directory")
  endif()
endforeach()
expect_exit2("analyze --top -1" "bad flag value: --top -1"
             analyze --in ${WORK_DIR}/c1 --top -1)

# The same answers must be byte-identical on a second run.
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1
          --queries ${WORK_DIR}/queries.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out2 ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out STREQUAL out2)
  message(FATAL_ERROR "serve answers are not deterministic")
endif()

# A malformed query batch is refused atomically: rc 2, the offending
# line named, and NO answers emitted for the lines before it.
file(WRITE ${WORK_DIR}/bad_queries.txt "point 0\nbogus 12 13\n")
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1
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
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1
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
# another; resume, which takes its world and chaos flags from the
# manifest, must reuse every complete checkpoint, re-run the rest, and
# rewrite both damaged files byte for byte.
file(MAKE_DIRECTORY ${WORK_DIR}/c2_orig)
file(COPY ${WORK_DIR}/c2/census1_vp3.anc ${WORK_DIR}/c2/census1_vp5.anc
     DESTINATION ${WORK_DIR}/c2_orig)
file(WRITE ${WORK_DIR}/c2/census1_vp3.anc "not a census file")
file(REMOVE ${WORK_DIR}/c2/census1_vp5.anc)

execute_process(
  COMMAND ${ANYCASTD} resume --out ${WORK_DIR}/c2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume failed (${rc}): ${out}${err}")
endif()
# Re-run: VPs 2, 5 and 11, whose walks crashed (incomplete checkpoints
# re-run on every resume), and the damaged VP 3.
if(NOT out MATCHES "resume: 8 checkpoints reused, 4 VPs re-run")
  message(FATAL_ERROR "resume did not re-run exactly VPs 2, 3, 5 and 11: "
                      "${out}")
endif()
foreach(vp 3 5)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/c2_orig/census1_vp${vp}.anc
            ${WORK_DIR}/c2/census1_vp${vp}.anc
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "resume rewrote census1_vp${vp}.anc differently")
  endif()
endforeach()

execute_process(
  COMMAND ${ANYCASTD} analyze --in ${WORK_DIR}/c2
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
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c2
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
file(COPY ${c1_files} ${WORK_DIR}/c1/census.manifest
     DESTINATION ${WORK_DIR}/c_bad)
file(WRITE ${WORK_DIR}/c_bad/census1_vp4.anc "garbage, not a census file")
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c_bad
          --queries ${WORK_DIR}/queries.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "serve accepted a checksum-failing snapshot")
endif()
if(NOT err MATCHES "failed checksum validation")
  message(FATAL_ERROR "serve refusal message missing: ${err}")
endif()
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c_bad
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

# A journal whose device fills fails its commit barrier: the census still
# finishes, then exits 1 and names the journal.
file(CREATE_LINK /dev/full ${WORK_DIR}/full.jsonl SYMBOLIC RESULT link_rc)
if(link_rc EQUAL 0)
  execute_process(
    COMMAND ${ANYCASTD} census --out ${WORK_DIR}/d_full --vps 2 --unicast 50
            --journal-out ${WORK_DIR}/full.jsonl
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "census with a full journal device did not exit 1 "
                        "(${rc}): ${err}")
  endif()
  if(NOT err MATCHES "failed writing journal to")
    message(FATAL_ERROR "full journal device diagnostic missing: ${err}")
  endif()
endif()

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
  COMMAND ${ANYCASTD} report --in ${WORK_DIR}/d1
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

# Resume with no census manifest on disk must refuse with a clear
# one-line error and exit 2, instead of silently running a fresh census.
expect_exit2("resume with nothing to resume"
             "resume: refusing ${WORK_DIR}/never_ran/census.manifest: cannot read it"
             resume --out ${WORK_DIR}/never_ran)

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
            --metrics-out ${WORK_DIR}/w${threads}_metrics.json
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
  # Watch rounds are fresh collations, not combine_min derivations: both
  # incremental rounds take dirty_rows' full-scan path, and the scrape
  # says so through the two timing counters.
  file(READ ${WORK_DIR}/w${threads}_metrics.json watch_metrics)
  set(counter_prefix "\"kind\": \"counter\", \"class\": \"timing\", \"value\":")
  if(NOT watch_metrics MATCHES
         "\"analysis_dirty_rows_scanned\", ${counter_prefix} 2,"
     OR NOT watch_metrics MATCHES
         "\"analysis_dirty_rows_derived\", ${counter_prefix} 0,")
    message(FATAL_ERROR "watch --metrics-out missing the dirty_rows path "
            "counters: ${watch_metrics}")
  endif()
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

# A watch directory has no census manifest: analyze refuses it rather
# than collating all its rounds as one census.
expect_exit2("analyze of a watch directory"
             "refusing ${WORK_DIR}/w2/census.manifest: cannot read it"
             analyze --in ${WORK_DIR}/w2)

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
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1
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
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1
          --queries ${WORK_DIR}/queries.txt --slo "p99_bogus=1"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bad --slo spec exited ${rc}, want 2: ${err}")
endif()
if(NOT err MATCHES "bad --slo spec")
  message(FATAL_ERROR "bad --slo error message missing: ${err}")
endif()

# A non-finite SLO value is a bad spec, not an objective NaN slips past.
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1
          --queries ${WORK_DIR}/queries.txt
          --slo "p99_query_us=nan,availability=nan"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--slo nan values exited ${rc}, want 2: ${err}")
endif()
if(NOT err MATCHES "bad --slo spec")
  message(FATAL_ERROR "--slo nan error message missing: ${err}")
endif()

# The retired `parse` stage is refused, and the error names the stages.
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1
          --queries ${WORK_DIR}/queries.txt --slo "p99_parse_us=5"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--slo p99_parse_us exited ${rc}, want 2: ${err}")
endif()
if(NOT err MATCHES "want lookup\\|nearest\\|diff\\|query")
  message(FATAL_ERROR "--slo stage error does not list the stages: ${err}")
endif()

# A non-finite or hex coordinate is a malformed query, not a distance.
foreach(coord nan inf 0x10)
  file(WRITE ${WORK_DIR}/coord_queries.txt "nearest 2 ${coord} 0\n")
  execute_process(
    COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1
            --queries ${WORK_DIR}/coord_queries.txt
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "nearest with coordinate ${coord} exited ${rc}, "
                        "want 2: ${out}${err}")
  endif()
  if(NOT err MATCHES "serve: bad query at line 1: bad coordinate")
    message(FATAL_ERROR "nearest ${coord}: bad coordinate error missing: "
                        "${err}")
  endif()
endforeach()

# --metrics-interval without a --metrics-out sink is refused.
execute_process(
  COMMAND ${ANYCASTD} serve --in ${WORK_DIR}/c1
          --queries ${WORK_DIR}/queries.txt --metrics-interval 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--metrics-interval without sink exited ${rc}: ${err}")
endif()
if(NOT err MATCHES "needs --metrics-out")
  message(FATAL_ERROR "metrics-interval error message missing: ${err}")
endif()
