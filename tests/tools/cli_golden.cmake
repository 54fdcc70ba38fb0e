# CTest script: golden-file round trip for one fixture circuit. Runs
#   mqsp_prep --dims <PREP_DIMS> --state <PREP_STATE> [--seed <PREP_SEED>]
#             [--backend <PREP_BACKEND>] --verify --qasm
# and diffs the emitted MQSP-QASM against the committed golden file — this
# pins the MQSP-QASM dialect at the CLI layer. The stderr fidelity report
# must show exact preparation (whatever the evaluation backend), and
# mqsp_sim must replay the golden circuit on the same backend.
#
# Regenerate a golden after an *intentional* dialect change with -DUPDATE=1:
#   cmake -DMQSP_PREP=build/tools/mqsp_prep -DMQSP_SIM=build/tools/mqsp_sim \
#         -DGOLDEN_DIR=tests/tools/golden -DWORK_DIR=/tmp -DCASE_NAME=ghz_362 \
#         -DPREP_DIMS=3,6,2 -DPREP_STATE=ghz -DUPDATE=1 -P cli_golden.cmake

set(golden_file ${GOLDEN_DIR}/${CASE_NAME}.qasm)
set(actual_suffix ${CASE_NAME})
if(DEFINED PREP_THREADS)
  # Thread variants diff against the SAME golden file — the width must
  # not reach synthesis, so the QASM must be byte-identical at any
  # --threads. Only the scratch file name gets a suffix (the t1 and
  # tN tests may run concurrently under ctest -j).
  set(actual_suffix ${CASE_NAME}_t${PREP_THREADS})
endif()
set(actual_file ${WORK_DIR}/golden_actual_${actual_suffix}.qasm)

set(prep_args --dims ${PREP_DIMS} --state ${PREP_STATE})
if(DEFINED PREP_SEED)
  list(APPEND prep_args --seed ${PREP_SEED})
endif()
set(sim_args "")
if(DEFINED PREP_THREADS)
  list(APPEND prep_args --threads ${PREP_THREADS})
  list(APPEND sim_args --threads ${PREP_THREADS})
endif()
if(DEFINED PREP_BACKEND)
  list(APPEND prep_args --backend ${PREP_BACKEND})
  list(APPEND sim_args --backend ${PREP_BACKEND})
  # The stderr report must name the backend that actually ran.
  set(expected_backend_line "backend           : ${PREP_BACKEND}")
endif()

execute_process(
  COMMAND ${MQSP_PREP} ${prep_args} --verify --qasm
  OUTPUT_FILE ${actual_file}
  ERROR_VARIABLE prep_stderr
  RESULT_VARIABLE prep_result)
if(NOT prep_result EQUAL 0)
  message(FATAL_ERROR "mqsp_prep failed (${prep_result}): ${prep_stderr}")
endif()

# Exact synthesis must verify at fidelity 1 (the golden fidelity output).
if(NOT prep_stderr MATCHES "verified fidelity : 1\\.0000000")
  message(FATAL_ERROR "mqsp_prep fidelity not exact for ${CASE_NAME}: ${prep_stderr}")
endif()
if(DEFINED expected_backend_line AND NOT prep_stderr MATCHES "${expected_backend_line}")
  message(FATAL_ERROR
    "mqsp_prep did not run on the ${PREP_BACKEND} backend for ${CASE_NAME}: ${prep_stderr}")
endif()

if(UPDATE)
  file(READ ${actual_file} actual_text)
  file(WRITE ${golden_file} "${actual_text}")
  message(STATUS "updated golden ${golden_file}")
  return()
endif()

if(NOT EXISTS ${golden_file})
  message(FATAL_ERROR "missing golden file ${golden_file}; regenerate with -DUPDATE=1")
endif()

file(READ ${golden_file} golden_text)
file(READ ${actual_file} actual_text)
if(NOT golden_text STREQUAL actual_text)
  message(FATAL_ERROR
    "MQSP-QASM output for ${CASE_NAME} differs from the committed golden.\n"
    "golden: ${golden_file}\nactual: ${actual_file}\n"
    "If the dialect change is intentional, regenerate with -DUPDATE=1 "
    "(see the header of cli_golden.cmake).")
endif()

# The golden circuit must still replay through the simulator (on the same
# backend the fixture targets).
execute_process(
  COMMAND ${MQSP_SIM} --qasm ${golden_file} ${sim_args}
  OUTPUT_VARIABLE sim_stdout
  ERROR_VARIABLE sim_stderr
  RESULT_VARIABLE sim_result)
if(NOT sim_result EQUAL 0)
  message(FATAL_ERROR "mqsp_sim failed on golden ${CASE_NAME} (${sim_result}): ${sim_stderr}")
endif()
if(NOT sim_stdout MATCHES "circuit on")
  message(FATAL_ERROR "mqsp_sim did not report the parsed circuit:\n${sim_stdout}")
endif()

message(STATUS "cli_golden ${CASE_NAME} OK")
