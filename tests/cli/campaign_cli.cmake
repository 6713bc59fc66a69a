# End to end through the campaign command-line mains, which the gtest
# suites never run. ctest invokes it as
#
#   cmake -DCAMPAIGN=<vanet_campaign> -DMERGE=<example_campaign_merge>
#         -DSOURCE_DIR=<repo root> -DWORK_DIR=<scratch dir>
#         -P tests/cli/campaign_cli.cmake
#
# and it checks that --csv creates a nested directory, that two shard
# processes merged by campaign_merge write the one-process campaign CSV,
# that a halted and resumed run writes the uninterrupted CSVs, and the
# exit codes of the refused invocations.

foreach(var CAMPAIGN MERGE SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "campaign_cli.cmake needs -D${var}=...")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<expected exit code> <command>...)
function(run expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code STREQUAL expected)
    list(JOIN ARGN " " command)
    message(FATAL_ERROR
            "exit ${code}, expected ${expected}: ${command}\n${out}${err}")
  endif()
endfunction()

function(expect_same_file a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

set(platoon "${SOURCE_DIR}/specs/ablation_platoon_size.json")
set(adaptive "${SOURCE_DIR}/tests/data/table1_adaptive.json")

# --csv=DIR creates DIR with its parents.
set(whole "${WORK_DIR}/a/b/ablation_platoon_size_campaign.csv")
run(0 "${CAMPAIGN}" run "${platoon}" "--csv=${WORK_DIR}/a/b/")
if(NOT EXISTS "${whole}")
  message(FATAL_ERROR "--csv=${WORK_DIR}/a/b/ wrote no ${whole}")
endif()

# Two shard processes, merged: the one-process campaign CSV.
foreach(i 0 1)
  run(0 "${CAMPAIGN}" run "${platoon}" "--shard=${i}/2"
      "--partial-out=${WORK_DIR}/shard${i}.part")
endforeach()
run(0 "${MERGE}" "${WORK_DIR}/shard0.part" "${WORK_DIR}/shard1.part"
    "--csv=${WORK_DIR}/merged.csv")
expect_same_file("${WORK_DIR}/merged.csv" "${whole}")

# Halted after one wave, then resumed: the uninterrupted CSVs.
set(checkpoint "${WORK_DIR}/run.ckpt")
run(0 "${CAMPAIGN}" run "${adaptive}" "--csv=${WORK_DIR}/uninterrupted")
run(0 "${CAMPAIGN}" run "${adaptive}" "--checkpoint=${checkpoint}"
    --halt-after-waves=1)
run(0 "${CAMPAIGN}" run "${adaptive}" "--checkpoint=${checkpoint}" --resume
    "--csv=${WORK_DIR}/resumed")
file(GLOB expected RELATIVE "${WORK_DIR}/uninterrupted"
     "${WORK_DIR}/uninterrupted/*.csv")
file(GLOB actual RELATIVE "${WORK_DIR}/resumed" "${WORK_DIR}/resumed/*.csv")
if(NOT expected OR NOT expected STREQUAL actual)
  message(FATAL_ERROR "resumed CSVs [${actual}] != uninterrupted [${expected}]")
endif()
foreach(name ${expected})
  expect_same_file("${WORK_DIR}/resumed/${name}"
                   "${WORK_DIR}/uninterrupted/${name}")
endforeach()

# Refused: a halt with no checkpoint to keep the work (1), an
# experiment knob on the engine command line (2) and the removed
# streaming backend's flag (2).
run(1 "${CAMPAIGN}" run "${adaptive}" --halt-after-waves=1)
run(2 "${CAMPAIGN}" run "${platoon}" --seed=1)
run(2 "${CAMPAIGN}" run "${platoon}" --streaming)
