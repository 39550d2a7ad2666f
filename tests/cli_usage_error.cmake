# CTest helper: run PROGRAM with ARGS (a "|"-separated list) and require
# what every CLI here does with a bad flag value: exit status 2 and a
# message on stderr that names FLAG.
#
#   cmake -DPROGRAM=path -DARGS="--world|abc" -DFLAG=--world -P cli_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit ${status}, expected 2\n${err}")
endif()
string(FIND "${err}" "'${FLAG}'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: stderr does not name '${FLAG}':\n${err}")
endif()
