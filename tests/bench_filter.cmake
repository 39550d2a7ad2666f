# CTest helper: run a minibench PROGRAM with --benchmark_filter=FILTER at
# a short min time and require exit status 0 and exactly the console rows
# named in RUNS (a ","-separated list, in registration order).
#
#   cmake -DPROGRAM=path -DFILTER="A|B" -DRUNS=BM_A,BM_B -P bench_filter.cmake
string(REPLACE "," ";" runs "${RUNS}")
execute_process(COMMAND "${PROGRAM}" "--benchmark_filter=${FILTER}"
                        "--benchmark_min_time=0.01"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 120)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} --benchmark_filter=${FILTER}: exit ${status}\n${err}")
endif()
string(REGEX MATCHALL "\nBM_[^ ]+" rows "${out}")
string(REPLACE "\n" "" rows "${rows}")
if(NOT rows STREQUAL runs)
  message(FATAL_ERROR "--benchmark_filter=${FILTER} ran [${rows}], expected [${runs}]\n${out}")
endif()
