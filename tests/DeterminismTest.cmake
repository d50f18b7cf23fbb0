# Runs a command twice — threads=1 and threads=8 — and fails unless the
# stdout tables are byte-identical. This is the runner's determinism
# contract, enforced on the real pcbound binary by ctest.
#
# Usage: cmake -DBENCH=<path> -DARGS=<;-separated args> -P DeterminismTest.cmake

separate_arguments(BENCH_ARGS UNIX_COMMAND "${ARGS}")

execute_process(COMMAND ${BENCH} ${BENCH_ARGS} threads=1 progress=0
                OUTPUT_VARIABLE SerialOut RESULT_VARIABLE SerialCode)
if(NOT SerialCode EQUAL 0)
  message(FATAL_ERROR "${BENCH} threads=1 exited with ${SerialCode}")
endif()

execute_process(COMMAND ${BENCH} ${BENCH_ARGS} threads=8 progress=0
                OUTPUT_VARIABLE ParallelOut RESULT_VARIABLE ParallelCode)
if(NOT ParallelCode EQUAL 0)
  message(FATAL_ERROR "${BENCH} threads=8 exited with ${ParallelCode}")
endif()

if(NOT SerialOut STREQUAL ParallelOut)
  message(FATAL_ERROR "${BENCH}: threads=1 and threads=8 tables differ")
endif()
