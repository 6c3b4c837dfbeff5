# Runs one bench and compares its stdout byte for byte with a golden file.
#
#   cmake -DBENCH=<executable> "-DARGS=<flags>" -DGOLDEN=<file>
#         -P golden_check.cmake
#
# With TLB_UPDATE_GOLDEN set in the environment it rewrites the golden file
# instead. On a mismatch the actual output is left in the working directory
# as <golden name>.actual for diffing.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${status}")
endif()

if(DEFINED ENV{TLB_UPDATE_GOLDEN})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR
    "stdout of ${BENCH} ${ARGS} differs from ${GOLDEN}; see ${name}.actual "
    "or regenerate with TLB_UPDATE_GOLDEN=1")
endif()
