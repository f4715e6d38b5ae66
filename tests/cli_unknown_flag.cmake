# Runs every binary in BINARIES ("|"-separated paths) with an unknown
# flag and fails unless each one names the flag on stderr and exits 1.
#   cmake -DBINARIES="a|b" -P cli_unknown_flag.cmake
string(REPLACE "|" ";" binaries "${BINARIES}")
foreach(binary IN LISTS binaries)
  execute_process(COMMAND "${binary}" --no-such-flag
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "1")
    message(FATAL_ERROR "${binary} --no-such-flag: exit '${status}', want 1")
  endif()
  if(NOT stderr MATCHES "unknown option --no-such-flag")
    message(FATAL_ERROR "${binary} --no-such-flag: stderr '${stderr}' "
                        "does not name the flag")
  endif()
endforeach()
