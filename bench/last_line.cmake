# Runs COMMAND (a ;-list) and writes the last line of its standard
# output to OUTPUT; fails when the command exits non-zero.
#
#   cmake -D "COMMAND=prog;arg;..." -D OUTPUT=file -P last_line.cmake
execute_process(COMMAND ${COMMAND} OUTPUT_VARIABLE stdout RESULT_VARIABLE status)
string(STRIP "${stdout}" stdout)
string(REGEX REPLACE "^.*\n" "" last "${stdout}")
file(WRITE ${OUTPUT} "${last}\n")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${status}")
endif()
