# Fails when any file under SRC_DIR other than common/env.* reads the
# environment (getenv, or the env:: readers of common/env.hpp).
#   cmake -DSRC_DIR=<repo>/src -P check_no_env.cmake
file(GLOB_RECURSE sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp"
     "${SRC_DIR}/*.h" "${SRC_DIR}/*.cc")
set(offenders "")
foreach(f IN LISTS sources)
  if(f MATCHES "/common/env\\.(cpp|hpp)$")
    continue()
  endif()
  file(STRINGS "${f}" hits REGEX "getenv|env::")
  if(hits)
    list(APPEND offenders "${f}: ${hits}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " msg)
  message(FATAL_ERROR "library code reads the environment:\n  ${msg}")
endif()
list(LENGTH sources n)
message(STATUS "${n} files under ${SRC_DIR}: none reads the environment")
