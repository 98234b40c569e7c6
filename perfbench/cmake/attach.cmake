# Project-include hook: configure the repository root with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# and perfbench/CMakeLists.txt is included once the root
# CMakeLists.txt has defined every library, so the benchmark links the
# repository's targets built with the repository's own flags. The
# repository's build files stay untouched; run.py drives this.
include_guard(GLOBAL)

get_filename_component(_perfbench_dir "${CMAKE_CURRENT_LIST_DIR}/.."
                       ABSOLUTE)
cmake_language(EVAL CODE "
cmake_language(DEFER DIRECTORY \"${CMAKE_SOURCE_DIR}\"
    CALL include \"${_perfbench_dir}/CMakeLists.txt\")
")
