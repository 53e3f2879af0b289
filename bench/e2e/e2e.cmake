# Build hook for the end-to-end benchmark.  bench/e2e/run.sh injects it
# with -DCMAKE_PROJECT_adaptml_INCLUDE, so the repo's own build files
# stay untouched.  CMake runs it right after project(adaptml), before
# the top-level CMakeLists sets CMAKE_CXX_STANDARD, hence the explicit
# compile feature; the library names resolve at generate time.
add_executable(adapt_e2e ${CMAKE_CURRENT_LIST_DIR}/adapt_e2e.cpp)
target_compile_features(adapt_e2e PRIVATE cxx_std_20)
target_link_libraries(adapt_e2e PRIVATE adapt_eval adapt_serve)
