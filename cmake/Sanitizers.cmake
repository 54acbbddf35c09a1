# Sanitizer build modes for the correctness tier (see DESIGN.md
# "Correctness & analysis tier").
#
#   cmake -DDFTFE_SANITIZE="address;undefined" ...   ASan + UBSan (the default
#                                                    dynamic-analysis gate)
#   cmake -DDFTFE_SANITIZE=thread ...                TSan race detection
#   cmake -DDFTFE_SANITIZE=leak ...                  standalone LeakSanitizer
#   cmake -DDFTFE_SANITIZE="" ...                    plain build (default)
#
# ThreadSanitizer is mutually exclusive with Address/LeakSanitizer (they
# install conflicting runtimes), which is why the build matrix runs two
# sanitizer configurations instead of one.
#
# Suppression files live in tools/sanitizers/ and are passed at *runtime*
# through ASAN_OPTIONS / UBSAN_OPTIONS / TSAN_OPTIONS / LSAN_OPTIONS; this
# module exports the recommended option strings as DFTFE_<SAN>_OPTIONS cache
# variables, and tests/CMakeLists.txt attaches them to every registered test
# so `ctest` in a sanitizer build picks them up without shell setup.
#
# TSan and threading: the only threads in the project are std::threads —
# the rank engine's brick lanes and the job service's workers. The kernels
# run on the calling thread (tools/lint_invariants.py rule omp-region keeps
# OpenMP parallel regions out of src/; `omp simd` hints start no thread), so
# every happens-before edge TSan needs is one it can see, and the
# concurrency stress suite (tests/test_race.cpp) runs unpinned.

set(DFTFE_SANITIZE "" CACHE STRING
    "Sanitizer set: empty, 'address;undefined', 'thread', or 'leak'")

set(DFTFE_SANITIZER_DIR "${CMAKE_CURRENT_LIST_DIR}/../tools/sanitizers")
get_filename_component(DFTFE_SANITIZER_DIR "${DFTFE_SANITIZER_DIR}" ABSOLUTE)

# Recommended runtime option strings (always defined; empty-sanitizer builds
# simply never consult them). halt_on_error / exitcode make every report fail
# the test that produced it, so "zero reports" is enforced by ctest itself.
set(DFTFE_ASAN_OPTIONS
    "detect_stack_use_after_return=1:strict_string_checks=1:halt_on_error=1:suppressions=${DFTFE_SANITIZER_DIR}/asan.supp"
    CACHE STRING "Runtime ASAN_OPTIONS used for sanitizer test runs")
set(DFTFE_UBSAN_OPTIONS
    "print_stacktrace=1:halt_on_error=1:suppressions=${DFTFE_SANITIZER_DIR}/ubsan.supp"
    CACHE STRING "Runtime UBSAN_OPTIONS used for sanitizer test runs")
set(DFTFE_TSAN_OPTIONS
    "halt_on_error=1:second_deadlock_stack=1:suppressions=${DFTFE_SANITIZER_DIR}/tsan.supp"
    CACHE STRING "Runtime TSAN_OPTIONS used for sanitizer test runs")
set(DFTFE_LSAN_OPTIONS
    "suppressions=${DFTFE_SANITIZER_DIR}/lsan.supp"
    CACHE STRING "Runtime LSAN_OPTIONS used for sanitizer test runs")

if(NOT DFTFE_SANITIZE STREQUAL "")
  set(_dftfe_san_flags "")
  set(_dftfe_has_thread FALSE)
  set(_dftfe_has_addr_or_leak FALSE)

  foreach(_san IN LISTS DFTFE_SANITIZE)
    if(_san STREQUAL "address")
      list(APPEND _dftfe_san_flags "-fsanitize=address")
      set(_dftfe_has_addr_or_leak TRUE)
      add_compile_definitions(DFTFE_SAN_ASAN=1)
    elseif(_san STREQUAL "undefined")
      # Recoverable-by-default checks are made fatal so a UB report can never
      # scroll by in a passing test log.
      list(APPEND _dftfe_san_flags "-fsanitize=undefined"
           "-fno-sanitize-recover=undefined")
      add_compile_definitions(DFTFE_SAN_UBSAN=1)
    elseif(_san STREQUAL "thread")
      list(APPEND _dftfe_san_flags "-fsanitize=thread")
      set(_dftfe_has_thread TRUE)
    elseif(_san STREQUAL "leak")
      list(APPEND _dftfe_san_flags "-fsanitize=leak")
      set(_dftfe_has_addr_or_leak TRUE)
      add_compile_definitions(DFTFE_SAN_LSAN=1)
    else()
      message(FATAL_ERROR
          "DFTFE_SANITIZE: unknown sanitizer '${_san}' "
          "(expected address, undefined, thread, or leak)")
    endif()
  endforeach()

  if(_dftfe_has_thread AND _dftfe_has_addr_or_leak)
    message(FATAL_ERROR
        "DFTFE_SANITIZE: 'thread' cannot be combined with 'address'/'leak' "
        "(conflicting runtimes); build them as separate configurations")
  endif()

  # Frame pointers for readable reports; -O1 floor keeps TSan's ~10x
  # slowdown tolerable in Debug-default configurations without optimizing
  # away the memory accesses the sanitizers watch.
  list(APPEND _dftfe_san_flags "-fno-omit-frame-pointer" "-g")
  add_compile_options(${_dftfe_san_flags})
  add_link_options(${_dftfe_san_flags})

  if(_dftfe_has_thread)
    # Visible to sources as well: src/base/sanitizer_defaults.cpp keys its
    # __tsan_default_options() hook on it (gcc also predefines
    # __SANITIZE_THREAD__; clang does not).
    add_compile_definitions(DFTFE_TSAN=1)
  endif()

  # src/base/sanitizer_defaults.cpp bakes the recommended runtime options —
  # including the suppression file paths above — into every binary via the
  # __asan/__ubsan/__tsan/__lsan_default_options() hooks, so a plain `ctest`
  # in a sanitizer build tree needs no environment setup. Explicitly set
  # *SAN_OPTIONS environment variables still override the baked defaults.
  add_compile_definitions("DFTFE_SANITIZER_SUPP_DIR=\"${DFTFE_SANITIZER_DIR}\"")

  message(STATUS "DFTFE sanitizers enabled: ${DFTFE_SANITIZE}")
  message(STATUS "  suppressions: ${DFTFE_SANITIZER_DIR}")
endif()
