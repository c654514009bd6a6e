# KNNPC_SANITIZE selects a sanitizer build of the whole tree:
#
#   ON (or "address")  AddressSanitizer + UndefinedBehaviorSanitizer. This
#                      is the correctness harness for perf and scaling
#                      work: run the tier-1 suite under it before trusting
#                      a hot-path change. UBSan findings are fatal
#                      (-fno-sanitize-recover): a report aborts the
#                      process, so an undefined-behaviour regression fails
#                      its test instead of scrolling past in the log.
#   "thread"           ThreadSanitizer: the race checker for the pool-
#                      parallel phases (phase-1 writes, phase-2 dedup, the
#                      fused phase-4 score-and-offer pass). A report makes
#                      the process exit non-zero (TSan's exitcode=66), so a
#                      race fails its test.
#   OFF                no sanitizer.
if(KNNPC_SANITIZE)
  if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    if(KNNPC_SANITIZE STREQUAL "thread")
      add_compile_options(-fsanitize=thread -fno-omit-frame-pointer)
      add_link_options(-fsanitize=thread)
    else()
      add_compile_options(-fsanitize=address,undefined
                          -fno-sanitize-recover=undefined
                          -fno-omit-frame-pointer)
      add_link_options(-fsanitize=address,undefined
                       -fno-sanitize-recover=undefined)
    endif()
  else()
    message(WARNING "KNNPC_SANITIZE is only supported with GCC/Clang; ignoring")
  endif()
endif()
