# KNNPC_SANITIZE=ON builds the whole tree with AddressSanitizer and
# UndefinedBehaviorSanitizer. This is the correctness harness for perf and
# scaling work: run the tier-1 suite under it before trusting a hot-path
# change. UBSan findings are fatal (-fno-sanitize-recover): a report
# aborts the process, so an undefined-behaviour regression fails its test
# instead of scrolling past in the log.
if(KNNPC_SANITIZE)
  if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    add_compile_options(-fsanitize=address,undefined
                        -fno-sanitize-recover=undefined
                        -fno-omit-frame-pointer)
    add_link_options(-fsanitize=address,undefined
                     -fno-sanitize-recover=undefined)
  else()
    message(WARNING "KNNPC_SANITIZE is only supported with GCC/Clang; ignoring")
  endif()
endif()
