# Reruns cache_sweep, ingest_sweep and obs_certify with --out into
# OUT_DIR and fails unless each file matches its committed artifact in
# REPO_DIR byte for byte. The sweeps count page accesses and print the
# same bytes in every build type, so a mismatch means a pool decision or
# a sweep number moved. Run by the sweep_artifacts_test ctest:
#
#   cmake -DCACHE_SWEEP=<exe> -DINGEST_SWEEP=<exe> -DOBS_CERTIFY=<exe>
#         -DOUT_DIR=<dir> -DREPO_DIR=<repo root> -P bench/check_sweeps.cmake
set(sweeps "${CACHE_SWEEP}" "${INGEST_SWEEP}" "${OBS_CERTIFY}")
set(artifacts BENCH_cache.json BENCH_ingest.json BENCH_obs.json)
foreach(i RANGE 2)
  list(GET sweeps ${i} sweep)
  list(GET artifacts ${i} artifact)
  get_filename_component(name "${sweep}" NAME_WE)
  set(out "${OUT_DIR}/${name}.json")
  execute_process(COMMAND "${sweep}" "--out=${out}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited with ${rc}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${out}"
                          "${REPO_DIR}/${artifact}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${out} differs from ${artifact}: regenerate the "
                        "artifact with the change that moved it")
  endif()
  message(STATUS "${name}: byte-identical to ${artifact}")
endforeach()
