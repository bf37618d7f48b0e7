# Runs `pinscope tables --seed 42` and checks its JSON Lines document.
#
# Golden mode: the document must equal GOLDEN byte for byte. The run's
# document is written to OUT; when a change moves a paper number on purpose,
# copy OUT over GOLDEN and refresh EXPERIMENTS.md from it.
#   cmake -DPINSCOPE=<pinscope> -DSCALE=1.0 -DGOLDEN=<file> -DOUT=<file>
#         -P paper_tables.cmake
#
# Thread mode: the documents at each of THREADS (comma-separated) worker
# counts must be identical.
#   cmake -DPINSCOPE=<pinscope> -DSCALE=0.05 -DTHREADS=1,4 -P paper_tables.cmake
#
# A mismatch fails naming the first differing line, its record, and the
# column where the two lines part.
cmake_minimum_required(VERSION 3.16)

# Runs the command and stores its stdout in `out_var`. An empty `threads`
# leaves the worker count at its default.
function(run_tables out_var threads)
  set(cmd "${PINSCOPE}" tables --seed 42 --scale ${SCALE} --summary=off)
  if(NOT threads STREQUAL "")
    list(APPEND cmd --threads ${threads})
  endif()
  execute_process(COMMAND ${cmd}
    OUTPUT_VARIABLE doc ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${cmd} exited with ${rc}:\n${err}")
  endif()
  set(${out_var} "${doc}" PARENT_SCOPE)
endfunction()

# Splits the first line off `text_var`: the line goes to `line_var`, the
# rest stays in `text_var`.
macro(pop_line text_var line_var)
  string(FIND "${${text_var}}" "\n" _end)
  if(_end EQUAL -1)
    set(${line_var} "${${text_var}}")
    set(${text_var} "")
  else()
    string(SUBSTRING "${${text_var}}" 0 ${_end} ${line_var})
    math(EXPR _end "${_end} + 1")
    string(SUBSTRING "${${text_var}}" ${_end} -1 ${text_var})
  endif()
endmacro()

# Fails unless `actual` equals `expected`; the labels name the two sides.
function(compare_documents expected expected_label actual actual_label)
  if("${expected}" STREQUAL "${actual}")
    return()
  endif()
  set(line 1)
  while(TRUE)
    pop_line(expected e_line)
    pop_line(actual a_line)
    if(NOT "${e_line}" STREQUAL "${a_line}")
      break()
    endif()
    math(EXPR line "${line} + 1")
  endwhile()

  set(record "(none: one document ends here)")
  foreach(side e_line a_line)
    if(record MATCHES "^\\(none" AND
       "${${side}}" MATCHES "^\\{\"record\":\"([a-z0-9_]+)\"")
      set(record "\"${CMAKE_MATCH_1}\"")
    endif()
  endforeach()

  # The longest common prefix, by bisection.
  string(LENGTH "${e_line}" e_len)
  string(LENGTH "${a_line}" a_len)
  set(lo 0)
  set(hi ${e_len})
  if(a_len LESS hi)
    set(hi ${a_len})
  endif()
  while(lo LESS hi)
    math(EXPR mid "(${lo} + ${hi} + 1) / 2")
    string(SUBSTRING "${e_line}" 0 ${mid} e_prefix)
    string(SUBSTRING "${a_line}" 0 ${mid} a_prefix)
    if("${e_prefix}" STREQUAL "${a_prefix}")
      set(lo ${mid})
    else()
      math(EXPR hi "${mid} - 1")
    endif()
  endwhile()
  set(from 0)
  if(lo GREATER 60)
    math(EXPR from "${lo} - 60")
  endif()
  string(SUBSTRING "${e_line}" ${from} 160 e_context)
  string(SUBSTRING "${a_line}" ${from} 160 a_context)
  message(FATAL_ERROR
    "line ${line}, record ${record}, differs from column ${lo}:\n"
    "  ${expected_label}: ...${e_context}\n"
    "  ${actual_label}: ...${a_context}\n")
endfunction()

if(DEFINED GOLDEN)
  run_tables(doc "")
  file(WRITE "${OUT}" "${doc}")
  file(READ "${GOLDEN}" golden)
  compare_documents("${golden}" "golden" "${doc}" "actual")
else()
  string(REPLACE "," ";" threads "${THREADS}")
  list(POP_FRONT threads first)
  run_tables(reference ${first})
  foreach(count IN LISTS threads)
    run_tables(doc ${count})
    compare_documents("${reference}" "--threads ${first}" "${doc}"
                      "--threads ${count}")
  endforeach()
endif()
