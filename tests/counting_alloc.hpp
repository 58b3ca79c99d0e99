#pragma once
// Counting replacement of the global operator new, for the tests that pin a
// window of warm work at zero heap allocations. A test binary gets it by
// linking tests/counting_alloc.cpp; it reads `g_allocs` before and after the
// window. The replacements live in their own translation unit so the
// compiler never sees a replaced `operator new` inlined beside the
// `operator delete` that frees its memory.

#include <atomic>
#include <cstddef>

/// Calls to any replaced `operator new` since the program started.
extern std::atomic<std::size_t> g_allocs;
