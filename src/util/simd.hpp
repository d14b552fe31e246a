// Portability layer for the auto-vectorized hot loops.
//
// The project's SIMD strategy is deliberate: hot loops are written as plain
// scalar code over contiguous lane-major arrays, shaped so the compiler's
// auto-vectorizer proves them safe (no loop-carried FP dependence, no
// calls, branchless selects), and these macros only *remove obstacles* --
// aliasing ambiguity and out-of-line calls in per-unit hot paths.  No
// intrinsics, no OpenMP (`#pragma omp simd` would drag in a runtime
// dependency), no per-ISA code paths: the same source compiles on any
// target and merely runs wider where the ISA allows.  Build with
// -fopt-info-vec (GCC) to audit which loops actually vectorize; CMake's
// FECIM_NATIVE_ARCH=ON (default) supplies the host ISA.
//
// Bit-exactness: every loop these annotations touch must remain
// bit-identical when vectorized.  That is guaranteed only because the
// project (a) pins -ffp-contract=off globally (no FMA re-rounding), and
// (b) never asks the vectorizer to reassociate an FP reduction -- lane
// accumulators are independent array elements, and the only reductions
// regrouped by hand sum exact integer-valued doubles, whose association is
// value-free.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
/// Non-aliasing pointer qualifier for kernel-local spans.
#define FECIM_RESTRICT __restrict__
/// Force-inline a hot helper (or lambda, attached after its parameter
/// list) the optimizer would otherwise leave as an out-of-line call --
/// e.g. a sweep body invoked once per (flip, band) unit, where the call
/// plus capture-frame reloads cost more than the duplicated code.
#define FECIM_ALWAYS_INLINE __attribute__((always_inline))
#else
#define FECIM_RESTRICT
#define FECIM_ALWAYS_INLINE
#endif
