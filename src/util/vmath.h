#pragma once

/// \file vmath.h
/// Deterministic vector math for the batched radio pipeline.
///
/// Each kernel (exp, log, log10, log1p, 10^(x/10), 10*log10, erfc, and the
/// Box-Muller sin/cos-2-pi pair) is implemented *once* as a branch-light
/// polynomial/bit-trick element kernel over an abstract SIMD lane
/// (src/util/vmath_kernels.h) and compiled in several bodies: a scalar
/// loop, a baseline SIMD loop (SSE2/NEON, picked at compile time), and on
/// x86-64 an AVX2 loop in its own -mavx2 translation unit selected at
/// runtime via cpuid. Every body executes the identical sequence of
/// IEEE-754 operations per element -- only +, -, *, /, sqrt, compares and
/// bit ops, no FMA contraction (-ffp-contract=off project-wide), no
/// hardware min/max, and polynomials evaluated with a fixed Estrin tree --
/// so scalar and SIMD outputs are **bit-identical** by construction. The
/// scalar element overloads below inline the same kernels, which is what
/// keeps the scalar reference paths of the link model bit-identical to the
/// batched ones.
///
/// Accuracy versus libm (measured by tools/gen_vmath_coeffs.py and
/// re-checked in tests/util/vmath_test.cpp):
///   vexp      <= 2 ulp on [-745, 709.7]; saturates (no inf/0-crossing
///              surprises): below -745 returns ~5e-324, above 709.7 returns
///              exp(709.7) ~ 1.68e308.
///   vlog      <= 3 ulp on (0, inf), denormals included (2^54 pre-scale).
///              vlog(0) returns a finite ~-746.6 instead of -inf; callers
///              floor their inputs (see kLinearFloor).
///   vlog10    <= 3 ulp, same domain handling as vlog.
///   vlog1p    <= 3 ulp on [-0.5, 0.5] (the BER->PER domain); outside that
///              interval the polynomial is NOT valid.
///   vpow10db  relative error <= (0.5|x| + 8) * 2^-53: the |x| term is the
///              inherent rounding of the x*ln10/10 argument product
///              (std::pow(10, x/10) pays the same for rounding x/10).
///   verfc     relative error <= (2x^2 + 8) * 2^-53 for x > 0 (the x^2 term
///              is the rounding of -x*x feeding exp), <= 6e-16 for x <= 0.
///   vsincos2pi <= 2.5e-16 absolute (~1 ulp of a unit-range value); the
///              angle argument is in *turns* (sin/cos of 2*pi*u), so
///              Box-Muller's 2*pi*uniform angle needs no range reduction.
///
/// `VANET_SIMD=off|0|false` (or setSimdEnabled(false)) forces the scalar
/// bodies; because both bodies are bit-identical this must not change any
/// emitted artefact byte (tests/runner/determinism_matrix_test.cpp enforces
/// this on every committed spec).

#include <cstddef>

#include "util/vmath_kernels.h"

namespace vanet::vmath {

/// The one linear-power floor used by every dB conversion in the code base
/// (vlinear2db / linearToDb): 10*log10(1e-15) = -150 dB, far below the
/// -96 dBm sensitivity gate and the deepest fade any statistic resolves.
/// (Historically fading clamped at 1e-12 and the radio environment at
/// 1e-15; this is the single documented survivor.)
inline constexpr double kLinearFloor = 1e-15;

// --- scalar elements (same kernels as the batch bodies, bit-identical;
// --- inline because they sit on per-sample hot paths) ---
inline double vexp(double x) noexcept {
  return detail::expK<detail::ScalarLane>(x);
}
inline double vlog(double x) noexcept {
  return detail::logK<detail::ScalarLane>(x);
}
inline double vlog10(double x) noexcept {
  return detail::log10K<detail::ScalarLane>(x);
}
inline double vlog1p(double x) noexcept {
  return detail::log1pK<detail::ScalarLane>(x);
}
/// 10^(db/10), dB -> linear power
inline double vpow10db(double db) noexcept {
  return detail::pow10dbK<detail::ScalarLane>(db);
}
/// 10*log10(max(mw, kLinearFloor))
inline double vlinear2db(double mw) noexcept {
  return detail::linear2dbK<detail::ScalarLane>(mw);
}
inline double verfc(double x) noexcept {
  return detail::erfcK<detail::ScalarLane>(x);
}
/// sin/cos of 2*pi*turns (turns in [0, 1) reduced exactly; any finite
/// |turns| < 2^51 works).
inline void vsincos2pi(double turns, double& sinOut, double& cosOut) noexcept {
  detail::sincos2piK<detail::ScalarLane>(turns, sinOut, cosOut);
}
/// Box-Muller pair from two uniforms, u1 in (0, 1], u2 in [0, 1):
/// z0 = r*cos(2*pi*u2), z1 = r*sin(2*pi*u2) with r = sqrt(-2*ln(u1)).
/// Mirrors Rng::normal (z0 is the returned variate, z1 the cached one).
inline void vnormalpair(double u1, double u2, double& z0, double& z1) noexcept {
  detail::normalpairK<detail::ScalarLane>(u1, u2, z0, z1);
}

// --- batch bodies (out may alias the input array exactly; partial overlap
// --- is not allowed) ---
void vexp(const double* x, double* out, std::size_t n) noexcept;
void vlog(const double* x, double* out, std::size_t n) noexcept;
void vlog10(const double* x, double* out, std::size_t n) noexcept;
void vlog1p(const double* x, double* out, std::size_t n) noexcept;
void vpow10db(const double* db, double* out, std::size_t n) noexcept;
void vlinear2db(const double* mw, double* out, std::size_t n) noexcept;
void verfc(const double* x, double* out, std::size_t n) noexcept;
/// Batched Box-Muller transform; z0/z1 must not alias u1/u2.
void vnormalpair(const double* u1, const double* u2, double* z0, double* z1,
                 std::size_t n) noexcept;

// --- shared dB <-> linear helpers (the one home for what used to be
// --- per-file dbmToMilliwatt / snrLinear / milliwattToDbm copies) ---
inline double dbToLinear(double db) noexcept { return vpow10db(db); }
inline double linearToDb(double mw) noexcept { return vlinear2db(mw); }
inline void dbToLinear(const double* db, double* out, std::size_t n) noexcept {
  vpow10db(db, out, n);
}
inline void linearToDb(const double* mw, double* out, std::size_t n) noexcept {
  vlinear2db(mw, out, n);
}

// --- runtime SIMD toggle (byte-diff testing hook) ---
/// True unless VANET_SIMD=off|0|false was set at process start or
/// setSimdEnabled(false) was called.
bool simdEnabled() noexcept;
void setSimdEnabled(bool on) noexcept;
/// The SIMD body batch calls dispatch to when the toggle is on: "avx2"
/// (runtime cpuid pick on x86-64), "sse2", "neon" or "scalar".
const char* simdIsa() noexcept;

}  // namespace vanet::vmath
