// hypart — canonical nested-loop workloads.
//
// The loops the paper builds its examples and evaluation on, plus the
// kernels its introduction motivates (loops whose dependence lattice has
// determinant 1, which independent-partitioning methods serialize).
// Every factory returns a LoopNest whose dependence analysis reproduces
// the paper's dependence sets.
#pragma once

#include <cstdint>

#include "loop/loop_nest.hpp"

namespace hypart {
namespace workloads {

/// The paper's loop (L1) on a (size+1) x (size+1) domain:
///   S1: A[i+1,j+1] := A[i+1,j] + B[i,j];
///   S2: B[i+1,j]   := A[i,j] * 2 + C;
/// D = {(0,1), (1,1), (1,0)}.
LoopNest example_l1(std::int64_t size = 3);

/// Matrix multiplication (L2), n x n x n:
///   C[i,j] := C[i,j] + A[i,k]*B[k,j];
/// D = {(0,1,0) via A, (1,0,0) via B, (0,0,1) via C} (Example 2).
LoopNest matrix_multiplication(std::int64_t n = 3);

/// Matrix-vector multiplication (L4), M x M:
///   y[i] := y[i] + A[i,j]*x[j];
/// D = {(1,0) via x, (0,1) via y} (Section IV).
LoopNest matrix_vector(std::int64_t m);

/// The paper's hand-rewritten single-assignment matmul (L3): explicit
/// pipelining arrays Ap/Bp/Cp indexed by the full iteration vector, so
/// every dependence is a direct flow dependence — must yield the same D
/// as the natural form.
LoopNest matrix_multiplication_rewritten(std::int64_t n = 3);

/// The paper's rewritten matvec (L5): xp[i,j] := xp[i-1,j];
/// yp[i,j] := yp[i,j-1] + A[i,j]*xp[i,j].  Same D as matrix_vector.
LoopNest matrix_vector_rewritten(std::int64_t m);

/// 1-D convolution y[i] = sum_j h[j]*x[i-j] on an n x k domain;
/// D = {(0,1) via y, (1,1) via x, (1,0) via h} — same structure as L1.
LoopNest convolution1d(std::int64_t n, std::int64_t k);

/// Uniformized transitive closure (Guibas-Kung-Thompson style 3-nest with
/// the matmul dependence structure); D = {(0,1,0), (1,0,0), (0,0,1)}.
LoopNest transitive_closure(std::int64_t n);

/// Gauss-Seidel / SOR 2-D sweep: A[i,j] := f(A[i-1,j], A[i,j-1]);
/// D = {(1,0), (0,1)}.
LoopNest sor2d(std::int64_t rows, std::int64_t cols);

/// 3-D wavefront stencil: A[i,j,k] := f(A[i-1,j,k], A[i,j-1,k], A[i,j,k-1]);
/// D = {(1,0,0), (0,1,0), (0,0,1)}.
LoopNest wavefront3d(std::int64_t n);

/// wavefront3d after skewing the middle loop by the outer one (the
/// unimodular map (i,j,k) -> (i, i+j, k)): t runs from i+1 to i+n, so the
/// iteration domain is a sheared prism whose t-bounds are affine in i —
/// the symbolic path must slab-decompose it.  Same body, dependences
/// transformed to D = {(1,1,0), (0,1,0), (0,0,1)}.
LoopNest skewed_wavefront3d(std::int64_t n);

/// A 2-nest with D = {(stride,0), (0,stride)}: the dependence lattice has
/// stride^2 residue classes, so the independent-partitioning baseline
/// genuinely parallelizes it — the regime where the paper concedes those
/// methods work well.
LoopNest strided_recurrence(std::int64_t size, std::int64_t stride);

/// 2-D convolution (image filtering), a 4-deep nest:
///   y[i,j] := y[i,j] + h[k,l] * x[i-k, j-l];
/// Six constant dependences spanning all four dimensions — under
/// Π = (1,1,1,1) the projected structure is 3-dimensional with β = 3, so
/// Algorithm 1 needs a grouping vector plus TWO auxiliary vectors (the
/// highest-rank regime the paper's construction supports for n = 4).
LoopNest convolution2d(std::int64_t n, std::int64_t k);

/// Lower-triangular matrix-vector product (triangular iteration domain,
/// j < i — exercises Algorithm 1 on a non-rectangular index set):
///   y[i] := y[i] + L[i,j] * b[j];
/// D = {(1,0) via the b[j] reuse, (0,1) via the y[i] reduction}.
/// (True forward substitution reads x[j] written at iteration (j,*) — a
/// NON-uniform dependence outside the paper's model; analyze_dependences
/// correctly rejects that form.)
LoopNest triangular_matvec(std::int64_t n);

/// Uniformized LU-decomposition update sweep (no pivoting), a 3-deep nest
/// over the shrinking trailing submatrices: k = 0..n, i = k+1..n,
/// j = k+1..n (affine triangular bounds — the symbolic path must
/// slab-decompose the prism).  Pipelined multiplier/pivot-row arrays make
/// every dependence uniform: D = {(0,1,0) via L, (0,0,1) via U, (1,0,0)
/// via the trailing update}.
LoopNest lu_decomposition(std::int64_t n);

/// Banded Floyd-Warshall-style relaxation restricted to |i - j| <= band:
///   A[i,j] := f(A[i-1,j], A[i,j-1], A[i-1,j-1]);
/// the inner bounds are disjunctive — max(0, i-band) <= j <= min(n, i+band)
/// — so the iteration space is a diagonal band through the square.
/// D = {(1,0), (0,1), (1,1)}.
LoopNest floyd_warshall_band(std::int64_t n, std::int64_t band);

/// Pyramid ("tent") stencil: 0 <= j <= min(i, n-i) — the inner extent grows
/// to the midpoint and shrinks back, a genuinely disjunctive upper bound.
///   A[i,j] := f(A[i-1,j], A[i,j-1]);  D = {(1,0), (0,1)}.
LoopNest pyramid_stencil(std::int64_t n);

/// 3-D strided recurrence D = {(s,0,0), (0,s,0), (0,0,s)}: the 3-D analog
/// of strided_recurrence — the projection lines split into s² cosets of
/// the group lattice (the dense region growing's multi-seed coverage).
LoopNest strided_recurrence3d(std::int64_t n, std::int64_t stride);

/// Discrete Fourier transform in Horner form (the paper's Section I lists
/// the DFT among the kernels independent partitioning serializes):
///   for k = 0..n-1: for t = 0..n-1:  F[k] := F[k]*w[k] + x[n-1-t];
/// D = {(0,1) via F (and the w[k] reuse), (1,0) via the x reuse} — the same
/// dependence structure as matrix-vector multiplication.
LoopNest dft_horner(std::int64_t n);

}  // namespace workloads
}  // namespace hypart
