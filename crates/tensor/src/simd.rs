//! SIMD backend selection and explicit-ISA matmul microkernels.
//!
//! Decode-time matvecs (`m ∈ 1..8`) are latency-bound on the scalar
//! kernels, so this module provides explicit `std::arch` paths: AVX2+FMA
//! on x86-64, NEON on aarch64, with the scalar kernels in
//! [`crate::kernels`] as the cross-platform reference. The backend is
//! selected **exactly once** at startup — same discipline as
//! [`crate::pool::set_max_threads`] — from the `SPECINFER_SIMD`
//! environment variable (`scalar` / `avx2` / `neon` / `native`) falling
//! back to runtime CPU feature detection. No per-call feature probing.
//!
//! # Determinism contract
//!
//! Bitwise equality **between** backends is not promised: FMA contracts
//! the multiply–add into a single rounding, so AVX2/NEON results differ
//! from the scalar reference in the last bits. What every backend *does*
//! promise is bitwise determinism across runs and thread counts:
//!
//! * Column-vectorised kernels (`nn`, packed panels) keep one ascending-`k`
//!   chain per output element — lanes are independent output columns, so
//!   vector width never reorders a reduction.
//! * Dot-product kernels (`nt`) split each reduction into a *fixed* number
//!   of per-lane ascending-`k` chains (lane `l` accumulates elements
//!   `l, l+W, l+2W, …`), combine them with a deterministic pairwise
//!   lane-reduction tree, then fold the `k % W` tail in ascending order.
//!   The lane count and tree shape depend only on the ISA, never on the
//!   thread count or partition, so results are reproducible.
//! * Scalar tails inside the SIMD kernels use `f32::mul_add` (fused, one
//!   rounding) so an element computed in a tail is bitwise identical to
//!   the same element computed in a vector lane.

use std::sync::OnceLock;

/// The instruction-set backend the matmul kernels dispatch to.
///
/// Selected once per process by [`backend`]; see the module docs for the
/// determinism contract each variant upholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdBackend {
    /// Portable scalar kernels — the cross-platform bitwise reference.
    Scalar,
    /// AVX2 + FMA kernels (x86-64).
    Avx2Fma,
    /// NEON kernels (aarch64).
    Neon,
}

impl SimdBackend {
    /// Stable lowercase name, used in benchmark reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2Fma => "avx2_fma",
            SimdBackend::Neon => "neon",
        }
    }
}

/// The backend chosen at startup, latched on first use.
static BACKEND: OnceLock<SimdBackend> = OnceLock::new();

/// The process-wide SIMD backend.
///
/// First call reads `SPECINFER_SIMD` (`scalar` forces the reference
/// kernels; `avx2` / `neon` force an ISA *if the CPU supports it*, else
/// fall back to scalar; anything else — including `native` or unset —
/// picks the best detected ISA) and latches the answer for the lifetime
/// of the process.
pub fn backend() -> SimdBackend {
    *BACKEND.get_or_init(select_backend)
}

fn select_backend() -> SimdBackend {
    match std::env::var("SPECINFER_SIMD").as_deref() {
        Ok("scalar") => SimdBackend::Scalar,
        Ok("avx2") => {
            if avx2_available() {
                SimdBackend::Avx2Fma
            } else {
                SimdBackend::Scalar
            }
        }
        Ok("neon") => {
            if neon_available() {
                SimdBackend::Neon
            } else {
                SimdBackend::Scalar
            }
        }
        _ => native_backend(),
    }
}

/// The best backend the current CPU supports.
fn native_backend() -> SimdBackend {
    if avx2_available() {
        SimdBackend::Avx2Fma
    } else if neon_available() {
        SimdBackend::Neon
    } else {
        SimdBackend::Scalar
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// NEON is baseline on aarch64, absent elsewhere.
fn neon_available() -> bool {
    cfg!(target_arch = "aarch64")
}

/// Every backend runnable on this machine, scalar first. Test batteries
/// iterate this to exercise each backend explicitly regardless of which
/// one [`backend`] latched.
pub fn available_backends() -> Vec<SimdBackend> {
    let mut v = vec![SimdBackend::Scalar];
    if avx2_available() {
        v.push(SimdBackend::Avx2Fma);
    }
    if neon_available() {
        v.push(SimdBackend::Neon);
    }
    v
}

/// CPU features relevant to kernel selection that the host reports,
/// recorded into benchmark reports so numbers are attributable.
pub fn detected_features() -> Vec<&'static str> {
    let mut v = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            v.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            v.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            v.push("avx512f");
        }
    }
    if neon_available() {
        v.push("neon");
    }
    v
}

/// AVX2+FMA kernels. Lane width 8; per-element reduction order is fixed
/// by the schemes in the module docs, independent of threading.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use core::arch::x86_64::{
        __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// Folds the eight lane partials with a fixed pairwise tree:
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. The tree shape is a
    /// constant of the backend, which is what makes `nt` reductions
    /// reproducible across runs and partitions.
    // SAFETY: backend selection guarantees AVX2+FMA; the store
    // targets a local 8-float array.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lane_tree(v: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    }

    /// AVX2 `nn_rows`: `out[r, :] = A[i0+r, :] × B` for each row of the
    /// chunk. Four-row × 16-column register tile; every output element
    /// is one fused ascending-`k` chain (vector lanes are independent
    /// columns), tails use `f32::mul_add` for the same single rounding.
    // SAFETY: backend selection guarantees AVX2+FMA; the debug-asserted
    // shape contract keeps every raw load/store below in bounds.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn nn_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
        let rows = out.len() / n;
        debug_assert!(a.len() >= (i0 + rows) * k, "A covers the row chunk");
        debug_assert_eq!(b.len(), k * n, "B must be k×n");
        debug_assert_eq!(out.len(), rows * n, "out chunk must be whole rows");
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut r = 0;
        while r + 4 <= rows {
            let a0 = a.as_ptr().add((i0 + r) * k);
            let a1 = a.as_ptr().add((i0 + r + 1) * k);
            let a2 = a.as_ptr().add((i0 + r + 2) * k);
            let a3 = a.as_ptr().add((i0 + r + 3) * k);
            let mut j = 0;
            while j + 16 <= n {
                let mut c00 = _mm256_setzero_ps();
                let mut c01 = _mm256_setzero_ps();
                let mut c10 = _mm256_setzero_ps();
                let mut c11 = _mm256_setzero_ps();
                let mut c20 = _mm256_setzero_ps();
                let mut c21 = _mm256_setzero_ps();
                let mut c30 = _mm256_setzero_ps();
                let mut c31 = _mm256_setzero_ps();
                for kk in 0..k {
                    let bq = bp.add(kk * n + j);
                    let b0 = _mm256_loadu_ps(bq);
                    let b1 = _mm256_loadu_ps(bq.add(8));
                    let v0 = _mm256_set1_ps(*a0.add(kk));
                    c00 = _mm256_fmadd_ps(v0, b0, c00);
                    c01 = _mm256_fmadd_ps(v0, b1, c01);
                    let v1 = _mm256_set1_ps(*a1.add(kk));
                    c10 = _mm256_fmadd_ps(v1, b0, c10);
                    c11 = _mm256_fmadd_ps(v1, b1, c11);
                    let v2 = _mm256_set1_ps(*a2.add(kk));
                    c20 = _mm256_fmadd_ps(v2, b0, c20);
                    c21 = _mm256_fmadd_ps(v2, b1, c21);
                    let v3 = _mm256_set1_ps(*a3.add(kk));
                    c30 = _mm256_fmadd_ps(v3, b0, c30);
                    c31 = _mm256_fmadd_ps(v3, b1, c31);
                }
                _mm256_storeu_ps(op.add(r * n + j), c00);
                _mm256_storeu_ps(op.add(r * n + j + 8), c01);
                _mm256_storeu_ps(op.add((r + 1) * n + j), c10);
                _mm256_storeu_ps(op.add((r + 1) * n + j + 8), c11);
                _mm256_storeu_ps(op.add((r + 2) * n + j), c20);
                _mm256_storeu_ps(op.add((r + 2) * n + j + 8), c21);
                _mm256_storeu_ps(op.add((r + 3) * n + j), c30);
                _mm256_storeu_ps(op.add((r + 3) * n + j + 8), c31);
                j += 16;
            }
            while j + 8 <= n {
                let mut c0 = _mm256_setzero_ps();
                let mut c1 = _mm256_setzero_ps();
                let mut c2 = _mm256_setzero_ps();
                let mut c3 = _mm256_setzero_ps();
                for kk in 0..k {
                    let b0 = _mm256_loadu_ps(bp.add(kk * n + j));
                    c0 = _mm256_fmadd_ps(_mm256_set1_ps(*a0.add(kk)), b0, c0);
                    c1 = _mm256_fmadd_ps(_mm256_set1_ps(*a1.add(kk)), b0, c1);
                    c2 = _mm256_fmadd_ps(_mm256_set1_ps(*a2.add(kk)), b0, c2);
                    c3 = _mm256_fmadd_ps(_mm256_set1_ps(*a3.add(kk)), b0, c3);
                }
                _mm256_storeu_ps(op.add(r * n + j), c0);
                _mm256_storeu_ps(op.add((r + 1) * n + j), c1);
                _mm256_storeu_ps(op.add((r + 2) * n + j), c2);
                _mm256_storeu_ps(op.add((r + 3) * n + j), c3);
                j += 8;
            }
            while j < n {
                for (dr, ap) in [a0, a1, a2, a3].into_iter().enumerate() {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc = (*ap.add(kk)).mul_add(*bp.add(kk * n + j), acc);
                    }
                    *op.add((r + dr) * n + j) = acc;
                }
                j += 1;
            }
            r += 4;
        }
        while r < rows {
            let a_row = &a[(i0 + r) * k..(i0 + r + 1) * k];
            nn_cols(a_row, b, &mut out[r * n..(r + 1) * n], 0, k, n);
            r += 1;
        }
    }

    /// AVX2 single-output-row column sweep: `out = a × B[:, j0..j0+w]`.
    /// 32-column blocks (four accumulator registers) so the broadcast of
    /// `a[kk]` amortises over four FMAs; each column keeps its own fused
    /// ascending-`k` chain, so chunk boundaries are bitwise-inert.
    // SAFETY: backend selection guarantees AVX2+FMA; the debug-asserted
    // shape contract keeps every raw load/store below in bounds.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn nn_cols(a: &[f32], b: &[f32], out: &mut [f32], j0: usize, k: usize, n: usize) {
        let w = out.len();
        debug_assert!(a.len() >= k, "a must hold a full row");
        debug_assert!(j0 + w <= n, "column range inside B");
        debug_assert_eq!(b.len(), k * n, "B must be k×n");
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j + 32 <= w {
            let mut c0 = _mm256_setzero_ps();
            let mut c1 = _mm256_setzero_ps();
            let mut c2 = _mm256_setzero_ps();
            let mut c3 = _mm256_setzero_ps();
            for kk in 0..k {
                let v = _mm256_set1_ps(*ap.add(kk));
                let bq = bp.add(kk * n + j0 + j);
                c0 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq), c0);
                c1 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq.add(8)), c1);
                c2 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq.add(16)), c2);
                c3 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq.add(24)), c3);
            }
            _mm256_storeu_ps(op.add(j), c0);
            _mm256_storeu_ps(op.add(j + 8), c1);
            _mm256_storeu_ps(op.add(j + 16), c2);
            _mm256_storeu_ps(op.add(j + 24), c3);
            j += 32;
        }
        while j + 8 <= w {
            let mut c0 = _mm256_setzero_ps();
            for kk in 0..k {
                let v = _mm256_set1_ps(*ap.add(kk));
                c0 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bp.add(kk * n + j0 + j)), c0);
            }
            _mm256_storeu_ps(op.add(j), c0);
            j += 8;
        }
        while j < w {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = (*ap.add(kk)).mul_add(*bp.add(kk * n + j0 + j), acc);
            }
            *op.add(j) = acc;
            j += 1;
        }
    }

    /// AVX2 `nt_rows`: `out[r, :] = A[i0+r, :] × Bᵀ` (`b` stored
    /// `[n, k]`). Four output columns at a time, each reduced as eight
    /// fixed ascending-`k` lanes (lane `l` holds elements `l, l+8, …`)
    /// folded by [`lane_tree`], then a fused ascending tail — the
    /// reduction order depends only on `k`, never on the partition.
    // SAFETY: backend selection guarantees AVX2+FMA; the debug-asserted
    // shape contract keeps every raw load/store below in bounds.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn nt_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
        let rows = out.len() / n;
        debug_assert!(a.len() >= (i0 + rows) * k, "A covers the row chunk");
        debug_assert_eq!(b.len(), n * k, "B must be n×k row-major");
        debug_assert_eq!(out.len(), rows * n, "out chunk must be whole rows");
        let k8 = k - k % 8;
        for r in 0..rows {
            let ap = a.as_ptr().add((i0 + r) * k);
            let op = out.as_mut_ptr().add(r * n);
            let mut j = 0;
            while j + 4 <= n {
                let b0 = b.as_ptr().add(j * k);
                let b1 = b.as_ptr().add((j + 1) * k);
                let b2 = b.as_ptr().add((j + 2) * k);
                let b3 = b.as_ptr().add((j + 3) * k);
                let mut c0 = _mm256_setzero_ps();
                let mut c1 = _mm256_setzero_ps();
                let mut c2 = _mm256_setzero_ps();
                let mut c3 = _mm256_setzero_ps();
                let mut t = 0;
                while t + 8 <= k {
                    let av = _mm256_loadu_ps(ap.add(t));
                    c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0.add(t)), c0);
                    c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1.add(t)), c1);
                    c2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2.add(t)), c2);
                    c3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3.add(t)), c3);
                    t += 8;
                }
                let mut s0 = lane_tree(c0);
                let mut s1 = lane_tree(c1);
                let mut s2 = lane_tree(c2);
                let mut s3 = lane_tree(c3);
                let mut tt = k8;
                while tt < k {
                    let av = *ap.add(tt);
                    s0 = av.mul_add(*b0.add(tt), s0);
                    s1 = av.mul_add(*b1.add(tt), s1);
                    s2 = av.mul_add(*b2.add(tt), s2);
                    s3 = av.mul_add(*b3.add(tt), s3);
                    tt += 1;
                }
                *op.add(j) = s0;
                *op.add(j + 1) = s1;
                *op.add(j + 2) = s2;
                *op.add(j + 3) = s3;
                j += 4;
            }
            while j < n {
                let bq = b.as_ptr().add(j * k);
                let mut c0 = _mm256_setzero_ps();
                let mut t = 0;
                while t + 8 <= k {
                    c0 =
                        _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(t)), _mm256_loadu_ps(bq.add(t)), c0);
                    t += 8;
                }
                let mut s = lane_tree(c0);
                let mut tt = k8;
                while tt < k {
                    s = (*ap.add(tt)).mul_add(*bq.add(tt), s);
                    tt += 1;
                }
                *op.add(j) = s;
                j += 1;
            }
        }
    }

    /// AVX2 packed-panel matvec: `out[r, :] = A[r, :] × B` where `B` is
    /// pre-packed into 32-column panels (see [`crate::pack`]). Two-row
    /// blocks share every panel load; each output column is one fused
    /// ascending-`k` chain, bitwise identical to the unpacked
    /// [`nn_rows`]/[`nn_cols`] result for the same element.
    // SAFETY: backend selection guarantees AVX2+FMA; loads/stores stay
    // inside the debug-asserted slices or a local 32-float spill.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn packed_matvec(
        panels: &[f32],
        a: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let n_panels = n.div_ceil(32);
        debug_assert_eq!(panels.len(), n_panels * k * 32, "panel buffer shape");
        debug_assert_eq!(a.len(), m * k, "A must be m×k");
        debug_assert_eq!(out.len(), m * n, "out must be m×n");
        let pp = panels.as_ptr();
        let mut r = 0;
        while r + 2 <= m {
            let a0 = a.as_ptr().add(r * k);
            let a1 = a.as_ptr().add((r + 1) * k);
            for p in 0..n_panels {
                let base = pp.add(p * k * 32);
                let mut c00 = _mm256_setzero_ps();
                let mut c01 = _mm256_setzero_ps();
                let mut c02 = _mm256_setzero_ps();
                let mut c03 = _mm256_setzero_ps();
                let mut c10 = _mm256_setzero_ps();
                let mut c11 = _mm256_setzero_ps();
                let mut c12 = _mm256_setzero_ps();
                let mut c13 = _mm256_setzero_ps();
                for t in 0..k {
                    let bq = base.add(t * 32);
                    let b0 = _mm256_loadu_ps(bq);
                    let b1 = _mm256_loadu_ps(bq.add(8));
                    let b2 = _mm256_loadu_ps(bq.add(16));
                    let b3 = _mm256_loadu_ps(bq.add(24));
                    let v0 = _mm256_set1_ps(*a0.add(t));
                    c00 = _mm256_fmadd_ps(v0, b0, c00);
                    c01 = _mm256_fmadd_ps(v0, b1, c01);
                    c02 = _mm256_fmadd_ps(v0, b2, c02);
                    c03 = _mm256_fmadd_ps(v0, b3, c03);
                    let v1 = _mm256_set1_ps(*a1.add(t));
                    c10 = _mm256_fmadd_ps(v1, b0, c10);
                    c11 = _mm256_fmadd_ps(v1, b1, c11);
                    c12 = _mm256_fmadd_ps(v1, b2, c12);
                    c13 = _mm256_fmadd_ps(v1, b3, c13);
                }
                store_panel(&[c00, c01, c02, c03], out, r * n, p, n);
                store_panel(&[c10, c11, c12, c13], out, (r + 1) * n, p, n);
            }
            r += 2;
        }
        while r < m {
            let a0 = a.as_ptr().add(r * k);
            for p in 0..n_panels {
                let base = pp.add(p * k * 32);
                let mut c0 = _mm256_setzero_ps();
                let mut c1 = _mm256_setzero_ps();
                let mut c2 = _mm256_setzero_ps();
                let mut c3 = _mm256_setzero_ps();
                for t in 0..k {
                    let bq = base.add(t * 32);
                    let v = _mm256_set1_ps(*a0.add(t));
                    c0 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq), c0);
                    c1 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq.add(8)), c1);
                    c2 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq.add(16)), c2);
                    c3 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bq.add(24)), c3);
                }
                store_panel(&[c0, c1, c2, c3], out, r * n, p, n);
            }
            r += 1;
        }
    }

    /// Stores a 32-wide panel of accumulators into row `row0` of `out`,
    /// truncating the zero-padded columns of the final partial panel.
    // SAFETY: backend selection guarantees AVX2+FMA; full panels store
    // in bounds, partial panels spill locally and copy the prefix.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_panel(acc: &[__m256; 4], out: &mut [f32], row0: usize, p: usize, n: usize) {
        let j = p * 32;
        if j + 32 <= n {
            let op = out.as_mut_ptr().add(row0 + j);
            _mm256_storeu_ps(op, acc[0]);
            _mm256_storeu_ps(op.add(8), acc[1]);
            _mm256_storeu_ps(op.add(16), acc[2]);
            _mm256_storeu_ps(op.add(24), acc[3]);
        } else {
            let mut spill = [0.0f32; 32];
            _mm256_storeu_ps(spill.as_mut_ptr(), acc[0]);
            _mm256_storeu_ps(spill.as_mut_ptr().add(8), acc[1]);
            _mm256_storeu_ps(spill.as_mut_ptr().add(16), acc[2]);
            _mm256_storeu_ps(spill.as_mut_ptr().add(24), acc[3]);
            out[row0 + j..row0 + n].copy_from_slice(&spill[..n - j]);
        }
    }
}

/// NEON kernels. Lane width 4; same reduction-order schemes as the AVX2
/// module with a four-lane pairwise tree `(l0+l1) + (l2+l3)`.
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use core::arch::aarch64::{float32x4_t, vdupq_n_f32, vfmaq_f32, vld1q_f32, vst1q_f32};

    /// Folds the four lane partials with the fixed pairwise tree
    /// `(l0+l1) + (l2+l3)`.
    // SAFETY: NEON is baseline on aarch64; the store targets a
    // local 4-float array.
    #[target_feature(enable = "neon")]
    unsafe fn lane_tree(v: float32x4_t) -> f32 {
        let mut lanes = [0.0f32; 4];
        vst1q_f32(lanes.as_mut_ptr(), v);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// NEON `nn_rows`: four-row × 8-column register tile, one fused
    /// ascending-`k` chain per output element.
    // SAFETY: NEON is baseline on aarch64; the debug-asserted shape
    // contract keeps every raw load/store in bounds.
    #[target_feature(enable = "neon")]
    pub unsafe fn nn_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
        let rows = out.len() / n;
        debug_assert!(a.len() >= (i0 + rows) * k, "A covers the row chunk");
        debug_assert_eq!(b.len(), k * n, "B must be k×n");
        debug_assert_eq!(out.len(), rows * n, "out chunk must be whole rows");
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut r = 0;
        while r + 4 <= rows {
            let a0 = a.as_ptr().add((i0 + r) * k);
            let a1 = a.as_ptr().add((i0 + r + 1) * k);
            let a2 = a.as_ptr().add((i0 + r + 2) * k);
            let a3 = a.as_ptr().add((i0 + r + 3) * k);
            let mut j = 0;
            while j + 8 <= n {
                let mut c00 = vdupq_n_f32(0.0);
                let mut c01 = vdupq_n_f32(0.0);
                let mut c10 = vdupq_n_f32(0.0);
                let mut c11 = vdupq_n_f32(0.0);
                let mut c20 = vdupq_n_f32(0.0);
                let mut c21 = vdupq_n_f32(0.0);
                let mut c30 = vdupq_n_f32(0.0);
                let mut c31 = vdupq_n_f32(0.0);
                for kk in 0..k {
                    let bq = bp.add(kk * n + j);
                    let b0 = vld1q_f32(bq);
                    let b1 = vld1q_f32(bq.add(4));
                    let v0 = vdupq_n_f32(*a0.add(kk));
                    c00 = vfmaq_f32(c00, v0, b0);
                    c01 = vfmaq_f32(c01, v0, b1);
                    let v1 = vdupq_n_f32(*a1.add(kk));
                    c10 = vfmaq_f32(c10, v1, b0);
                    c11 = vfmaq_f32(c11, v1, b1);
                    let v2 = vdupq_n_f32(*a2.add(kk));
                    c20 = vfmaq_f32(c20, v2, b0);
                    c21 = vfmaq_f32(c21, v2, b1);
                    let v3 = vdupq_n_f32(*a3.add(kk));
                    c30 = vfmaq_f32(c30, v3, b0);
                    c31 = vfmaq_f32(c31, v3, b1);
                }
                vst1q_f32(op.add(r * n + j), c00);
                vst1q_f32(op.add(r * n + j + 4), c01);
                vst1q_f32(op.add((r + 1) * n + j), c10);
                vst1q_f32(op.add((r + 1) * n + j + 4), c11);
                vst1q_f32(op.add((r + 2) * n + j), c20);
                vst1q_f32(op.add((r + 2) * n + j + 4), c21);
                vst1q_f32(op.add((r + 3) * n + j), c30);
                vst1q_f32(op.add((r + 3) * n + j + 4), c31);
                j += 8;
            }
            while j < n {
                for (dr, ap) in [a0, a1, a2, a3].into_iter().enumerate() {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc = (*ap.add(kk)).mul_add(*bp.add(kk * n + j), acc);
                    }
                    *op.add((r + dr) * n + j) = acc;
                }
                j += 1;
            }
            r += 4;
        }
        while r < rows {
            let a_row = &a[(i0 + r) * k..(i0 + r + 1) * k];
            nn_cols(a_row, b, &mut out[r * n..(r + 1) * n], 0, k, n);
            r += 1;
        }
    }

    /// NEON single-output-row column sweep, 16-column blocks.
    // SAFETY: NEON is baseline on aarch64; the debug-asserted shape
    // contract keeps every raw load/store in bounds.
    #[target_feature(enable = "neon")]
    pub unsafe fn nn_cols(a: &[f32], b: &[f32], out: &mut [f32], j0: usize, k: usize, n: usize) {
        let w = out.len();
        debug_assert!(a.len() >= k, "a must hold a full row");
        debug_assert!(j0 + w <= n, "column range inside B");
        debug_assert_eq!(b.len(), k * n, "B must be k×n");
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j + 16 <= w {
            let mut c0 = vdupq_n_f32(0.0);
            let mut c1 = vdupq_n_f32(0.0);
            let mut c2 = vdupq_n_f32(0.0);
            let mut c3 = vdupq_n_f32(0.0);
            for kk in 0..k {
                let v = vdupq_n_f32(*ap.add(kk));
                let bq = bp.add(kk * n + j0 + j);
                c0 = vfmaq_f32(c0, v, vld1q_f32(bq));
                c1 = vfmaq_f32(c1, v, vld1q_f32(bq.add(4)));
                c2 = vfmaq_f32(c2, v, vld1q_f32(bq.add(8)));
                c3 = vfmaq_f32(c3, v, vld1q_f32(bq.add(12)));
            }
            vst1q_f32(op.add(j), c0);
            vst1q_f32(op.add(j + 4), c1);
            vst1q_f32(op.add(j + 8), c2);
            vst1q_f32(op.add(j + 12), c3);
            j += 16;
        }
        while j + 4 <= w {
            let mut c0 = vdupq_n_f32(0.0);
            for kk in 0..k {
                let v = vdupq_n_f32(*ap.add(kk));
                c0 = vfmaq_f32(c0, v, vld1q_f32(bp.add(kk * n + j0 + j)));
            }
            vst1q_f32(op.add(j), c0);
            j += 4;
        }
        while j < w {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = (*ap.add(kk)).mul_add(*bp.add(kk * n + j0 + j), acc);
            }
            *op.add(j) = acc;
            j += 1;
        }
    }

    /// NEON `nt_rows`: four output columns at a time, four fixed
    /// ascending-`k` lanes per column folded by [`lane_tree`], fused
    /// ascending tail.
    // SAFETY: NEON is baseline on aarch64; the debug-asserted shape
    // contract keeps every raw load/store in bounds.
    #[target_feature(enable = "neon")]
    pub unsafe fn nt_rows(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
        let rows = out.len() / n;
        debug_assert!(a.len() >= (i0 + rows) * k, "A covers the row chunk");
        debug_assert_eq!(b.len(), n * k, "B must be n×k row-major");
        debug_assert_eq!(out.len(), rows * n, "out chunk must be whole rows");
        let k4 = k - k % 4;
        for r in 0..rows {
            let ap = a.as_ptr().add((i0 + r) * k);
            let op = out.as_mut_ptr().add(r * n);
            let mut j = 0;
            while j + 4 <= n {
                let b0 = b.as_ptr().add(j * k);
                let b1 = b.as_ptr().add((j + 1) * k);
                let b2 = b.as_ptr().add((j + 2) * k);
                let b3 = b.as_ptr().add((j + 3) * k);
                let mut c0 = vdupq_n_f32(0.0);
                let mut c1 = vdupq_n_f32(0.0);
                let mut c2 = vdupq_n_f32(0.0);
                let mut c3 = vdupq_n_f32(0.0);
                let mut t = 0;
                while t + 4 <= k {
                    let av = vld1q_f32(ap.add(t));
                    c0 = vfmaq_f32(c0, av, vld1q_f32(b0.add(t)));
                    c1 = vfmaq_f32(c1, av, vld1q_f32(b1.add(t)));
                    c2 = vfmaq_f32(c2, av, vld1q_f32(b2.add(t)));
                    c3 = vfmaq_f32(c3, av, vld1q_f32(b3.add(t)));
                    t += 4;
                }
                let mut s0 = lane_tree(c0);
                let mut s1 = lane_tree(c1);
                let mut s2 = lane_tree(c2);
                let mut s3 = lane_tree(c3);
                let mut tt = k4;
                while tt < k {
                    let av = *ap.add(tt);
                    s0 = av.mul_add(*b0.add(tt), s0);
                    s1 = av.mul_add(*b1.add(tt), s1);
                    s2 = av.mul_add(*b2.add(tt), s2);
                    s3 = av.mul_add(*b3.add(tt), s3);
                    tt += 1;
                }
                *op.add(j) = s0;
                *op.add(j + 1) = s1;
                *op.add(j + 2) = s2;
                *op.add(j + 3) = s3;
                j += 4;
            }
            while j < n {
                let bq = b.as_ptr().add(j * k);
                let mut c0 = vdupq_n_f32(0.0);
                let mut t = 0;
                while t + 4 <= k {
                    c0 = vfmaq_f32(c0, vld1q_f32(ap.add(t)), vld1q_f32(bq.add(t)));
                    t += 4;
                }
                let mut s = lane_tree(c0);
                let mut tt = k4;
                while tt < k {
                    s = (*ap.add(tt)).mul_add(*bq.add(tt), s);
                    tt += 1;
                }
                *op.add(j) = s;
                j += 1;
            }
        }
    }

    /// NEON packed-panel matvec: 32-column panels as eight accumulator
    /// registers; one fused ascending-`k` chain per output column.
    // SAFETY: NEON is baseline on aarch64; loads/stores stay inside
    // the debug-asserted slices or a local 32-float spill.
    #[target_feature(enable = "neon")]
    pub unsafe fn packed_matvec(
        panels: &[f32],
        a: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let n_panels = n.div_ceil(32);
        debug_assert_eq!(panels.len(), n_panels * k * 32, "panel buffer shape");
        debug_assert_eq!(a.len(), m * k, "A must be m×k");
        debug_assert_eq!(out.len(), m * n, "out must be m×n");
        let pp = panels.as_ptr();
        for r in 0..m {
            let a0 = a.as_ptr().add(r * k);
            for p in 0..n_panels {
                let base = pp.add(p * k * 32);
                let mut acc = [vdupq_n_f32(0.0); 8];
                for t in 0..k {
                    let bq = base.add(t * 32);
                    let v = vdupq_n_f32(*a0.add(t));
                    for (q, slot) in acc.iter_mut().enumerate() {
                        *slot = vfmaq_f32(*slot, v, vld1q_f32(bq.add(q * 4)));
                    }
                }
                let j = p * 32;
                let mut spill = [0.0f32; 32];
                for (q, slot) in acc.iter().enumerate() {
                    vst1q_f32(spill.as_mut_ptr().add(q * 4), *slot);
                }
                let cols = (n - j).min(32);
                out[r * n + j..r * n + j + cols].copy_from_slice(&spill[..cols]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_selection_is_latched_and_available() {
        let be = backend();
        assert_eq!(be, backend(), "second call returns the latched value");
        assert!(
            available_backends().contains(&be),
            "selected backend {be:?} must be runnable here"
        );
    }

    #[test]
    fn scalar_is_always_available_and_first() {
        let all = available_backends();
        assert_eq!(all[0], SimdBackend::Scalar);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SimdBackend::Scalar.name(), "scalar");
        assert_eq!(SimdBackend::Avx2Fma.name(), "avx2_fma");
        assert_eq!(SimdBackend::Neon.name(), "neon");
    }

    #[test]
    fn env_override_maps_to_backend() {
        // `backend()` latches on first use, so assert the mapping the
        // latched value must satisfy given the ambient variable. CI runs
        // the whole suite under SPECINFER_SIMD=scalar to pin the forced
        // path; the native run pins detection.
        let be = backend();
        match std::env::var("SPECINFER_SIMD").as_deref() {
            Ok("scalar") => assert_eq!(be, SimdBackend::Scalar),
            Ok("avx2") => assert!(matches!(be, SimdBackend::Avx2Fma | SimdBackend::Scalar)),
            Ok("neon") => assert!(matches!(be, SimdBackend::Neon | SimdBackend::Scalar)),
            _ => assert_eq!(
                be,
                *available_backends().last().expect("scalar always present")
            ),
        }
    }
}
