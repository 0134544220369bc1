//! Packed weight panels for decode-time matvecs.
//!
//! Decode multiplies a short activation block (`m ∈ 1..8` rows) against
//! large static weight matrices. The row-major weight layouts make the
//! inner loop stride `n` (for `nn`) or walk `n` separate rows (for
//! `nt`); packing rewrites the weight **once at load time** into
//! column panels of [`PANEL_WIDTH`] so every kernel iteration reads one
//! contiguous, reusable cache line run:
//!
//! ```text
//! data[p * (k * PANEL_WIDTH) + t * PANEL_WIDTH + c] = B[t, p * PANEL_WIDTH + c]
//! ```
//!
//! (`t` the reduction index, `p` the panel, `c` the column within the
//! panel; columns past `n` in the last panel are zero-padded and never
//! copied out). [`PackedPanels::from_nn`] and [`PackedPanels::from_nt`]
//! produce this same canonical layout from either storage orientation,
//! so a single matvec kernel serves both `matmul` and `matmul_nt`
//! against a packed operand.
//!
//! Per output element the reduction is one ascending-`k` chain — plain
//! mul+add on the scalar backend, fused FMA on AVX2/NEON — so within a
//! backend a packed matvec is **bitwise identical** to the unpacked
//! kernel for the same element, and callers may switch between packed
//! and unpacked paths on pure performance grounds.

use crate::simd::{self, SimdBackend};

/// Panel width in columns: 32 floats = four AVX2 registers or eight
/// NEON registers per panel row, and a whole number of cache lines.
pub const PANEL_WIDTH: usize = 32;

/// Largest `m` (activation rows) for which the packed matvec path is
/// profitable; larger blocks amortise weight traffic well enough that
/// the blocked kernels win. Used by the model's dense-layer dispatch.
pub const PACKED_SMALL_M_MAX: usize = 8;

/// A weight matrix repacked into [`PANEL_WIDTH`]-column panels.
///
/// Built once when weights are loaded (or when a fused projection pack
/// is assembled) and reused across every decode step; rebuilding after
/// weight mutation is the caller's responsibility (the model mirrors
/// its fused-QKV invalidation: any `weights_mut` drops the packs).
#[derive(Clone, Debug)]
pub struct PackedPanels {
    data: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedPanels {
    /// Packs a row-major `[k, n]` matrix (the `nn` operand layout).
    pub fn from_nn(b: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "B must be k×n");
        let mut data = vec![0.0f32; n.div_ceil(PANEL_WIDTH) * k * PANEL_WIDTH];
        for (t, b_row) in b.chunks_exact(n).enumerate() {
            for (j, &v) in b_row.iter().enumerate() {
                let (p, c) = (j / PANEL_WIDTH, j % PANEL_WIDTH);
                data[p * (k * PANEL_WIDTH) + t * PANEL_WIDTH + c] = v;
            }
        }
        PackedPanels { data, k, n }
    }

    /// Packs a row-major `[n, k]` matrix (the `nt` operand layout —
    /// `n` output columns stored as rows) into the same canonical
    /// panels as [`PackedPanels::from_nn`] of its transpose.
    pub fn from_nt(b: &[f32], n: usize, k: usize) -> Self {
        assert_eq!(b.len(), n * k, "B must be n×k");
        let mut data = vec![0.0f32; n.div_ceil(PANEL_WIDTH) * k * PANEL_WIDTH];
        for (j, b_row) in b.chunks_exact(k).enumerate() {
            let (p, c) = (j / PANEL_WIDTH, j % PANEL_WIDTH);
            for (t, &v) in b_row.iter().enumerate() {
                data[p * (k * PANEL_WIDTH) + t * PANEL_WIDTH + c] = v;
            }
        }
        PackedPanels { data, k, n }
    }

    /// The shared (reduction) dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The output-column count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed representation (padding included).
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    /// `out = A × B` against the packed panels on the process-selected
    /// backend. `a` is `[m, k]` row-major, `out` is `[m, n]` and fully
    /// overwritten. Runs on the calling thread, never on the worker
    /// pool: the packed path serves `m ≤ PACKED_SMALL_M_MAX`, where a
    /// whole matvec takes a few µs — about what a pooled split adds
    /// (`kernels::PAR_MIN_FLOPS`) — so splitting it cannot pay.
    pub fn matvec_into(&self, a: &[f32], out: &mut [f32]) {
        self.matvec_into_with(simd::backend(), a, out);
    }

    /// [`PackedPanels::matvec_into`] on an explicit backend — the hook
    /// the bitwise test batteries use to compare backends directly.
    pub fn matvec_into_with(&self, be: SimdBackend, a: &[f32], out: &mut [f32]) {
        let m = a.len() / self.k;
        assert_eq!(a.len(), m * self.k, "A must be whole rows of length k");
        assert_eq!(out.len(), m * self.n, "out must be m×n");
        match be {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only selectable when AVX2+FMA were
            // detected at startup; the asserts above establish the
            // shape contract the kernel debug-asserts.
            SimdBackend::Avx2Fma => unsafe {
                simd::avx2::packed_matvec(&self.data, a, out, m, self.k, self.n)
            },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64 and the asserts above
            // establish the shape contract the kernel debug-asserts.
            SimdBackend::Neon => unsafe {
                simd::neon::packed_matvec(&self.data, a, out, m, self.k, self.n)
            },
            _ => self.matvec_scalar(a, out, m),
        }
    }

    /// Scalar reference matvec over the panels: per output column one
    /// ascending-`k` plain mul+add chain, bitwise identical to the
    /// unpacked scalar `nn` kernel (and so to `matmul_ref`).
    fn matvec_scalar(&self, a: &[f32], out: &mut [f32], m: usize) {
        let (k, n) = (self.k, self.n);
        let panel = k * PANEL_WIDTH;
        for r in 0..m {
            let a_row = &a[r * k..(r + 1) * k];
            let o_row = &mut out[r * n..(r + 1) * n];
            for (p, panel_data) in self.data.chunks_exact(panel).enumerate() {
                let j = p * PANEL_WIDTH;
                let cols = (n - j).min(PANEL_WIDTH);
                let mut acc = [0.0f32; PANEL_WIDTH];
                for (&av, prow) in a_row.iter().zip(panel_data.chunks_exact(PANEL_WIDTH)) {
                    for (slot, &bv) in acc.iter_mut().zip(prow) {
                        *slot += av * bv;
                    }
                }
                o_row[j..j + cols].copy_from_slice(&acc[..cols]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;
    use crate::Tensor;

    fn randn(dims: &[usize], seed: u64) -> Tensor {
        Tensor::randn(dims, 1.0, &mut SeededRng::new(seed))
    }

    #[test]
    fn from_nn_and_from_nt_agree_on_the_canonical_layout() {
        for &(k, n) in &[(5usize, 3usize), (8, 32), (7, 33), (96, 288), (24, 65)] {
            let b = randn(&[k, n], 9);
            let bt = b.transpose();
            let p_nn = PackedPanels::from_nn(b.data(), k, n);
            let p_nt = PackedPanels::from_nt(bt.data(), n, k);
            assert_eq!(p_nn.data, p_nt.data, "k={k} n={n}");
            assert_eq!((p_nn.k(), p_nn.n()), (k, n));
        }
    }

    #[test]
    fn packed_scalar_matches_reference_bitwise() {
        for &(m, k, n) in &[
            (1usize, 96usize, 288usize),
            (3, 7, 33),
            (8, 24, 96),
            (2, 1, 1),
        ] {
            let a = randn(&[m, k], 1);
            let b = randn(&[k, n], 2);
            let p = PackedPanels::from_nn(b.data(), k, n);
            let mut out = vec![0.0f32; m * n];
            p.matvec_into_with(SimdBackend::Scalar, a.data(), &mut out);
            assert_eq!(out, a.matmul_ref(&b).data(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_matches_unpacked_bitwise_on_every_backend() {
        for be in crate::simd::available_backends() {
            for &(m, k, n) in &[(1usize, 96usize, 288usize), (4, 33, 47), (8, 96, 96)] {
                let a = randn(&[m, k], 3);
                let b = randn(&[k, n], 4);
                let p = PackedPanels::from_nn(b.data(), k, n);
                let mut packed = vec![0.0f32; m * n];
                p.matvec_into_with(be, a.data(), &mut packed);
                let mut unpacked = vec![0.0f32; m * n];
                crate::kernels::matmul_nn_with(be, a.data(), b.data(), &mut unpacked, m, k, n);
                assert_eq!(packed, unpacked, "{be:?} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn packed_matvec_is_run_to_run_deterministic() {
        let (m, k, n) = (1, 96, 288);
        let a = randn(&[m, k], 5);
        let b = randn(&[k, n], 6);
        let p = PackedPanels::from_nt(b.transpose().data(), n, k);
        let mut first = vec![0.0f32; m * n];
        p.matvec_into(a.data(), &mut first);
        for _ in 0..3 {
            let mut again = vec![0.0f32; m * n];
            p.matvec_into(a.data(), &mut again);
            assert_eq!(first, again);
        }
    }

    #[test]
    fn padding_columns_never_leak() {
        // n = 33 leaves 31 zero-padded columns in the second panel; the
        // output must have exactly n columns of real data per row.
        let (m, k, n) = (2, 5, 33);
        let a = randn(&[m, k], 7);
        let b = randn(&[k, n], 8);
        let p = PackedPanels::from_nn(b.data(), k, n);
        let mut out = vec![f32::NAN; m * n];
        p.matvec_into(a.data(), &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
        assert_eq!(p.packed_len(), 2 * k * PANEL_WIDTH);
    }
}
