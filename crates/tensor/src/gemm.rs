//! Cache-blocked, register-tiled GEMM behind all three matmul variants.
//!
//! Design (see DESIGN.md "Tiled kernels"): the operand layouts
//! (`A`/`Aᵀ` on the left, `B`/`Bᵀ` on the right) differ only in how
//! panels are *packed*; one microkernel serves all four combinations.
//! Panels of A are packed as `[k][MR]` column-major strips and panels of
//! B as `[k][NR]` row-major strips, both zero-padded at the edges, so the
//! microkernel always sees full `MR×NR` tiles and streams both packs
//! linearly.
//!
//! Blocking: B is packed one `KC×NC` block at a time (128 KiB, resident
//! in L2), never whole, and A one `KC×MR` strip at a time:
//!
//! ```text
//! for jc in (0..n).step_by(NC):            // column block
//!     for pc in (0..k).step_by(KC):        // depth block, in k order
//!         pack B[pc.., jc..] into NR strips
//!         for each MR-row panel of the band:
//!             pack A[panel, pc..] into an MR strip
//!             for each NR strip: C tile (+)= A strip · B strip
//! ```
//!
//! The first depth block starts each C tile from zero; a later one loads
//! the partial sums the tile stored and runs the same chain on, so the
//! split of k changes no bit. Only [`gemm_serial_packed`] multiplies
//! against a whole pre-packed B: attention's per-unit K/V panels.
//!
//! Two microkernels sit behind a runtime dispatch:
//! - an AVX2+FMA kernel (`MR=6`, `NR=16`: 12 ymm accumulators, one
//!   broadcast of A and two loads of B per k step), selected when the CPU
//!   reports `avx2`+`fma` — the build stays at the default target so the
//!   binary still runs on SSE2-only machines;
//! - a portable scalar kernel that accumulates each output element
//!   strictly in k order with separate multiply and add, making it
//!   **bitwise identical** to the naive reference loops.
//!
//! Determinism: every output element is the same sequential-in-k
//! reduction regardless of block or panel boundaries or thread count, so
//! results are bitwise reproducible across `RATEL_THREADS` settings (the
//! FMA and scalar kernels differ from each other by fused-multiply
//! rounding; the choice is per-machine, not per-run).
//!
//! Parallelism: a call fans out once, over bands of MR-row panels. Each
//! band runs the loop nest above on its own thread, packing its B blocks
//! into its own block-sized slice of one checkout the calling thread
//! makes (whose pool keeps it for the next call) and its A strips into
//! its thread's scratch ([`crate::scratch`]), so no temporary grows with
//! the operands.

use crate::parallel::{band_len, par_bands};
use crate::scratch::{scratch_f32, SCRATCH_BLOCK};

/// Rows per microkernel tile.
pub const MR: usize = 6;
/// Columns per microkernel tile (two 8-float SIMD lanes).
pub const NR: usize = 16;
/// Depth of a packed B block: the k steps one microkernel call runs.
pub const KC: usize = 256;
/// Width of a packed B block, whole `NR` strips.
pub const NC: usize = 128;
const _: () = assert!(NC.is_multiple_of(NR) && KC * NC <= SCRATCH_BLOCK);

/// Problems with `m*n*k` at or below this run the naive reference loop:
/// at tiny sizes packing costs more than it saves.
pub const NAIVE_THRESHOLD: usize = 8 * 1024;

/// How the left operand is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutA {
    /// `a` is `[m, k]` row-major; logical `A[i][p] = a[i*k + p]`.
    Normal,
    /// `a` is `[k, m]` row-major and the kernel computes with `aᵀ`;
    /// logical `A[i][p] = a[p*m + i]`.
    Transposed,
}

/// How the right operand is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutB {
    /// `b` is `[k, n]` row-major; logical `B[p][j] = b[p*n + j]`.
    Normal,
    /// `b` is `[n, k]` row-major and the kernel computes with `bᵀ`;
    /// logical `B[p][j] = b[j*k + p]`.
    Transposed,
}

/// `out[m,n] = A[m,k] @ B[k,n]` with the given operand layouts,
/// dispatching between the naive reference (tiny problems) and the
/// tiled, multi-threaded path. `out` is fully overwritten.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    la: LayoutA,
    b: &[f32],
    lb: LayoutB,
    out: &mut [f32],
) {
    check_dims(m, k, n, a, b, out);
    if m * n * k <= NAIVE_THRESHOLD {
        gemm_reference(m, k, n, a, la, b, lb, out);
    } else {
        gemm_tiled(m, k, n, a, la, b, lb, out);
    }
}

/// Naive triple-loop reference — the oracle the tiled path is tested
/// against. No zero-skip shortcuts: `0.0 * inf` and NaNs propagate per
/// IEEE 754, and latency is data-independent.
#[allow(clippy::too_many_arguments)]
pub fn gemm_reference(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    la: LayoutA,
    b: &[f32],
    lb: LayoutB,
    out: &mut [f32],
) {
    check_dims(m, k, n, a, b, out);
    out.iter_mut().for_each(|o| *o = 0.0);
    match (la, lb) {
        (LayoutA::Normal, LayoutB::Normal) => {
            // i-k-j: inner loop streams b's row and out's row.
            for i in 0..m {
                let out_row = &mut out[i * n..(i + 1) * n];
                for p in 0..k {
                    let aip = a[i * k + p];
                    let b_row = &b[p * n..(p + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += aip * bv;
                    }
                }
            }
        }
        (LayoutA::Transposed, LayoutB::Normal) => {
            // k-i-j: both a's and b's row are streamed per k step.
            for p in 0..k {
                let a_row = &a[p * m..(p + 1) * m];
                let b_row = &b[p * n..(p + 1) * n];
                for (i, &av) in a_row.iter().enumerate() {
                    let out_row = &mut out[i * n..(i + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        }
        (LayoutA::Normal, LayoutB::Transposed) => {
            // i-j-k: dot product of two contiguous rows.
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                for j in 0..n {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&av, &bv) in a_row.iter().zip(b_row) {
                        acc += av * bv;
                    }
                    out[i * n + j] = acc;
                }
            }
        }
        (LayoutA::Transposed, LayoutB::Transposed) => {
            for i in 0..m {
                for j in 0..n {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (p, &bv) in b_row.iter().enumerate() {
                        acc += a[p * m + i] * bv;
                    }
                    out[i * n + j] = acc;
                }
            }
        }
    }
}

/// Single-threaded tiled GEMM for callers that are already inside a
/// worker thread (e.g. the per-`(batch, head)` attention units): same
/// packing and microkernel as [`gemm_tiled`], but never spawns, so nested
/// use does not oversubscribe the machine. Bitwise identical to
/// [`gemm_tiled`] at any thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_serial(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    la: LayoutA,
    b: &[f32],
    lb: LayoutB,
    out: &mut [f32],
) {
    check_dims(m, k, n, a, b, out);
    let mut bpack = scratch_f32(block_len(k, n));
    run_band(0, m, k, n, a, la, b, lb, &mut bpack, out);
}

/// Floats one packed B block of a `[k, n]` operand occupies: at most
/// `KC×NC`, and at least 1, so it is always a valid chunk length.
fn block_len(k: usize, n: usize) -> usize {
    (k.min(KC) * n.min(NC).next_multiple_of(NR)).max(1)
}

/// Number of f32s a full [`pack_b_full`] pre-pack of a `[k, n]` right
/// operand occupies (whole `NR`-column strips, zero-padded).
pub(crate) fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Packs all of B once into `NR`-column strips: the operand of repeated
/// [`gemm_serial_packed`] calls over column sub-ranges. The strip for
/// columns `[s*NR, (s+1)*NR)` lives at `out[s*k*NR..(s+1)*k*NR]`.
pub(crate) fn pack_b_full(k: usize, n: usize, b: &[f32], lb: LayoutB, out: &mut [f32]) {
    assert_eq!(b.len(), k * n, "gemm rhs size");
    assert_eq!(out.len(), packed_b_len(k, n), "packed rhs size");
    pack_b(k, n, b, lb, (0, k), (0, n), out);
}

/// [`gemm_serial`] against an already-packed right operand: `bpack` are
/// the [`pack_b_full`] strips covering columns `[j0, j0 + n)` of the
/// original operand, where `j0` (the slice start the caller cut at) is a
/// multiple of `NR`. Skipping the per-call pack is what lets repeated
/// small-tile GEMMs against one operand — the attention kernels' K/V
/// panels — run at large-GEMM efficiency; the microkernel consumes
/// identical packed bytes, so results are bitwise equal to
/// [`gemm_serial`] on the equivalent unpacked tile.
pub(crate) fn gemm_serial_packed(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    la: LayoutA,
    bpack: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm lhs size");
    assert_eq!(bpack.len(), packed_b_len(k, n), "packed rhs size");
    assert_eq!(out.len(), m * n, "gemm out size");
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mut apack = scratch_f32(k * MR);
    let (depth, cols) = ((0, k), (0, n));
    panel_loop(0, m, k, depth, a, la, bpack, cols, n, out, &mut apack);
}

/// The tiled, multi-threaded path, exposed separately so tests can force
/// it below [`NAIVE_THRESHOLD`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_tiled(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    la: LayoutA,
    b: &[f32],
    lb: LayoutB,
    out: &mut [f32],
) {
    check_dims(m, k, n, a, b, out);
    // Bands are whole MR-row panels; per-element reduction order is
    // unaffected by the banding, so any split is bitwise equivalent.
    let panels = m.div_ceil(MR);
    let band_rows = band_len(panels, panels) * MR;
    // Each band packs into its own block of one checkout on this thread,
    // whose pool outlives the bands' threads and keeps it for the next
    // call (two blocks fit the pool's bound).
    let block = block_len(k, n);
    let mut bpacks = scratch_f32(m.div_ceil(band_rows) * block);
    // `max(1)`: with `n == 0` the output is empty and yields no band.
    let bands = out.chunks_mut((band_rows * n).max(1));
    par_bands(bands.zip(bpacks.chunks_mut(block)), |i, (band, bpack)| {
        run_band(
            i * band_rows,
            band.len() / n,
            k,
            n,
            a,
            la,
            b,
            lb,
            bpack,
            band,
        )
    });
}

/// Computes `rows` output rows starting at global row `i0` into `band`
/// (a `[rows, n]` slice of the output), packing B one `KC×NC` block at a
/// time into `bpack` ([`block_len`] floats). Every tiled entry but
/// [`gemm_serial_packed`] ends here, and so does the one degenerate-shape
/// exit: with no rows or columns the loops below run zero times, and an
/// empty reduction (`k == 0`) is 0.
#[allow(clippy::too_many_arguments)]
fn run_band(
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
    a: &[f32],
    la: LayoutA,
    b: &[f32],
    lb: LayoutB,
    bpack: &mut [f32],
    band: &mut [f32],
) {
    if k == 0 {
        band.fill(0.0);
        return;
    }
    let mut apack = scratch_f32(k.min(KC) * MR);
    for j0 in (0..n).step_by(NC) {
        let cols = (j0, NC.min(n - j0));
        for p0 in (0..k).step_by(KC) {
            let depth = (p0, KC.min(k - p0));
            let block = &mut bpack[..depth.1 * cols.1.next_multiple_of(NR)];
            pack_b(k, n, b, lb, depth, cols, block);
            panel_loop(i0, rows, k, depth, a, la, block, cols, n, band, &mut apack);
        }
    }
}

/// Runs one packed B block over the band's MR-row panels: for output
/// columns `cols = (j0, nc)` and depth `depth = (p0, kc)`, every tile of
/// `band` gets `A[rows, p0..p0+kc] · block`, where `block` holds the
/// `kc×NR` strips of those columns. The first depth block (`p0 == 0`)
/// starts each tile from zero; a later one adds on to the partial sums
/// the tile holds, continuing its k-order chain.
#[allow(clippy::too_many_arguments)]
fn panel_loop(
    i0: usize,
    rows: usize,
    k: usize,
    depth: (usize, usize),
    a: &[f32],
    la: LayoutA,
    block: &[f32],
    (j0, nc): (usize, usize),
    n: usize,
    band: &mut [f32],
    apack: &mut [f32],
) {
    let (p0, kc) = depth;
    let apack = &mut apack[..kc * MR];
    let fresh = p0 == 0;
    for r0 in (0..rows).step_by(MR) {
        let h = MR.min(rows - r0);
        pack_a(k, a, la, i0 + r0, h, depth, apack);
        for (s, strip) in block.chunks_exact(kc * NR).enumerate() {
            let j = j0 + s * NR;
            let w = NR.min(j0 + nc - j);
            if h == MR && w == NR {
                microkernel(kc, apack, strip, &mut band[r0 * n + j..], n, fresh);
                continue;
            }
            // An edge tile runs on a full-size copy.
            let mut tile = [0.0f32; MR * NR];
            for r in (0..h).filter(|_| !fresh) {
                tile[r * NR..][..w].copy_from_slice(&band[(r0 + r) * n + j..][..w]);
            }
            microkernel(kc, apack, strip, &mut tile, NR, fresh);
            for r in 0..h {
                band[(r0 + r) * n + j..][..w].copy_from_slice(&tile[r * NR..][..w]);
            }
        }
    }
}

/// Packs depth `p0..p0+kc` of the `h`-row strip of logical A starting at
/// row `i0` into `out[kc][MR]`, zero-padding rows `h..MR`.
fn pack_a(
    k: usize,
    a: &[f32],
    la: LayoutA,
    i0: usize,
    h: usize,
    (p0, kc): (usize, usize),
    out: &mut [f32],
) {
    match la {
        LayoutA::Normal => {
            for (p, dst) in out.chunks_exact_mut(MR).enumerate().take(kc) {
                for (r, d) in dst.iter_mut().enumerate() {
                    *d = if r < h { a[(i0 + r) * k + p0 + p] } else { 0.0 };
                }
            }
        }
        LayoutA::Transposed => {
            // a is [k, m]: the strip is contiguous per k row.
            let m = a.len() / k;
            for (p, dst) in out.chunks_exact_mut(MR).enumerate().take(kc) {
                let src = &a[(p0 + p) * m + i0..][..h];
                dst[..h].copy_from_slice(src);
                dst[h..].iter_mut().for_each(|d| *d = 0.0);
            }
        }
    }
}

/// Packs the block of logical B at depth `p0..p0+kc` and columns
/// `j0..j0+nc` into `out`: one `[kc][NR]` strip per `NR` columns,
/// zero-padding the last strip's columns beyond `nc`.
fn pack_b(
    k: usize,
    n: usize,
    b: &[f32],
    lb: LayoutB,
    (p0, kc): (usize, usize),
    (j0, nc): (usize, usize),
    out: &mut [f32],
) {
    if kc == 0 {
        return; // an empty reduction packs nothing
    }
    for (s, strip) in out.chunks_exact_mut(kc * NR).enumerate() {
        let c0 = j0 + s * NR;
        let w = NR.min(j0 + nc - c0);
        match lb {
            LayoutB::Normal => {
                for (p, dst) in strip.chunks_exact_mut(NR).enumerate() {
                    dst[..w].copy_from_slice(&b[(p0 + p) * n + c0..][..w]);
                    dst[w..].iter_mut().for_each(|d| *d = 0.0);
                }
            }
            LayoutB::Transposed => {
                // b is [n, k]: gather column p of each of the w rows.
                for (p, dst) in strip.chunks_exact_mut(NR).enumerate() {
                    for (c, d) in dst.iter_mut().enumerate() {
                        *d = if c < w { b[(c0 + c) * k + p0 + p] } else { 0.0 };
                    }
                }
            }
        }
    }
}

/// Runs `k` steps of the `MR×NR` tile whose rows start at `c[r * ldc]`:
/// from zero when `fresh`, else on from the sums the tile holds.
fn microkernel(k: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, fresh: bool) {
    assert!(
        c.len() >= (MR - 1) * ldc + NR,
        "microkernel tile out of bounds"
    );
    if fma_available() {
        // SAFETY: gated on runtime detection of avx2+fma, and the tile's
        // rows lie in `c` (asserted above).
        unsafe { microkernel_fma(k, ap, bp, c, ldc, fresh) };
    } else {
        microkernel_scalar(k, ap, bp, c, ldc, fresh);
    }
}

/// Portable microkernel: per-element accumulation is sequential in k
/// with separate multiply and add — bitwise identical to the reference.
fn microkernel_scalar(k: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, fresh: bool) {
    let mut t = [[0.0f32; NR]; MR];
    for (r, trow) in t.iter_mut().enumerate().filter(|_| !fresh) {
        trow.copy_from_slice(&c[r * ldc..][..NR]);
    }
    for p in 0..k {
        let arow = &ap[p * MR..p * MR + MR];
        let brow = &bp[p * NR..p * NR + NR];
        for (r, trow) in t.iter_mut().enumerate() {
            let av = arow[r];
            for (tv, &bv) in trow.iter_mut().zip(brow) {
                *tv += av * bv;
            }
        }
    }
    for (r, trow) in t.iter().enumerate() {
        c[r * ldc..][..NR].copy_from_slice(trow);
    }
}

/// Runtime AVX2+FMA check shared with the attention exp kernels.
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_available() -> bool {
    static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVAILABLE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(dead_code)]
pub(crate) fn fma_available() -> bool {
    false
}

/// Runtime AVX2 check shared with the f16 decode path in `dtype.rs`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    // Under miri the AVX2 intrinsics are unsupported, and
    // RATEL_FORCE_SCALAR lets CI (or a bisecting human) pin the scalar
    // kernels on any machine — both force the software paths, which are
    // bitwise-identical to the SIMD ones by construction. Decided once
    // per process: the byte codecs ask per 256-element chunk, and an
    // environment lookup there costs more than the chunk's decode.
    static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        !cfg!(miri)
            && std::env::var_os("RATEL_FORCE_SCALAR").is_none()
            && is_x86_feature_detected!("avx2")
    })
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(dead_code)]
pub(crate) fn avx2_available() -> bool {
    false
}

/// AVX2+FMA microkernel: 12 ymm accumulators for the 6×16 tile at `c`
/// (row stride `ldc`), one broadcast of A and two 8-lane loads of B per
/// k step.
///
/// # Safety
/// Caller must ensure the CPU supports `avx2` and `fma`, and that
/// `c.len() >= (MR - 1) * ldc + NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_fma(
    k: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    fresh: bool,
) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= k * MR && bp.len() >= k * NR);
    let cp = c.as_mut_ptr();
    let mut t: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
    for (r, tr) in t.iter_mut().enumerate().filter(|_| !fresh) {
        tr[0] = _mm256_loadu_ps(cp.add(r * ldc));
        tr[1] = _mm256_loadu_ps(cp.add(r * ldc + 8));
    }
    let mut apk = ap.as_ptr();
    let mut bpk = bp.as_ptr();
    for _ in 0..k {
        let b0 = _mm256_loadu_ps(bpk);
        let b1 = _mm256_loadu_ps(bpk.add(8));
        for (r, tr) in t.iter_mut().enumerate() {
            let av = _mm256_broadcast_ss(&*apk.add(r));
            tr[0] = _mm256_fmadd_ps(av, b0, tr[0]);
            tr[1] = _mm256_fmadd_ps(av, b1, tr[1]);
        }
        apk = apk.add(MR);
        bpk = bpk.add(NR);
    }
    for (r, tr) in t.iter().enumerate() {
        _mm256_storeu_ps(cp.add(r * ldc), tr[0]);
        _mm256_storeu_ps(cp.add(r * ldc + 8), tr[1]);
    }
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn microkernel_fma(
    _k: usize,
    _ap: &[f32],
    _bp: &[f32],
    _c: &mut [f32],
    _ldc: usize,
    _fresh: bool,
) {
    unreachable!("fma path is never selected off x86_64")
}

fn check_dims(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm lhs size");
    assert_eq!(b.len(), k * n, "gemm rhs size");
    assert_eq!(out.len(), m * n, "gemm out size");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{num_threads, with_width};

    fn fill(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    fn layouts() -> [(LayoutA, LayoutB); 4] {
        [
            (LayoutA::Normal, LayoutB::Normal),
            (LayoutA::Transposed, LayoutB::Normal),
            (LayoutA::Normal, LayoutB::Transposed),
            (LayoutA::Transposed, LayoutB::Transposed),
        ]
    }

    fn a_len(la: LayoutA, m: usize, k: usize) -> usize {
        match la {
            LayoutA::Normal => m * k,
            LayoutA::Transposed => k * m,
        }
    }

    /// The FMA path's oracle: per element, one fused multiply-add per k
    /// step, in k order, from zero.
    #[allow(clippy::too_many_arguments)]
    fn gemm_fma_reference(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        la: LayoutA,
        b: &[f32],
        lb: LayoutB,
        out: &mut [f32],
    ) {
        check_dims(m, k, n, a, b, out);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = match la {
                        LayoutA::Normal => a[i * k + p],
                        LayoutA::Transposed => a[p * m + i],
                    };
                    let bv = match lb {
                        LayoutB::Normal => b[p * n + j],
                        LayoutB::Transposed => b[j * k + p],
                    };
                    acc = av.mul_add(bv, acc);
                }
                out[i * n + j] = acc;
            }
        }
    }

    /// A GEMM entry's signature.
    type Gemm = fn(usize, usize, usize, &[f32], LayoutA, &[f32], LayoutB, &mut [f32]);

    /// The oracle of the microkernel this machine runs: bitwise.
    fn oracle() -> Gemm {
        if fma_available() {
            gemm_fma_reference
        } else {
            gemm_reference
        }
    }

    fn assert_bits(want: &[f32], got: &[f32], what: &str) {
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "{what} elem {i}: {w} vs {g}");
        }
    }

    #[test]
    fn tiled_matches_reference_all_layouts_and_edges() {
        // Shapes straddling the MR/NR tile edges.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (6, 8, 16),
            (7, 5, 17),
            (13, 9, 31),
            (12, 16, 32),
            (5, 33, 3),
        ] {
            for (la, lb) in layouts() {
                let a = fill(a_len(la, m, k), 1 + m as u64);
                let b = fill(k * n, 2 + n as u64);
                let mut want = vec![0.0f32; m * n];
                let mut got = vec![0.0f32; m * n];
                oracle()(m, k, n, &a, la, &b, lb, &mut want);
                gemm_tiled(m, k, n, &a, la, &b, lb, &mut got);
                assert_bits(&want, &got, &format!("({m},{k},{n}) {la:?}/{lb:?}"));
            }
        }
    }

    #[test]
    fn every_block_edge_is_bitwise_the_oracle_at_every_width() {
        // k and n on either side of one and two KC/NC blocks: the depth
        // split must run each element's chain on unchanged, and the
        // column split must cover every strip once.
        let ks = [KC - 1, KC, KC + 1, 2 * KC + 3];
        let ns = [NC - 1, NC, NC + 1, 2 * NC + 3];
        for m in [1, MR + 1] {
            for (k, n) in ks.iter().flat_map(|&k| ns.iter().map(move |&n| (k, n))) {
                for (la, lb) in layouts() {
                    let a = fill(a_len(la, m, k), (m * k) as u64);
                    let b = fill(k * n, (k + n) as u64);
                    let mut want = vec![0.0f32; m * n];
                    oracle()(m, k, n, &a, la, &b, lb, &mut want);
                    for width in [1, 2, 4] {
                        let mut got = vec![0.0f32; m * n];
                        with_width(width, || gemm_tiled(m, k, n, &a, la, &b, lb, &mut got));
                        let what = format!("({m},{k},{n}) {la:?}/{lb:?} at width {width}");
                        assert_bits(&want, &got, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn no_matmul_checks_out_more_than_a_block_and_a_second_call_allocates_nothing() {
        use crate::{ops, scratch_stats, Tensor};
        let (m, k, n) = (MR + 1, 1024, 1024);
        let t = |r, c, seed| Tensor::from_vec(&[r, c], fill(r * c, seed));
        let (a, at, b, bt) = (t(m, k, 1), t(k, m, 2), t(k, n, 3), t(n, k, 4));
        let calls: [(&str, &(dyn Fn() -> Tensor + Sync)); 3] = [
            ("matmul", &|| ops::matmul(&a, &b)),
            ("matmul_at", &|| ops::matmul_at(&at, &b)),
            ("matmul_bt", &|| ops::matmul_bt(&a, &bt)),
        ];
        // Width 1 runs the band on the calling thread, whose pool the
        // counters read; a thread of its own starts that pool empty.
        std::thread::scope(|s| {
            s.spawn(|| {
                with_width(1, || {
                    for (name, call) in calls {
                        drop(call());
                        let misses = scratch_stats().misses;
                        drop(call());
                        assert_eq!(scratch_stats().misses, misses, "{name} allocated");
                    }
                });
                let largest = scratch_stats().largest;
                assert!(largest <= SCRATCH_BLOCK, "a checkout of {largest} floats");
            });
        });
    }

    #[test]
    fn tiled_bitwise_deterministic_across_thread_counts() {
        let (m, k, n) = (23, 17, 29);
        let a = fill(m * k, 7);
        let b = fill(k * n, 8);
        let mut base = vec![0.0f32; m * n];
        with_width(1, || {
            assert_eq!(num_threads(), 1);
            gemm_tiled(m, k, n, &a, LayoutA::Normal, &b, LayoutB::Normal, &mut base)
        });
        for t in [2usize, 3, 4] {
            let mut out = vec![0.0f32; m * n];
            with_width(t, || {
                assert_eq!(num_threads(), t);
                gemm_tiled(m, k, n, &a, LayoutA::Normal, &b, LayoutB::Normal, &mut out)
            });
            for (i, (x, y)) in base.iter().zip(&out).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={t} elem {i}");
            }
        }
    }

    #[test]
    fn serial_matches_tiled_bitwise() {
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (7, 5, 17), (23, 17, 29)] {
            for (la, lb) in layouts() {
                let a = fill(a_len(la, m, k), 11 + m as u64);
                let b = fill(k * n, 13 + n as u64);
                let mut want = vec![0.0f32; m * n];
                let mut got = vec![0.0f32; m * n];
                with_width(4, || {
                    assert_eq!(num_threads(), 4);
                    gemm_tiled(m, k, n, &a, la, &b, lb, &mut want)
                });
                gemm_serial(m, k, n, &a, la, &b, lb, &mut got);
                for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(w.to_bits(), g.to_bits(), "({m},{k},{n}) elem {i}");
                }
            }
        }
    }

    #[test]
    fn every_entry_matches_the_reference_on_degenerate_shapes() {
        use crate::{ops, Tensor};
        for (m, k, n) in [(0, 5, 7), (7, 0, 5), (5, 7, 0), (0, 0, 3), (0, 0, 0)] {
            for (la, lb) in layouts() {
                let a = fill(a_len(la, m, k), 17);
                let b = fill(k * n, 19);
                let mut want = vec![1.0f32; m * n];
                gemm_reference(m, k, n, &a, la, &b, lb, &mut want);
                let mut bpack = vec![0.0f32; packed_b_len(k, n)];
                pack_b_full(k, n, &b, lb, &mut bpack);
                let mut got = [vec![1.0f32; m * n], vec![1.0; m * n], vec![1.0; m * n]];
                gemm_serial(m, k, n, &a, la, &b, lb, &mut got[0]);
                gemm_tiled(m, k, n, &a, la, &b, lb, &mut got[1]);
                gemm_serial_packed(m, k, n, &a, la, &bpack, &mut got[2]);
                for (entry, got) in got.iter().enumerate() {
                    assert_eq!(got, &want, "entry {entry}, ({m},{k},{n}) {la:?}/{lb:?}");
                }
            }
            let t = |r, c, seed| Tensor::from_vec(&[r, c], fill(r * c, seed));
            let (a, at, b, bt) = (t(m, k, 23), t(k, m, 29), t(k, n, 31), t(n, k, 37));
            assert_eq!(ops::matmul(&a, &b), ops::naive::matmul(&a, &b));
            assert_eq!(ops::matmul_at(&at, &b), ops::naive::matmul_at(&at, &b));
            assert_eq!(ops::matmul_bt(&a, &bt), ops::naive::matmul_bt(&a, &bt));
        }
    }
}
