//! One-byte cell codes: an exact lower bound on the L1 kernel's result
//! from a quarter of the bytes.
//!
//! A [`CellQuantizer`] cuts every coordinate axis into 256 cells — a
//! per-dimension origin, one step shared by all dimensions — and maps a
//! vector to the cell index of each coordinate, one `u8` per `f32`. The
//! sum of absolute code differences of two vectors counts the cells
//! between them, and a coordinate pair whose codes differ by `Δ` is at
//! least `Δ − 1` steps apart. A sequential scan can therefore bound every
//! row from a [`CellTable`] and evaluate the `f32` kernel only on rows
//! the bound cannot exclude: filter-and-refine with no loss, because
//! [`CellQuantizer::min_sad`] turns the bound to beat into a
//! code-difference sum whose rows *provably* score at least that bound
//! under the rounded `f32` arithmetic of [`crate::l1`] itself.
//!
//! The two end cells saturate (`0` holds everything below the origin's
//! first step, `255` everything above the last), so they stay valid
//! intervals whatever the data: the origin and the step are fitted to a
//! sample and a stray row cannot stretch them.
//!
//! ## The table's layout
//!
//! A [`CellTable`] keeps its codes in tiles of [`TILE_ROWS`] rows, each
//! row padded with zero codes to a whole number of 8-code chunks. Line
//! `c` of a tile — 64 bytes, one cache line, 64-byte aligned — holds
//! chunk `c` of each of the tile's rows side by side: byte `8r + j` is
//! code `8c + j` of row `r`. `vpsadbw` sums the byte differences of each
//! 8-byte lane of two registers into that lane, so one instruction over
//! a line and the query's chunk `c` broadcast to every lane adds the
//! chunk's code differences to all eight rows at once, each in its own
//! 64-bit lane, and a tile's sums come out in row order with no
//! horizontal reduction ([`CellTable::sums`]: one 64-byte register per
//! line with AVX-512BW, two 32-byte halves with AVX2, a portable loop
//! elsewhere — integer sums, so all three agree). Pad codes are zero on
//! both sides and add nothing. The rows that fill the last tile hold
//! whatever codes the build left there; their sums are dropped.

/// Rows the fit looks at, at most: a strided sample sets the origins and
/// the step, so one wild row in a large corpus rarely gets a say.
const FIT_SAMPLE_ROWS: usize = 4096;

/// Steps the sample's widest coordinate range is spread over: the sample
/// lands on codes 0 to 254, and the two end cells also take whatever lies
/// outside the sample's box.
const FIT_CELLS: f64 = 254.0;

/// Per-coordinate slack of the cell bound, in steps: the quantizer's own
/// `f32` rounding (see [`CellQuantizer::min_sad`]).
const CELL_SLACK: f64 = 1.0 / 8192.0;

/// Rows per tile of a [`CellTable`]: one 64-byte line holds an 8-code
/// chunk of each. [`CellTable::sums`] starts at a multiple of it.
pub const TILE_ROWS: usize = 8;

/// Codes of one row per line of a tile.
const CHUNK: usize = 8;

/// Bytes a table asks the allocator for, at least; it touches only its
/// own length of them, so the rest costs address space and nothing else.
/// A table is megabytes that live as long as their source, built on
/// whichever worker thread scans first. glibc serves such a request from
/// that thread's arena once its sliding `mmap` threshold has risen past
/// the size, and an arena keeps what is freed into it: a process that
/// opened and dropped three engines over a 200,000 x 64 corpus peaked
/// 24-44 MB higher (127 -> 151 MB with one 12.8 MB allocation, 144-157
/// with 32 KB blocks, 171 when built on the thread that builds the
/// index; all with a byte allocation). A request above the threshold's
/// ceiling (32 MiB on 64-bit) is always a mapping of its own, returned to
/// the system the moment it is freed (127 -> 139 MB, the live table).
/// The same holds for the 64-byte-aligned lines, which glibc serves
/// through `posix_memalign`: five alternating `serve_scan` runs without
/// the reservation peaked at 151.7-152.5 MB in three of five (139.4 MB in
/// the other two), with it at 139.3-140.2 MB in all five. Tables under
/// [`TABLE_RESERVE_FROM`] bytes are not worth the address space and take
/// what they need.
const TABLE_RESERVE: usize = (32 << 20) + 1;
const TABLE_RESERVE_FROM: usize = 1 << 20;

/// Maps `f32` coordinates to one-byte cell indices: `code = clamp(⌊(x −
/// lo_d) / step⌋, 0, 255)` with a per-dimension origin `lo_d` and one
/// step for every dimension. See the module docs.
#[derive(Clone, Debug)]
pub struct CellQuantizer {
    lo: Vec<f32>,
    step: f32,
    /// `fl(1 / step)`: what [`CellQuantizer::encode`] multiplies by.
    inv: f32,
}

impl CellQuantizer {
    /// Fit origins and step to the row-major matrix `rows` (`dim` columns)
    /// from a strided sample of at most 4,096 rows: the origin of a
    /// dimension is the sample's minimum there, and the step is a 254th
    /// of the widest sample range.
    ///
    /// `None` when no useful table exists: the sample holds a non-finite
    /// component, every sampled column is constant (step 0), the step is
    /// outside the range in which its reciprocal is a normal `f32`, or
    /// `dim` is so large that a code-difference sum could overflow `u32`.
    ///
    /// # Panics
    /// Panics if `dim` is 0 or does not divide `rows.len()`.
    pub fn fit(dim: usize, rows: &[f32]) -> Option<CellQuantizer> {
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "rows length {} is not a multiple of dim {dim}",
            rows.len()
        );
        let n = rows.len() / dim;
        if n == 0 || dim > (u32::MAX / 255) as usize {
            return None;
        }
        let stride = n.div_ceil(FIT_SAMPLE_ROWS);
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for row in rows.chunks_exact(dim).step_by(stride) {
            for ((l, h), &x) in lo.iter_mut().zip(&mut hi).zip(row) {
                if !x.is_finite() {
                    return None;
                }
                *l = l.min(x);
                *h = h.max(x);
            }
        }
        let widest = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| h as f64 - l as f64)
            .fold(0.0, f64::max);
        let step = (widest / FIT_CELLS) as f32;
        // Inside these limits `1 / step` is a normal f32 with the usual
        // relative rounding error, which the bound's proof relies on.
        if !(1e-30..=1e30).contains(&step) {
            return None;
        }
        Some(CellQuantizer {
            lo,
            step,
            inv: 1.0 / step,
        })
    }

    /// Dimensionality of the vectors this quantizer encodes.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Width of a cell, the same in every dimension.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Encode the row-major matrix `rows` into `codes`, one byte per
    /// coordinate in the same order. Returns whether every component was
    /// finite; codes of a matrix that fails the check must not be used
    /// (the bound is proven for finite coordinates only).
    ///
    /// # Panics
    /// Panics if `rows` and `codes` differ in length or are not whole
    /// rows of [`CellQuantizer::dim`] columns.
    pub fn encode(&self, rows: &[f32], codes: &mut [u8]) -> bool {
        let dim = self.dim();
        assert_eq!(rows.len(), codes.len(), "one code per coordinate");
        assert!(rows.len().is_multiple_of(dim), "rows are not whole vectors");
        encode_rows(rows, &self.lo, self.inv, codes, dim)
    }

    /// The smallest code-difference sum that proves a pair is at least
    /// `bound` apart *as [`crate::l1`] computes it*: for finite `q` and
    /// `x` of this quantizer's dimension with codes `c(q)`, `c(x)`,
    ///
    /// `Σ_d |c(q)_d − c(x)_d| ≥ min_sad(bound)  ⇒  l1(q, x) ≥ bound`.
    ///
    /// A scan whose candidate must beat `bound` strictly (a k-NN heap that
    /// is full) may skip every such row; `min_sad(radius) + 1` proves
    /// `l1(q, x) > radius`. Saturates at `u32::MAX` ("no sum proves it",
    /// also for a NaN bound) and at 0 (a negative bound is always met).
    ///
    /// # Proof
    ///
    /// *Cells.* `encode` computes `t = fl(fl(x − lo) · inv)` with `inv =
    /// fl(1/step)`. Write `v = (x − lo) / step` for the real value.
    /// Three roundings of relative size `≤ 2⁻²⁴` give `t = v(1 + δ)`,
    /// `|δ| < 3·2⁻²⁴ + 2⁻⁴⁶`, wherever the product is a normal number
    /// (the subtraction of two `f32`s is exact when its result is
    /// subnormal, and `fit` keeps `inv` normal), so there `t(1 − 2⁻²²) ≤
    /// v ≤ t(1 + 2⁻²²)`. A code `≥ c ≥ 1` means `t ≥ c` (saturation at
    /// 255 and overflow to `+∞` included) and gives `v ≥ c(1 − 2⁻²²)`; a
    /// code `≤ c < 255` means `t < c + 1` and gives `v < (c + 1)(1 +
    /// 2⁻²²)` (trivially so when `t` is negative or underflowed, `v`
    /// then being negative or tiny). For codes `c' > c` of coordinates
    /// `a`, `b`: `(a − b)/step = v_a − v_b > (c' − c − 1) − (c' + c +
    /// 1)·2⁻²² > (c' − c − 1) − 2⁻¹³`. Summed over the dimensions, with
    /// `S` the code-difference sum and `R = Σ|q_d − x_d|` the real
    /// distance: `R ≥ (S − dim·(1 + 2⁻¹³)) · step`.
    ///
    /// *Kernel.* `l1` follows `lane_sum`'s recipe (`minkowski.rs`; the
    /// AVX2 twins in `simd.rs` return the same bits): every term is
    /// `fl(|q_d − x_d|)`, one rounding, and then passes through at most
    /// `⌊dim/16⌋ − 1` additions inside its lane of one of the two
    /// 8-lane accumulator groups of the 16-wide main loop (the first
    /// addition, to zero, is exact), two for `(g0 + g1) + cleanup`, one
    /// for `t_i + t_{i+4}`, two for `(s0 + s1) + (s2 + s3)` and one for
    /// `+ tail` — `⌊dim/16⌋ + 6` roundings in all; a term of the 8-wide
    /// cleanup group passes through 6, a term of the `< 8`-element scalar
    /// tail through at most 8. All terms are non-negative and
    /// round-to-nearest is monotone and exact on subnormal sums, so the
    /// returned `D ≥ R · (1 − 2⁻²⁴)^h ≥ R · (1 − h·2⁻²⁴)` with `h =
    /// ⌊dim/16⌋ + 8` ([`crate::kernel_roundings`]) for any `dim ≥ 1` (an
    /// overflow to `+∞` only helps).
    ///
    /// *Together.* `S ≥ T` with `T ≥ bound / (step·(1 − h·2⁻²⁴)) +
    /// dim·(1 + 2⁻¹³)` yields `D ≥ bound`. `T` is evaluated in `f64`
    /// (relative error `2⁻⁵¹` on a value below `2³²`) and rounded up to
    /// the next integer plus one, which absorbs that error many times
    /// over.
    ///
    /// *Margins.* Each of the two margins covers the other's job, so
    /// dropping either one alone changes no exclusion here. The
    /// per-coordinate term is `(c' + c + 1)·2⁻²² ≤ 510·2⁻²²`, `2⁻²¹`
    /// under `CELL_SLACK`, and only `T ≤ 255·dim` can be met by a sum,
    /// where the `f64` error is below `dim·2⁻⁴²`: without the final `+ 1`
    /// every exclusion still holds, at any `dim`. With `CELL_SLACK = 0`
    /// the `+ 1` has to carry `dim·510·2⁻²²`, which it does up to `dim =
    /// 8,224`, far above any pipeline's width (577 at most).
    pub fn min_sad(&self, bound: f32) -> u32 {
        let dim = self.dim() as f64;
        let kept = 1.0 - crate::kernel_roundings(self.dim()) as f64 / (1u64 << 24) as f64;
        let need = bound as f64 / (self.step as f64 * kept) + dim * (1.0 + CELL_SLACK);
        if need.is_nan() {
            return u32::MAX;
        }
        (need.ceil() + 1.0) as u32
    }
}

/// The loop of [`CellQuantizer::encode`], row `i`'s codes going to
/// `codes[i * stride..]` (a [`CellTable`] tile's rows are padded). A
/// function of its own, never inlined, because only as parameters are
/// the three slices known not to overlap, which is what lets the inner
/// loop vectorize (16 ms against 35 ms for 200,000 × 64 when it sits
/// inside a method of the struct that owns `origins`).
#[inline(never)]
fn encode_rows(rows: &[f32], origins: &[f32], inv: f32, codes: &mut [u8], stride: usize) -> bool {
    let dim = origins.len();
    // Largest exponent-and-mantissa pattern seen: a non-finite value has
    // all exponent bits set (an integer max, which vectorizes where a
    // float test would not).
    let mut widest_bits = 0u32;
    for (row, out) in rows.chunks_exact(dim).zip(codes.chunks_exact_mut(stride)) {
        for ((&x, &lo), c) in row.iter().zip(origins).zip(out) {
            widest_bits = widest_bits.max(x.to_bits() & 0x7FFF_FFFF);
            // Float-to-int `as` truncates toward zero and saturates:
            // exactly clamp(⌊t⌋, 0, 255) for every non-NaN `t`.
            *c = ((x - lo) * inv) as u8;
        }
    }
    widest_bits < 0x7F80_0000
}

/// One line of a tile: a chunk of each of its rows, row `r`'s at index
/// `r` (see the module docs). The alignment makes every line one cache
/// line and one aligned 64-byte load.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([[u8; CHUNK]; TILE_ROWS]);

/// Append the lines of one tile whose codes are `tile`: [`TILE_ROWS`]
/// rows of `chunks` chunks each, row-major, padded with zero codes.
fn push_tile(lines: &mut Vec<Line>, tile: &[[u8; CHUNK]], chunks: usize) {
    for c in 0..chunks {
        lines.push(Line(std::array::from_fn(|r| tile[r * chunks + c])));
    }
}

/// The cell codes of a matrix under its fitted [`CellQuantizer`], tiled
/// for [`CellTable::sums`] (layout in the module docs). Built in memory
/// from the rows, never stored.
#[derive(Clone)]
pub struct CellTable {
    quant: CellQuantizer,
    /// Tile `t` is lines `t · chunks .. (t + 1) · chunks`.
    lines: Vec<Line>,
    rows: usize,
}

/// Tile sums: the query's `chunks · 8` codes against whole tiles of
/// `chunks` lines each, one sum per row of every tile into `out`, which
/// holds [`TILE_ROWS`] slots per tile.
type TileSums = fn(query: &[u8], lines: &[Line], chunks: usize, out: &mut [u32]);

impl CellTable {
    /// Fit a quantizer to the row-major matrix `rows` (`dim` columns) and
    /// encode every row. `None` where [`CellQuantizer::fit`] finds no
    /// useful table, or where a row outside its sample holds a
    /// non-finite component.
    ///
    /// # Panics
    /// Panics if `dim` is 0 or does not divide `rows.len()`.
    pub fn build(dim: usize, rows: &[f32]) -> Option<CellTable> {
        CellTable::encode(CellQuantizer::fit(dim, rows)?, rows)
    }

    /// Encode `rows` under `quant`, a tile at a time: into a scratch tile
    /// of padded rows, then dealt into lines.
    fn encode(quant: CellQuantizer, rows: &[f32]) -> Option<CellTable> {
        let dim = quant.dim();
        let chunks = dim.div_ceil(CHUNK);
        let n = rows.len() / dim;
        let count = n.div_ceil(TILE_ROWS) * chunks;
        let reserve = if count * size_of::<Line>() < TABLE_RESERVE_FROM {
            count
        } else {
            count.max(TABLE_RESERVE.div_ceil(size_of::<Line>()))
        };
        let mut lines = Vec::with_capacity(reserve);
        let mut tile = vec![[0u8; CHUNK]; TILE_ROWS * chunks];
        for tile_rows in rows.chunks(TILE_ROWS * dim) {
            let codes = tile.as_flattened_mut();
            if !encode_rows(tile_rows, &quant.lo, quant.inv, codes, chunks * CHUNK) {
                return None;
            }
            push_tile(&mut lines, &tile, chunks);
        }
        Some(CellTable {
            quant,
            lines,
            rows: n,
        })
    }

    /// The quantizer the codes were made with: its
    /// [`CellQuantizer::min_sad`] turns a bound into a sum.
    pub fn quantizer(&self) -> &CellQuantizer {
        &self.quant
    }

    /// Bytes the table holds: the rows rounded up to whole tiles, each
    /// padded to whole 8-code chunks.
    pub fn bytes(&self) -> usize {
        self.lines.len() * size_of::<Line>()
    }

    /// Bytes of one query's codes as [`CellTable::sums`] takes them:
    /// the dimension rounded up to a multiple of 8.
    pub fn query_len(&self) -> usize {
        self.chunks() * CHUNK
    }

    fn chunks(&self) -> usize {
        self.quant.dim().div_ceil(CHUNK)
    }

    /// Encode `query` into `codes`, [`CellTable::query_len`] bytes padded
    /// with zeros. Returns whether every component was finite; the codes
    /// of a query that fails must not be used.
    ///
    /// # Panics
    /// Panics if `query` is not of the table's dimension or `codes` is
    /// not [`CellTable::query_len`] bytes.
    pub fn encode_query(&self, query: &[f32], codes: &mut [u8]) -> bool {
        assert_eq!(codes.len(), self.query_len(), "query codes are padded");
        let (head, pad) = codes.split_at_mut(self.quant.dim());
        pad.fill(0);
        self.quant.encode(query, head)
    }

    /// `Σ_d |query_d − row_d|` over the codes of rows `first ..
    /// first + out.len()`, written into `out`; `query` holds a query's
    /// codes from [`CellTable::encode_query`]. Eight rows per `vpsadbw`
    /// with AVX-512BW or AVX2, detected at run time; the portable loop
    /// elsewhere. Integer arithmetic, so every path gives the same sums.
    ///
    /// # Panics
    /// Panics if `first` is not a multiple of [`TILE_ROWS`], the rows
    /// run past the table, or `query` is not [`CellTable::query_len`]
    /// bytes.
    pub fn sums(&self, query: &[u8], first: usize, out: &mut [u32]) {
        self.sums_with(query, first, out, dispatch())
    }

    /// [`CellTable::sums`] on the portable loop, public so that tests in
    /// the layers above can pin both paths against each other.
    #[doc(hidden)]
    pub fn sums_portable(&self, query: &[u8], first: usize, out: &mut [u32]) {
        self.sums_with(query, first, out, portable_tile_sums)
    }

    fn sums_with(&self, query: &[u8], first: usize, out: &mut [u32], kernel: TileSums) {
        let chunks = self.chunks();
        assert_eq!(query.len(), chunks * CHUNK, "query codes are padded");
        assert!(
            first.is_multiple_of(TILE_ROWS) && first + out.len() <= self.rows,
            "rows {first}..{} of a {}-row table, from a whole tile",
            first + out.len(),
            self.rows
        );
        let whole = out.len() - out.len() % TILE_ROWS;
        let (head, tail) = out.split_at_mut(whole);
        let lines = &self.lines[first / TILE_ROWS * chunks..];
        let (lines, last) = lines.split_at(whole / TILE_ROWS * chunks);
        kernel(query, lines, chunks, head);
        if !tail.is_empty() {
            // The last tile is whole in the table: the sums of the rows
            // past `out` are dropped here.
            let mut sums = [0u32; TILE_ROWS];
            kernel(query, &last[..chunks], chunks, &mut sums);
            tail.copy_from_slice(&sums[..tail.len()]);
        }
    }
}

impl std::fmt::Debug for CellTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellTable")
            .field("step", &self.quant.step())
            .field("rows", &self.rows)
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// The widest tile kernel this host runs.
fn dispatch() -> TileSums {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512bw") {
            // SAFETY: the AVX-512BW requirement is checked at runtime above.
            return |query, lines, chunks, out| unsafe {
                x86::tile_sums_avx512(query, lines, chunks, out)
            };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 requirement is checked at runtime above.
            return |query, lines, chunks, out| unsafe {
                x86::tile_sums_avx2(query, lines, chunks, out)
            };
        }
    }
    portable_tile_sums
}

fn portable_tile_sums(query: &[u8], lines: &[Line], chunks: usize, out: &mut [u32]) {
    assert!(query.len() == chunks * CHUNK && lines.len() * TILE_ROWS == out.len() * chunks);
    for (tile, sums) in lines
        .chunks_exact(chunks)
        .zip(out.chunks_exact_mut(TILE_ROWS))
    {
        sums.fill(0);
        for (line, q) in tile.iter().zip(query.chunks_exact(CHUNK)) {
            for (sum, row) in sums.iter_mut().zip(&line.0) {
                *sum += row
                    .iter()
                    .zip(q)
                    .map(|(&x, &q)| u32::from(x.abs_diff(q)))
                    .sum::<u32>();
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Line, CHUNK, TILE_ROWS};
    use std::arch::x86_64::*;

    /// Chunk `c` of the query's codes as one 64-bit lane value.
    ///
    /// # Safety
    /// `c * 8 + 8 <= query.len()`.
    #[inline(always)]
    unsafe fn query_chunk(query: &[u8], c: usize) -> i64 {
        // SAFETY: the caller keeps the 8 bytes inside `query`.
        unsafe { query.as_ptr().add(c * CHUNK).cast::<i64>().read_unaligned() }
    }

    /// One 64-byte register per line: `vpsadbw` against the query's
    /// chunk broadcast to all eight lanes adds the chunk to the sums of
    /// the tile's eight rows, lane `r` holding row `r`'s.
    ///
    /// Caller guarantees AVX-512BW.
    #[target_feature(enable = "avx512bw")]
    pub(super) fn tile_sums_avx512(query: &[u8], lines: &[Line], chunks: usize, out: &mut [u32]) {
        assert!(query.len() == chunks * CHUNK && lines.len() * TILE_ROWS == out.len() * chunks);
        for (tile, sums) in lines
            .chunks_exact(chunks)
            .zip(out.chunks_exact_mut(TILE_ROWS))
        {
            let mut acc = _mm512_setzero_si512();
            for (c, line) in tile.iter().enumerate() {
                // SAFETY: `c < chunks` keeps the chunk inside `query`
                // (asserted above), and a line is 64 bytes aligned to 64.
                unsafe {
                    let q = _mm512_set1_epi64(query_chunk(query, c));
                    let x = _mm512_load_si512(line.0.as_ptr().cast());
                    acc = _mm512_add_epi64(acc, _mm512_sad_epu8(x, q));
                }
            }
            // Every sum is below 2³² (`255 · dim` is, see `fit`), so
            // narrowing each lane to 32 bits keeps it.
            let narrow = _mm512_cvtepi64_epi32(acc);
            // SAFETY: `sums` holds exactly eight u32s.
            unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), narrow) };
        }
    }

    /// The same tiles as two 32-byte halves a line: rows 0–3 in the low
    /// half's four lanes, rows 4–7 in the high half's.
    ///
    /// Caller guarantees AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn tile_sums_avx2(query: &[u8], lines: &[Line], chunks: usize, out: &mut [u32]) {
        assert!(query.len() == chunks * CHUNK && lines.len() * TILE_ROWS == out.len() * chunks);
        let order = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
        for (tile, sums) in lines
            .chunks_exact(chunks)
            .zip(out.chunks_exact_mut(TILE_ROWS))
        {
            let (mut low, mut high) = (_mm256_setzero_si256(), _mm256_setzero_si256());
            for (c, line) in tile.iter().enumerate() {
                // SAFETY: `c < chunks` keeps the chunk inside `query`
                // (asserted above), and the halves of a 64-byte line
                // aligned to 64 are 32 bytes aligned to 32.
                unsafe {
                    let q = _mm256_set1_epi64x(query_chunk(query, c));
                    let x_low = _mm256_load_si256(line.0.as_ptr().cast());
                    let x_high = _mm256_load_si256(line.0[4..].as_ptr().cast());
                    low = _mm256_add_epi64(low, _mm256_sad_epu8(x_low, q));
                    high = _mm256_add_epi64(high, _mm256_sad_epu8(x_high, q));
                }
            }
            // Every sum is below 2³², so the halves interleave as 32-bit
            // lanes [r0 r4 r1 r5 r2 r6 r3 r7], which one permute puts in
            // row order.
            let both = _mm256_or_si256(low, _mm256_slli_epi64(high, 32));
            let rows = _mm256_permutevar8x32_epi32(both, order);
            // SAFETY: `sums` holds exactly eight u32s.
            unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), rows) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbir_workload::Pcg32;

    /// Every tile kernel the host can run, by name; the dispatcher is
    /// listed too, being what the index layer calls.
    fn kernels() -> Vec<(&'static str, TileSums)> {
        let mut kernels: Vec<(&'static str, TileSums)> =
            vec![("dispatch", dispatch()), ("portable", portable_tile_sums)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512bw") {
                kernels.push(("avx512", |q, lines, chunks, out| {
                    // SAFETY: the AVX-512BW requirement is checked above.
                    unsafe { x86::tile_sums_avx512(q, lines, chunks, out) }
                }));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(("avx2", |q, lines, chunks, out| {
                    // SAFETY: the AVX2 requirement is checked above.
                    unsafe { x86::tile_sums_avx2(q, lines, chunks, out) }
                }));
            }
        }
        kernels
    }

    /// A table over `codes` as they are (row-major, `dim` per row), so
    /// that the kernels see any byte pattern, not only what a fit makes.
    /// Its quantizer is a placeholder.
    fn table_of_codes(dim: usize, codes: &[u8]) -> CellTable {
        let chunks = dim.div_ceil(CHUNK);
        let mut lines = Vec::new();
        for rows in codes.chunks(TILE_ROWS * dim) {
            let mut tile = vec![[0u8; CHUNK]; TILE_ROWS * chunks];
            for (row, padded) in rows.chunks_exact(dim).zip(tile.chunks_exact_mut(chunks)) {
                padded.as_flattened_mut()[..dim].copy_from_slice(row);
            }
            push_tile(&mut lines, &tile, chunks);
        }
        let quant = CellQuantizer {
            lo: vec![0.0; dim],
            step: 1.0,
            inv: 1.0,
        };
        let rows = codes.len() / dim;
        CellTable { quant, lines, rows }
    }

    fn bytes(n: usize, rng: &mut Pcg32) -> Vec<u8> {
        (0..n).map(|_| rng.next_u32() as u8).collect()
    }

    fn padded(query: &[u8], table: &CellTable) -> Vec<u8> {
        let mut q = query.to_vec();
        q.resize(table.query_len(), 0);
        q
    }

    #[test]
    fn every_kernel_matches_a_bytewise_sum_on_every_shape() {
        let mut rng = Pcg32::new(19);
        // Partial and whole chunks, and row counts around whole tiles.
        for dim in [1usize, 7, 8, 9, 31, 32, 33, 63, 64, 65, 577] {
            for rows_n in [1usize, 7, 8, 9, 16, 29] {
                let q = bytes(dim, &mut rng);
                let codes = bytes(dim * rows_n, &mut rng);
                let table = table_of_codes(dim, &codes);
                let want: Vec<u32> = codes
                    .chunks_exact(dim)
                    .map(|row| {
                        let mut s = 0u32;
                        for d in 0..dim {
                            s += (row[d] as i32 - q[d] as i32).unsigned_abs();
                        }
                        s
                    })
                    .collect();
                let q = padded(&q, &table);
                for (name, kernel) in kernels() {
                    // From every whole tile, every length to the end.
                    for first in (0..rows_n).step_by(TILE_ROWS) {
                        for end in first..=rows_n {
                            let mut got = vec![u32::MAX; end - first];
                            table.sums_with(&q, first, &mut got, kernel);
                            assert_eq!(
                                got,
                                want[first..end],
                                "{name}: dim {dim}, rows {first}..{end} of {rows_n}"
                            );
                        }
                    }
                }
            }
        }
        // The extremes: every byte 255 apart.
        let table = table_of_codes(577, &[0u8; 577 * 13]);
        for (name, kernel) in kernels() {
            let mut got = [0u32; 13];
            table.sums_with(&padded(&[255u8; 577], &table), 0, &mut got, kernel);
            assert_eq!(got, [255 * 577; 13], "{name}");
        }
    }

    #[test]
    fn lines_are_whole_aligned_cache_lines() {
        let table = table_of_codes(9, &[1u8; 9 * 20]);
        assert_eq!(table.bytes(), 3 * 2 * 64);
        for line in &table.lines {
            assert_eq!(line.0.as_ptr().align_offset(64), 0);
        }
    }

    #[test]
    #[should_panic(expected = "from a whole tile")]
    fn sums_start_at_a_whole_tile() {
        let table = table_of_codes(8, &[0u8; 8 * 20]);
        table.sums(&[0u8; 8], 4, &mut [0u32; 4]);
    }

    #[test]
    #[should_panic(expected = "from a whole tile")]
    fn sums_stay_inside_the_table() {
        let table = table_of_codes(8, &[0u8; 8 * 20]);
        table.sums(&[0u8; 8], 16, &mut [0u32; 5]);
    }

    #[test]
    #[should_panic(expected = "query codes are padded")]
    fn unpadded_query_codes_panic() {
        let table = table_of_codes(9, &[0u8; 9 * 20]);
        table.sums(&[0u8; 9], 0, &mut [0u32; 8]);
    }

    fn flat(rows: &[Vec<f32>]) -> Vec<f32> {
        rows.iter().flatten().copied().collect()
    }

    fn codes_of(q: &CellQuantizer, rows: &[f32]) -> Vec<u8> {
        let mut codes = vec![0u8; rows.len()];
        assert!(q.encode(rows, &mut codes));
        codes
    }

    #[test]
    fn a_built_table_holds_each_rows_codes() {
        for dim in [1usize, 7, 64, 577] {
            let rows = flat(&cbir_workload::uniform(37, dim, 10.0, 4));
            let table = CellTable::build(dim, &rows).unwrap();
            assert_eq!(table.rows, 37);
            assert_eq!(table.bytes(), 5 * dim.div_ceil(8) * 64);
            // Against a zero query a row sums to its code total, and
            // against its own codes to zero.
            let codes = codes_of(table.quantizer(), &rows);
            let mut sums = [u32::MAX; 37];
            table.sums(&vec![0u8; table.query_len()], 0, &mut sums);
            for (row, &s) in codes.chunks_exact(dim).zip(&sums) {
                assert_eq!(s, row.iter().map(|&c| u32::from(c)).sum::<u32>());
            }
            let mut q = vec![7u8; table.query_len()];
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                assert!(table.encode_query(row, &mut q));
                assert!(q[dim..].iter().all(|&c| c == 0), "pad codes are zero");
                let first = i - i % TILE_ROWS;
                let mut sums = vec![u32::MAX; 37 - first];
                table.sums(&q, first, &mut sums);
                assert_eq!(sums[i - first], 0, "dim {dim}, row {i}");
            }
        }
        // A non-finite component outside the fit's sample: no table.
        let mut rows = flat(&cbir_workload::uniform(9_000, 3, 10.0, 1));
        rows[3 * 1001 + 1] = f32::NAN;
        assert!(CellTable::build(3, &rows).is_none());
    }

    #[test]
    fn codes_are_monotone_and_saturate() {
        let rows = flat(&cbir_workload::uniform(500, 3, 10.0, 4));
        let quant = CellQuantizer::fit(3, &rows).unwrap();
        assert_eq!(quant.dim(), 3);
        assert!(quant.step() > 0.0);
        let probe: Vec<f32> = [-1e30f32, -5.0, 0.0, 2.5, 9.99, 50.0, 1e30]
            .iter()
            .flat_map(|&x| [x; 3])
            .collect();
        let codes = codes_of(&quant, &probe);
        assert_eq!(&codes[..3], &[0, 0, 0]);
        assert_eq!(&codes[18..], &[255, 255, 255]);
        for d in 0..3 {
            let column: Vec<u8> = codes.iter().skip(d).step_by(3).copied().collect();
            assert!(column.is_sorted(), "dimension {d}: {column:?}");
        }
    }

    #[test]
    fn fit_and_encode_refuse_what_the_proof_does_not_cover() {
        // Every column constant: step 0.
        assert!(CellQuantizer::fit(2, &[1.0, 2.0, 1.0, 2.0]).is_none());
        // A non-finite component in the sample.
        assert!(CellQuantizer::fit(1, &[0.0, f32::NAN, 1.0]).is_none());
        assert!(CellQuantizer::fit(1, &[0.0, f32::INFINITY, 1.0]).is_none());
        // A step whose reciprocal would be subnormal.
        assert!(CellQuantizer::fit(1, &[-3e38, 3e38]).is_none());
        // Outside the sample, `encode` is the one that notices.
        let quant = CellQuantizer::fit(1, &[0.0, 1.0]).unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(!quant.encode(&[0.5, bad], &mut [0u8; 2]));
        }
        // A constant column beside a live one is fine: all its codes agree.
        let quant = CellQuantizer::fit(2, &[0.0, 7.0, 1.0, 7.0]).unwrap();
        assert_eq!(codes_of(&quant, &[0.5, 7.0])[1], 0);
    }

    #[test]
    fn min_sad_saturates() {
        let quant = CellQuantizer::fit(4, &[0.0, 0.0, 0.0, 0.0, 254.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(quant.step(), 1.0);
        assert_eq!(quant.min_sad(f32::INFINITY), u32::MAX);
        assert_eq!(quant.min_sad(f32::NAN), u32::MAX);
        assert_eq!(quant.min_sad(-100.0), 0);
        // bound 10 at step 1, dim 4: 10 steps + one per dimension + the
        // rounding up.
        assert!((15..=17).contains(&quant.min_sad(10.0)));
        assert!(quant.min_sad(10.0) < quant.min_sad(11.5));
    }

    /// The property the scan relies on, on the shapes that stress it:
    /// whenever the code-difference sum reaches `min_sad(bound)` the
    /// kernel's distance reaches `bound`. Checked at the tightest bound a
    /// pair allows: `min_sad(d + one ulp)` must exceed the pair's sum, or
    /// the scan would skip a row that scores `d < bound`, and a row whose
    /// distance lands exactly on a range bound must stay in.
    #[test]
    fn no_code_bound_exceeds_the_kernel_distance() {
        for dim in [1usize, 7, 16, 64, 577] {
            let mut rows = cbir_workload::clustered_smooth(300, dim, 12, 10.0, 100.0, 1, 5);
            rows.extend(cbir_workload::uniform(100, dim, 100.0, 6));
            // Rows on cell edges and one ulp either side of them, where a
            // pair's codes differ by the most the quantizer allows for its
            // distance; signed zeros and denormals.
            let quant = CellQuantizer::fit(dim, &flat(&rows)).unwrap();
            let step = quant.step();
            for c in [0u32, 1, 2, 127, 254, 255, 256] {
                for nudge in [-1i32, 0, 1] {
                    let at = |d: usize| {
                        let x = quant.lo[d] + c as f32 * step;
                        if x == 0.0 {
                            return x;
                        }
                        f32::from_bits((x.to_bits() as i32 + nudge) as u32)
                    };
                    rows.push((0..dim).map(at).collect());
                }
            }
            rows.push(vec![0.0; dim]);
            rows.push(vec![-0.0; dim]);
            rows.push(vec![f32::MIN_POSITIVE / 4.0; dim]);
            rows.push(vec![-1e-41; dim]);
            let mut queries = cbir_workload::queries(&rows, 40, 5.0, 8);
            // Far outside the box, and huge.
            queries.push(vec![-1e6; dim]);
            queries.push(vec![1e30; dim]);
            queries.extend(rows.iter().rev().take(25).cloned());
            let table = CellTable::encode(quant, &flat(&rows)).unwrap();
            let quant = table.quantizer();
            let mut sums = vec![0u32; rows.len()];
            let mut qc = vec![0u8; table.query_len()];
            for q in &queries {
                assert!(table.encode_query(q, &mut qc));
                table.sums(&qc, 0, &mut sums);
                for (row, &s) in rows.iter().zip(&sums) {
                    let d = crate::l1(q, row);
                    // The row scores d, so it must survive any bound
                    // above d: no sum may prove `l1 >= next_up(d)`.
                    let above = f32::from_bits(d.to_bits() + 1);
                    assert!(
                        s < quant.min_sad(above),
                        "dim {dim}: sum {s} claims l1 >= {above} but l1 = {d}"
                    );
                    // And `+ 1` proves strictness for range search.
                    assert!(s < quant.min_sad(d).saturating_add(1));
                }
            }
        }
    }
}
