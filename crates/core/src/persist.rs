//! Binary persistence for signature databases: one container.
//!
//! A hand-rolled length-prefixed little-endian format (no serde).
//! Everything this crate writes is a `CBIRDB03` image: a saved database
//! ([`save_file`]) is a single segment, byte for byte what the
//! out-of-core store ([`crate::store`]) writes as one
//! `seg-NNNNNNNN.seg`, and the store's `MANIFEST` is the same container
//! with a different section set. The pipeline configuration is stored
//! alongside the descriptor matrix, so a loaded database extracts query
//! descriptors exactly as the saved one did.
//!
//! ```text
//! [ 8] magic "CBIRDB03"
//! [ 4] u32 section count
//! per section (table of contents, 24 bytes each):
//!   [ 1] u8  section id   (1 config, 2 descriptors, 3 metas,
//!                          4 seghdr, 5 manifest, 6 deleted)
//!   [ 3] zero padding
//!   [ 4] u32 CRC32C of payload
//!   [ 8] u64 absolute payload offset
//!   [ 8] u64 payload length
//! [ 4] u32 CRC32C of every header byte above
//! then the payloads, each starting at a 64-byte-aligned offset
//! (gaps zero-filled), in table order
//! ```
//!
//! A segment holds `config`, `seghdr` (rows, dim), `metas` and, last,
//! `descriptors`: *raw* little-endian `f32` rows with no interior
//! framing. Every payload byte is covered by its section's CRC32C,
//! every header byte by the header CRC32C, and every alignment gap by
//! the zero-fill rule, so any single-bit flip — and any burst shorter
//! than 32 bits — anywhere in the file is detected and reported as a
//! typed [`PersistError`] naming the file, the section, and the offset.
//! Truncation is detected positionally (the last payload must end
//! exactly at end of file).
//!
//! Payload offsets are explicit and aligned so the descriptor section
//! can be served zero-copy from a memory mapping
//! ([`crate::mmap::Mmap`]): [`parse_segment`] validates the header, the
//! small `config`/`seghdr` sections, and every section's *extent*, but
//! defers the O(data) checksum passes over descriptors and metas. Those
//! are verified by `fsck`, at compaction commit, by a full
//! [`load_from_slice`], and (for metas) on first access, keeping the
//! store's cold open O(1) in the corpus size. The `MANIFEST` names the
//! live segment set and the store's epoch, and — in an optional third
//! section, `deleted`, present only when some segment has one — each
//! segment's deleted rows: per segment in manifest order a `u64` count,
//! then that many `u64` physical row numbers, strictly ascending, each
//! below the segment's rows, never all of them. A manifest with no
//! deleted rows is the two-section file it always was.
//!
//! Writing a file is **atomic**: the new image is written to a temp
//! sibling, fsynced, renamed over the target, and the directory fsynced
//! — an interrupted save (crash, `ENOSPC`, torn write) leaves the
//! previous snapshot untouched. The primitive steps of that sequence
//! are fault points consulted through [`crate::faults::FaultPolicy`],
//! which the crash-consistency tests sweep exhaustively. Replacing the
//! `MANIFEST` this way is the *only* commit point a compaction has,
//! which is what makes crash-mid-compaction recovery "old set or new
//! set, never partial".
//!
//! ## Import only: `CBIRDB02`
//!
//! `cbir index` wrote `CBIRDB02` before a saved file became a segment,
//! so it stays readable ([`load_from_slice`], [`fsck_slice`]); nothing
//! writes it. Same magic + count + table + header CRC32C frame, but a
//! 13-byte table entry (id, u64 length, CRC32C), payloads packed
//! back to back in table order `config`, `descriptors` (u64 rows, u32
//! dim, then the rows), `metas`. Saving a loaded database upgrades it.
//! The older unchecksummed `CBIRDB01` stream is refused with an error
//! that says so.

use crate::database::{ImageDatabase, ImageMeta};
use crate::error::{CoreError, PersistError, Result};
use crate::faults::{FaultAction, FaultPoint, FaultPolicy, NoFaults};
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use std::io::Write as _;
use std::path::Path;

/// Retired; recognised only to refuse it by name.
const MAGIC_V1: &[u8; 8] = b"CBIRDB01";
/// Import only.
const MAGIC_V2: &[u8; 8] = b"CBIRDB02";
const MAGIC_V3: &[u8; 8] = b"CBIRDB03";

const SEC_CONFIG: u8 = 1;
const SEC_DESCRIPTORS: u8 = 2;
const SEC_METAS: u8 = 3;
const SEC_SEGHDR: u8 = 4;
const SEC_MANIFEST: u8 = 5;
const SEC_DELETED: u8 = 6;

/// The sections of a segment, in file order. Descriptors come last so
/// the raw `f32` matrix ends the file.
const SEGMENT_SECTION_ORDER: [u8; 4] = [SEC_CONFIG, SEC_SEGHDR, SEC_METAS, SEC_DESCRIPTORS];

/// The sections of a manifest, in file order.
const MANIFEST_SECTION_ORDER: [u8; 2] = [SEC_CONFIG, SEC_MANIFEST];

/// The sections of a manifest some of whose segments have deleted rows.
const MANIFEST_DELETED_SECTION_ORDER: [u8; 3] = [SEC_CONFIG, SEC_MANIFEST, SEC_DELETED];

/// The sections of a `CBIRDB02` import, in file order.
const IMPORT_SECTION_ORDER: [u8; 3] = [SEC_CONFIG, SEC_DESCRIPTORS, SEC_METAS];

/// Bytes per table-of-contents entry: id (1) + pad (3) + crc (4) +
/// absolute offset (8) + length (8).
const TOC_ENTRY_LEN: usize = 24;

/// Bytes per `CBIRDB02` table-of-contents entry: id (1) + length (8) +
/// crc (4).
const IMPORT_TOC_ENTRY_LEN: usize = 13;

/// Every payload starts at a multiple of this, so a memory-mapped
/// descriptor section reinterprets directly as `[f32]` (and whole cache
/// lines) regardless of what precedes it.
const SEG_ALIGN: u64 = 64;

/// File name of the commit-point manifest inside a segment directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// The canonical file name for segment sequence number `n`
/// (`seg-00000042.seg`).
pub fn segment_file_name(n: u64) -> String {
    format!("seg-{n:08}.seg")
}

/// Section payloads are written to disk in chunks of this size; each
/// chunk is one fault point for torn-write injection.
const SAVE_CHUNK: usize = 4096;

/// Upper bound on the section count a reader will accept.
const MAX_SECTIONS: usize = 16;

fn section_name(id: u8) -> &'static str {
    match id {
        SEC_CONFIG => "config",
        SEC_DESCRIPTORS => "descriptors",
        SEC_METAS => "metas",
        SEC_SEGHDR => "seghdr",
        SEC_MANIFEST => "manifest",
        SEC_DELETED => "deleted",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli): the SSE4.2 `crc32` instruction where the CPU has
// it, slicing-by-8 tables everywhere else.
// ---------------------------------------------------------------------------

/// `table[0]` is the classic byte-at-a-time table; `table[j][b]` is the
/// CRC of byte `b` followed by `j` zero bytes, which lets
/// [`crc32c_portable`] fold eight input bytes per step.
const fn crc32c_tables() -> [[u32; 256]; 8] {
    // Reflected polynomial 0x1EDC6F41 -> 0x82F63B78.
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// CRC32C (Castagnoli) of `bytes` — the checksum protecting every
/// section and header. Public so tooling and tests can verify or forge
/// checksums deliberately.
///
/// Dispatches like `cbir_distance`'s wide kernels: the hardware path
/// behind `is_x86_feature_detected!`, the portable one otherwise. Both
/// compute the same function, so file bytes never depend on the host.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") && !portable_forced() {
        // SAFETY: the SSE4.2 requirement is checked at runtime above.
        return unsafe { crc32c_sse42(bytes) };
    }
    crc32c_portable(bytes)
}

/// One dependent stream of 8-byte `crc32` steps (3 cycles each, so about
/// 2.7 bytes per cycle): an order of magnitude over the table walk and
/// past what one compaction needs; interleaved streams are not worth
/// their recombination code here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut crc = u64::from(!0u32);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        crc = _mm_crc32_u64(crc, word);
    }
    // The instruction zero-extends its 32-bit result.
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// Slicing-by-8: eight table lookups fold eight bytes per step.
fn crc32c_portable(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut words = bytes.chunks_exact(8);
    let mut crc = !0u32;
    for word in &mut words {
        let lo = u32::from_le_bytes(word[..4].try_into().expect("4 of 8 bytes")) ^ crc;
        let hi = u32::from_le_bytes(word[4..].try_into().expect("4 of 8 bytes"));
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
thread_local! {
    /// Lets a unit test drive the whole encode/parse machinery through
    /// the portable checksum on a host that has the instruction.
    static FORCE_PORTABLE_CRC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(target_arch = "x86_64")]
fn portable_forced() -> bool {
    #[cfg(test)]
    return FORCE_PORTABLE_CRC.get();
    #[cfg(not(test))]
    false
}

// ---------------------------------------------------------------------------
// Field-level writer/reader.
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(4096),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked field reader over one section payload. Every error
/// carries the section name and the absolute file offset at which
/// decoding failed.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    section: &'static str,
    base: u64,
}

impl<'a> Reader<'a> {
    fn for_section(bytes: &'a [u8], section: &'static str, base: u64) -> Self {
        Reader {
            bytes,
            at: 0,
            section,
            base,
        }
    }

    fn err(&self, detail: impl Into<String>) -> CoreError {
        CoreError::Persist(
            PersistError::new(detail)
                .in_section(self.section)
                .at_offset(self.base + self.at as u64),
        )
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let slice = self
            .bytes
            .get(self.at..self.at.saturating_add(n))
            .ok_or_else(|| self.err("unexpected end of data"))?;
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        if n > 1 << 20 {
            return Err(self.err(format!("string length {n} implausible")));
        }
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| self.err("invalid UTF-8 in name"))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn finish(&self) -> Result<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err(format!(
                "{} trailing bytes after decoded content",
                self.bytes.len() - self.at
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline configuration encode/decode.
// ---------------------------------------------------------------------------

fn write_quantizer(w: &mut Writer, q: &Quantizer) {
    match *q {
        Quantizer::Gray { bins } => {
            w.u8(0);
            w.u32(bins);
        }
        Quantizer::UniformRgb { per_channel } => {
            w.u8(1);
            w.u32(per_channel);
        }
        Quantizer::Hsv { hue, sat, val } => {
            w.u8(2);
            w.u32(hue);
            w.u32(sat);
            w.u32(val);
        }
        Quantizer::Lab { l, a, b } => {
            w.u8(3);
            w.u32(l);
            w.u32(a);
            w.u32(b);
        }
    }
}

fn read_quantizer(r: &mut Reader) -> Result<Quantizer> {
    Ok(match r.u8()? {
        0 => Quantizer::Gray { bins: r.u32()? },
        1 => Quantizer::UniformRgb {
            per_channel: r.u32()?,
        },
        2 => Quantizer::Hsv {
            hue: r.u32()?,
            sat: r.u32()?,
            val: r.u32()?,
        },
        3 => Quantizer::Lab {
            l: r.u32()?,
            a: r.u32()?,
            b: r.u32()?,
        },
        t => return Err(r.err(format!("unknown quantizer tag {t}"))),
    })
}

fn write_spec(w: &mut Writer, s: &FeatureSpec) {
    match s {
        FeatureSpec::ColorHistogram(q) => {
            w.u8(0);
            write_quantizer(w, q);
        }
        FeatureSpec::ColorMoments => w.u8(1),
        FeatureSpec::Correlogram {
            quantizer,
            distances,
        } => {
            w.u8(2);
            write_quantizer(w, quantizer);
            w.u32(distances.len() as u32);
            for &d in distances {
                w.u32(d);
            }
        }
        FeatureSpec::Glcm { levels } => {
            w.u8(3);
            w.u32(*levels as u32);
        }
        FeatureSpec::Tamura => w.u8(4),
        FeatureSpec::Wavelet { levels } => {
            w.u8(5);
            w.u32(*levels);
        }
        FeatureSpec::EdgeOrientation { bins } => {
            w.u8(6);
            w.u32(*bins as u32);
        }
        FeatureSpec::EdgeDensityGrid { grid, threshold } => {
            w.u8(7);
            w.u32(*grid);
            w.f32(*threshold);
        }
        FeatureSpec::HuMoments => w.u8(8),
        FeatureSpec::ShapeSummary => w.u8(9),
        FeatureSpec::DtHistogram { bins } => {
            w.u8(10);
            w.u32(*bins as u32);
        }
        FeatureSpec::RegionShape => w.u8(11),
    }
}

fn read_spec(r: &mut Reader) -> Result<FeatureSpec> {
    Ok(match r.u8()? {
        0 => FeatureSpec::ColorHistogram(read_quantizer(r)?),
        1 => FeatureSpec::ColorMoments,
        2 => {
            let quantizer = read_quantizer(r)?;
            let n = r.u32()? as usize;
            if n > 1024 {
                return Err(r.err("implausible distance count"));
            }
            let mut distances = Vec::with_capacity(n);
            for _ in 0..n {
                distances.push(r.u32()?);
            }
            FeatureSpec::Correlogram {
                quantizer,
                distances,
            }
        }
        3 => FeatureSpec::Glcm {
            levels: r.u32()? as usize,
        },
        4 => FeatureSpec::Tamura,
        5 => FeatureSpec::Wavelet { levels: r.u32()? },
        6 => FeatureSpec::EdgeOrientation {
            bins: r.u32()? as usize,
        },
        7 => FeatureSpec::EdgeDensityGrid {
            grid: r.u32()?,
            threshold: r.f32()?,
        },
        8 => FeatureSpec::HuMoments,
        9 => FeatureSpec::ShapeSummary,
        10 => FeatureSpec::DtHistogram {
            bins: r.u32()? as usize,
        },
        11 => FeatureSpec::RegionShape,
        t => return Err(r.err(format!("unknown spec tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Section payloads.
// ---------------------------------------------------------------------------

pub(crate) fn encode_config_parts(balanced: bool, pipeline: &Pipeline) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(balanced as u8);
    w.u32(pipeline.canonical_size());
    let specs = pipeline.specs();
    w.u32(specs.len() as u32);
    for s in specs {
        write_spec(&mut w, s);
    }
    w.buf
}

fn encode_metas(metas: &[ImageMeta]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(metas.len() as u64);
    for m in metas {
        w.str(&m.name);
        match m.label {
            Some(l) => {
                w.u8(1);
                w.u32(l);
            }
            None => w.u8(0),
        }
    }
    w.buf
}

fn decode_config(payload: &[u8], base: u64) -> Result<(bool, Pipeline)> {
    let mut r = Reader::for_section(payload, "config", base);
    let balanced = r.u8()? != 0;
    let canonical = r.u32()?;
    let n_specs = r.u32()? as usize;
    if n_specs == 0 || n_specs > 256 {
        return Err(r.err(format!("implausible spec count {n_specs}")));
    }
    let mut specs = Vec::with_capacity(n_specs);
    for _ in 0..n_specs {
        specs.push(read_spec(&mut r)?);
    }
    r.finish()?;
    let pipeline = Pipeline::new(canonical, specs)?;
    Ok((balanced, pipeline))
}

fn decode_metas(payload: &[u8], base: u64, expected: usize) -> Result<Vec<ImageMeta>> {
    let mut r = Reader::for_section(payload, "metas", base);
    let n = r.u64()? as usize;
    if n != expected {
        return Err(r.err(format!("{n} metadata entries for {expected} descriptors")));
    }
    let mut metas = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let label = if r.u8()? != 0 { Some(r.u32()?) } else { None };
        metas.push(ImageMeta { name, label });
    }
    r.finish()?;
    Ok(metas)
}

/// Raw little-endian `f32`s as an owned matrix.
fn decode_f32s(raw: &[u8]) -> Vec<f32> {
    raw.chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

// ---------------------------------------------------------------------------
// The container: header, table of contents, section checksums.
// ---------------------------------------------------------------------------

/// One parsed table-of-contents entry with its resolved payload span.
#[derive(Clone, Copy, Debug)]
struct TocEntry {
    id: u8,
    len: u64,
    crc: u32,
    /// Absolute offset of the payload within the file.
    offset: u64,
}

fn header_err(detail: impl Into<String>, offset: u64) -> PersistError {
    PersistError::new(detail)
        .in_section("header")
        .at_offset(offset)
}

/// The refusal for a file that starts with no magic this crate reads.
fn unsupported_magic(bytes: &[u8]) -> PersistError {
    let detail = if bytes.get(..8) == Some(MAGIC_V1.as_slice()) {
        "CBIRDB01 is no longer readable (unchecksummed, retired); re-index the collection"
    } else {
        "bad magic (not a CBIRDB03 or CBIRDB02 file)"
    };
    header_err(detail, 0)
}

/// Validate the frame both table layouts share — enough bytes, a
/// plausible section count, the header CRC — and return the section
/// count and the header's length.
fn parse_header(
    bytes: &[u8],
    entry_len: usize,
) -> std::result::Result<(usize, usize), PersistError> {
    if bytes.len() < 12 {
        return Err(header_err(
            format!("file is {} bytes, too short for a header", bytes.len()),
            bytes.len() as u64,
        ));
    }
    let n = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if n == 0 || n > MAX_SECTIONS {
        return Err(header_err(format!("implausible section count {n}"), 8));
    }
    let toc_end = 12 + n * entry_len;
    let header_end = toc_end + 4;
    if bytes.len() < header_end {
        return Err(header_err(
            format!(
                "header claims {n} sections ({header_end} header bytes) but file has {}",
                bytes.len()
            ),
            bytes.len() as u64,
        ));
    }
    let stored_crc = u32::from_le_bytes(bytes[toc_end..header_end].try_into().expect("4 bytes"));
    let actual_crc = crc32c(&bytes[..toc_end]);
    if stored_crc != actual_crc {
        return Err(header_err(
            format!(
                "header checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            ),
            0,
        ));
    }
    Ok((n, header_end))
}

/// Assemble a container: header with explicit offsets, payloads at
/// 64-byte-aligned offsets with zero-filled gaps.
fn encode_container(sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let header_len = 8 + 4 + sections.len() * TOC_ENTRY_LEN + 4;
    let mut offsets = Vec::with_capacity(sections.len());
    let mut at = header_len as u64;
    for (_, payload) in sections {
        let aligned = at.next_multiple_of(SEG_ALIGN);
        offsets.push(aligned);
        at = aligned + payload.len() as u64;
    }
    let mut out = Vec::with_capacity(at as usize);
    out.extend_from_slice(MAGIC_V3);
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for ((id, payload), offset) in sections.iter().zip(&offsets) {
        out.push(*id);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&crc32c(payload).to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    }
    let header_crc = crc32c(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    for ((_, payload), offset) in sections.iter().zip(&offsets) {
        out.resize(*offset as usize, 0);
        out.extend_from_slice(payload);
    }
    out
}

/// Parse and fully validate a `CBIRDB03` header: count, header CRC, and
/// the offset geometry (ascending, 64-byte aligned, zero-filled gaps
/// smaller than one alignment unit, last payload ending exactly at EOF).
/// Payload CRCs are *not* checked here — that is the deferred O(data)
/// work [`parse_segment`] exists to avoid.
fn parse_toc(bytes: &[u8]) -> std::result::Result<Vec<TocEntry>, PersistError> {
    let (n, header_end) = parse_header(bytes, TOC_ENTRY_LEN)?;
    let mut entries = Vec::with_capacity(n);
    let mut prev_end = header_end as u64;
    for i in 0..n {
        let at = 12 + i * TOC_ENTRY_LEN;
        let id = bytes[at];
        if bytes[at + 1..at + 4] != [0, 0, 0] {
            return Err(header_err(
                format!("nonzero padding in TOC entry {i}"),
                at as u64 + 1,
            ));
        }
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().expect("8 bytes"));
        if !offset.is_multiple_of(SEG_ALIGN) {
            return Err(header_err(
                format!(
                    "section {} offset {offset} is not {SEG_ALIGN}-byte aligned",
                    section_name(id)
                ),
                at as u64 + 8,
            ));
        }
        if offset < prev_end || offset - prev_end >= SEG_ALIGN {
            return Err(header_err(
                format!(
                    "section {} offset {offset} does not follow previous end {prev_end}",
                    section_name(id)
                ),
                at as u64 + 8,
            ));
        }
        let end = offset.checked_add(len).ok_or_else(|| {
            header_err(format!("section lengths overflow at entry {i}"), at as u64)
        })?;
        if end > bytes.len() as u64 {
            return Err(PersistError::new(format!(
                "truncated: section needs bytes up to {end} but file has {}",
                bytes.len()
            ))
            .in_section(section_name(id))
            .at_offset(bytes.len() as u64));
        }
        if bytes[prev_end as usize..offset as usize]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(header_err(
                format!(
                    "alignment gap before section {} is not zero-filled",
                    section_name(id)
                ),
                prev_end,
            ));
        }
        entries.push(TocEntry {
            id,
            len,
            crc,
            offset,
        });
        prev_end = end;
    }
    if prev_end != bytes.len() as u64 {
        return Err(PersistError::new(format!(
            "file has trailing bytes: sections cover {prev_end} bytes but file has {}",
            bytes.len()
        ))
        .in_section("header")
        .at_offset(prev_end));
    }
    Ok(entries)
}

/// Parse and fully validate a `CBIRDB02` header: count, header CRC, and
/// that the table's lengths tile the rest of the file exactly.
fn parse_import_toc(bytes: &[u8]) -> std::result::Result<Vec<TocEntry>, PersistError> {
    let (n, header_end) = parse_header(bytes, IMPORT_TOC_ENTRY_LEN)?;
    let mut entries = Vec::with_capacity(n);
    let mut offset = header_end as u64;
    for i in 0..n {
        let at = 12 + i * IMPORT_TOC_ENTRY_LEN;
        let id = bytes[at];
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().expect("8 bytes"));
        let crc = u32::from_le_bytes(bytes[at + 9..at + 13].try_into().expect("4 bytes"));
        entries.push(TocEntry {
            id,
            len,
            crc,
            offset,
        });
        offset = offset.checked_add(len).ok_or_else(|| {
            header_err(format!("section lengths overflow at entry {i}"), at as u64)
        })?;
    }
    if offset != bytes.len() as u64 {
        let (verb, name) = if offset > bytes.len() as u64 {
            // Name the first section whose payload runs past EOF.
            let short = entries
                .iter()
                .find(|e| e.offset + e.len > bytes.len() as u64)
                .map(|e| section_name(e.id))
                .unwrap_or("header");
            ("truncated: sections need", short)
        } else {
            ("has trailing bytes: sections cover", "header")
        };
        return Err(PersistError::new(format!(
            "file {verb} {offset} bytes but file has {}",
            bytes.len()
        ))
        .in_section(name)
        .at_offset(bytes.len().min(offset as usize) as u64));
    }
    Ok(entries)
}

fn has_sections(entries: &[TocEntry], want: &[u8]) -> bool {
    entries.iter().map(|e| e.id).eq(want.iter().copied())
}

fn expect_sections(entries: &[TocEntry], want: &[u8]) -> std::result::Result<(), PersistError> {
    if has_sections(entries, want) {
        return Ok(());
    }
    let got: Vec<&str> = entries.iter().map(|e| section_name(e.id)).collect();
    let want: Vec<&str> = want.iter().map(|&id| section_name(id)).collect();
    Err(header_err(
        format!(
            "expected sections [{}], found [{}]",
            want.join(", "),
            got.join(", ")
        ),
        12,
    ))
}

/// Validate one section's checksum, returning the payload slice (its
/// span was validated by the table parse).
fn section_payload<'a>(
    bytes: &'a [u8],
    entry: &TocEntry,
) -> std::result::Result<&'a [u8], PersistError> {
    let start = entry.offset as usize;
    let payload = &bytes[start..start + entry.len as usize];
    let actual = crc32c(payload);
    if actual != entry.crc {
        return Err(PersistError::new(format!(
            "checksum mismatch (stored {:#010x}, computed {actual:#010x})",
            entry.crc
        ))
        .in_section(section_name(entry.id))
        .at_offset(entry.offset));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Segments, whole-database loads, the manifest.
// ---------------------------------------------------------------------------

/// A structurally validated view of one segment file.
///
/// [`parse_segment`] eagerly verifies everything O(1)-ish in the data
/// size — header CRC, `config` and `seghdr` payload CRCs and decode, and
/// that the descriptor extent is exactly `rows * dim` little-endian
/// `f32`s — but defers the O(data) checksum passes: metas are verified
/// by [`SegmentView::decode_metas`] on first access, descriptors by
/// [`SegmentView::verify_descriptors`] (run by `fsck` and at compaction
/// commit, not on the serving open path).
#[derive(Debug)]
pub struct SegmentView {
    /// Whether extraction was segment-balanced.
    pub balanced: bool,
    /// The extraction pipeline the segment's descriptors came from.
    pub pipeline: Pipeline,
    /// Number of descriptor rows.
    pub rows: usize,
    /// Descriptor dimensionality (equal to `pipeline.dim()`).
    pub dim: usize,
    metas: TocEntry,
    descriptors: TocEntry,
}

impl SegmentView {
    /// Byte range of the raw descriptor matrix within the file — the
    /// span a zero-copy reader maps as `[f32]`. Guaranteed 64-byte
    /// aligned and exactly `rows * dim * 4` long.
    pub fn descriptor_range(&self) -> std::ops::Range<usize> {
        let start = self.descriptors.offset as usize;
        start..start + self.descriptors.len as usize
    }

    /// Verify the descriptor section's checksum (an O(data) pass —
    /// deferred off the open path by design).
    pub fn verify_descriptors(&self, bytes: &[u8]) -> Result<()> {
        section_payload(bytes, &self.descriptors)?;
        Ok(())
    }

    /// Verify and decode the metadata section.
    pub fn decode_metas(&self, bytes: &[u8]) -> Result<Vec<ImageMeta>> {
        let payload = section_payload(bytes, &self.metas)?;
        decode_metas(payload, self.metas.offset, self.rows)
    }

    /// Decode the descriptor matrix into an owned flat `Vec<f32>` (the
    /// non-zero-copy path: unaligned buffers and full single-file loads).
    pub fn decode_descriptors_owned(&self, bytes: &[u8]) -> Vec<f32> {
        decode_f32s(&bytes[self.descriptor_range()])
    }
}

/// Serialize one immutable segment: pipeline config, row header,
/// metadata, and the raw little-endian descriptor matrix (last, aligned).
///
/// `flat` must hold exactly `metas.len() * pipeline.dim()` floats in
/// row-major order.
pub fn encode_segment(
    balanced: bool,
    pipeline: &Pipeline,
    flat: &[f32],
    metas: &[ImageMeta],
) -> Result<Vec<u8>> {
    let dim = pipeline.dim();
    if flat.len() != metas.len() * dim {
        return Err(CoreError::InvalidParameter(format!(
            "segment has {} floats for {} metas of dim {dim}",
            flat.len(),
            metas.len()
        )));
    }
    let mut seghdr = Writer::new();
    seghdr.u64(metas.len() as u64);
    seghdr.u32(dim as u32);
    Ok(encode_container(&[
        (SEC_CONFIG, encode_config_parts(balanced, pipeline)),
        (SEC_SEGHDR, seghdr.buf),
        (SEC_METAS, encode_metas(metas)),
        (SEC_DESCRIPTORS, descriptor_bytes(flat)),
    ]))
}

/// The descriptor section's payload: the matrix as little-endian `f32`s.
/// On a little-endian host those are the matrix's own bytes, copied in
/// one step (the write-side twin of the store's zero-copy `SegmentRows`).
///
/// Copied, not borrowed into the image: borrowing saves this allocation
/// and was measured to lift `live_rw`'s `peak_rss_mb` from 87 to 113 MB,
/// the seeding compaction leaving that much more heap resident. (The
/// likely mechanism: glibc raises its dynamic mmap threshold each time a
/// mapped chunk is freed, and this one, freed before the image is, sets
/// where the next matrix-sized buffers land.)
fn descriptor_bytes(flat: &[f32]) -> Vec<u8> {
    if cfg!(target_endian = "little") {
        // SAFETY: every f32 is four initialized bytes, `u8` needs no
        // alignment, and the length is exactly the slice's size.
        let bytes = unsafe {
            std::slice::from_raw_parts(flat.as_ptr().cast::<u8>(), std::mem::size_of_val(flat))
        };
        bytes.to_vec()
    } else {
        flat.iter().flat_map(|v| v.to_le_bytes()).collect()
    }
}

/// Open a segment image: validate the header and the small sections
/// eagerly, returning a [`SegmentView`] describing the deferred spans.
pub fn parse_segment(bytes: &[u8]) -> Result<SegmentView> {
    if !bytes.starts_with(MAGIC_V3) {
        return Err(header_err("bad magic (not a CBIRDB03 segment)", 0).into());
    }
    let entries = parse_toc(bytes)?;
    expect_sections(&entries, &SEGMENT_SECTION_ORDER)?;
    let (balanced, pipeline) = {
        let payload = section_payload(bytes, &entries[0])?;
        decode_config(payload, entries[0].offset)?
    };
    let (rows, dim) = {
        let payload = section_payload(bytes, &entries[1])?;
        let mut r = Reader::for_section(payload, "seghdr", entries[1].offset);
        let rows = r.u64()? as usize;
        let dim = r.u32()? as usize;
        r.finish()?;
        (rows, dim)
    };
    let seghdr_err = |detail: String| {
        CoreError::Persist(
            PersistError::new(detail)
                .in_section("seghdr")
                .at_offset(entries[1].offset),
        )
    };
    if dim != pipeline.dim() {
        return Err(seghdr_err(format!(
            "stored dim {dim} disagrees with pipeline dim {}",
            pipeline.dim()
        )));
    }
    let expected = (rows as u64)
        .checked_mul(dim as u64)
        .and_then(|c| c.checked_mul(4))
        .ok_or_else(|| seghdr_err(format!("row count {rows} overflows")))?;
    if entries[3].len != expected {
        return Err(CoreError::Persist(
            PersistError::new(format!(
                "descriptor section is {} bytes but seghdr claims {rows} rows of dim {dim} ({expected} bytes)",
                entries[3].len
            ))
            .in_section("descriptors")
            .at_offset(entries[3].offset),
        ));
    }
    Ok(SegmentView {
        balanced,
        pipeline,
        rows,
        dim,
        metas: entries[2],
        descriptors: entries[3],
    })
}

/// The last step of every whole-file load. A checksum only proves the
/// bytes are the ones written; a NaN or infinity in them would poison
/// every distance it meets, so it is refused here, by file offset,
/// rather than at the first index build. (The store's lazy segment open
/// defers this with the rest of its O(data) work.)
fn database_from_parts(
    pipeline: Pipeline,
    balanced: bool,
    flat: Vec<f32>,
    metas: Vec<ImageMeta>,
    matrix_at: u64,
) -> Result<ImageDatabase> {
    if let Some(i) = flat.iter().position(|v| !v.is_finite()) {
        return Err(CoreError::Persist(
            PersistError::new(format!(
                "non-finite component {i} (row-major) in the descriptor matrix"
            ))
            .in_section("descriptors")
            .at_offset(matrix_at + 4 * i as u64),
        ));
    }
    ImageDatabase::from_parts(pipeline, balanced, flat, metas)
}

/// Fully load a segment image (every checksum verified, unlike the
/// store's lazy open).
fn load_segment(bytes: &[u8]) -> Result<ImageDatabase> {
    let seg = parse_segment(bytes)?;
    seg.verify_descriptors(bytes)?;
    let metas = seg.decode_metas(bytes)?;
    let flat = seg.decode_descriptors_owned(bytes);
    let matrix_at = seg.descriptors.offset;
    database_from_parts(seg.pipeline, seg.balanced, flat, metas, matrix_at)
}

/// Load a `CBIRDB02` image.
fn load_import(bytes: &[u8]) -> Result<ImageDatabase> {
    let entries = parse_import_toc(bytes)?;
    expect_sections(&entries, &IMPORT_SECTION_ORDER)?;
    let (balanced, pipeline) = {
        let payload = section_payload(bytes, &entries[0])?;
        decode_config(payload, entries[0].offset)?
    };
    let payload = section_payload(bytes, &entries[1])?;
    let mut r = Reader::for_section(payload, "descriptors", entries[1].offset);
    let rows = r.u64()? as usize;
    let dim = r.u32()? as usize;
    if dim != pipeline.dim() {
        return Err(r.err(format!(
            "stored dim {dim} disagrees with pipeline dim {}",
            pipeline.dim()
        )));
    }
    // Validate the claimed count against the bytes actually present
    // before allocating: a corrupt count must produce an error, not a
    // capacity-overflow abort.
    let matrix_bytes = rows
        .checked_mul(dim)
        .and_then(|c| c.checked_mul(4))
        .ok_or_else(|| r.err(format!("image count {rows} overflows")))?;
    if matrix_bytes != r.remaining() {
        return Err(r.err(format!(
            "claims {rows} descriptors ({matrix_bytes} bytes) but {} bytes follow",
            r.remaining()
        )));
    }
    let matrix_at = entries[1].offset + r.at as u64;
    let flat = decode_f32s(r.take(matrix_bytes)?);
    let metas = {
        let payload = section_payload(bytes, &entries[2])?;
        decode_metas(payload, entries[2].offset, rows)?
    };
    database_from_parts(pipeline, balanced, flat, metas, matrix_at)
}

/// Deserialize a database: what [`save_to_vec`] wrote, any single
/// segment file of a store, or a `CBIRDB02` import — dispatched on the
/// magic. Every checksum is verified and every descriptor component
/// must be finite.
pub fn load_from_slice(bytes: &[u8]) -> Result<ImageDatabase> {
    match bytes.get(..8) {
        Some(m) if m == MAGIC_V3 => load_segment(bytes),
        Some(m) if m == MAGIC_V2 => load_import(bytes),
        _ => Err(unsupported_magic(bytes).into()),
    }
}

/// Serialize a database (pipeline + descriptors + metadata) as a
/// single segment — the bytes [`save_file`] writes.
pub fn save_to_vec(db: &ImageDatabase) -> Result<Vec<u8>> {
    encode_segment(
        db.is_balanced(),
        db.pipeline(),
        db.flat_descriptors(),
        db.metas(),
    )
}

/// One segment named by a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Segment file name, relative to the store directory.
    pub name: String,
    /// Descriptor rows in the segment, deleted ones included.
    pub rows: u64,
    /// The segment's deleted rows: physical row numbers, strictly
    /// ascending, each below `rows`, never all of them. Empty for most
    /// segments.
    pub deleted: Vec<u64>,
}

/// The decoded `MANIFEST` of a segment directory — the store's single
/// commit point. Only the segment files named here are live; anything
/// else in the directory is an orphan from an interrupted compaction.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Store epoch at the time this manifest was committed (monotonic;
    /// bumped by every committed mutation batch and compaction).
    pub epoch: u64,
    /// Next segment sequence number to allocate (never reused, so a new
    /// compaction can never collide with a file a pinned snapshot maps).
    pub next_seg: u64,
    /// Whether extraction is segment-balanced.
    pub balanced: bool,
    /// The extraction pipeline every segment shares.
    pub pipeline: Pipeline,
    /// The live segments, in search order.
    pub segments: Vec<ManifestEntry>,
}

/// Serialize a [`Manifest`]: the `deleted` section only when some
/// segment has deleted rows.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(m.epoch);
    w.u64(m.next_seg);
    w.u32(m.segments.len() as u32);
    for s in &m.segments {
        w.str(&s.name);
        w.u64(s.rows);
    }
    let mut sections = vec![
        (SEC_CONFIG, encode_config_parts(m.balanced, &m.pipeline)),
        (SEC_MANIFEST, w.buf),
    ];
    if m.segments.iter().any(|s| !s.deleted.is_empty()) {
        let mut w = Writer::new();
        for s in &m.segments {
            w.u64(s.deleted.len() as u64);
            for &row in &s.deleted {
                w.u64(row);
            }
        }
        sections.push((SEC_DELETED, w.buf));
    }
    encode_container(&sections)
}

/// Whether a table of contents is a manifest's, with or without the
/// `deleted` section.
fn is_manifest(entries: &[TocEntry]) -> bool {
    has_sections(entries, &MANIFEST_SECTION_ORDER)
        || has_sections(entries, &MANIFEST_DELETED_SECTION_ORDER)
}

/// Decode the `deleted` section into `segments`, checking each list
/// against its segment's row count.
fn decode_deleted(segments: &mut [ManifestEntry], payload: &[u8], base: u64) -> Result<()> {
    let mut r = Reader::for_section(payload, "deleted", base);
    for seg in segments.iter_mut() {
        let n = r.u64()?;
        if n > 0 && n >= seg.rows {
            return Err(r.err(format!(
                "segment {} lists {n} deleted rows of {}: a list never covers every row",
                seg.name, seg.rows
            )));
        }
        if n > (r.remaining() / 8) as u64 {
            return Err(r.err(format!(
                "segment {} lists {n} deleted rows, more than the section holds",
                seg.name
            )));
        }
        let mut deleted = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let row = r.u64()?;
            if row >= seg.rows {
                return Err(r.err(format!(
                    "segment {} deletes row {row} of {}",
                    seg.name, seg.rows
                )));
            }
            if deleted.last().is_some_and(|&prev| prev >= row) {
                return Err(r.err(format!(
                    "segment {} lists deleted row {row} out of order or twice",
                    seg.name
                )));
            }
            deleted.push(row);
        }
        seg.deleted = deleted;
    }
    r.finish()?;
    if segments.iter().all(|s| s.deleted.is_empty()) {
        return Err(r.err("a deleted section that lists no rows"));
    }
    Ok(())
}

/// Parse and fully validate a `MANIFEST` image (both sections are tiny,
/// so nothing is deferred). Segment names are constrained to plain file
/// names — no path separators — so a corrupt or hostile manifest cannot
/// direct reads outside its own directory.
pub fn parse_manifest(bytes: &[u8]) -> Result<Manifest> {
    if !bytes.starts_with(MAGIC_V3) {
        return Err(header_err("bad magic (not a CBIRDB03 manifest)", 0).into());
    }
    let entries = parse_toc(bytes)?;
    if !is_manifest(&entries) {
        expect_sections(&entries, &MANIFEST_SECTION_ORDER)?;
    }
    let (balanced, pipeline) = {
        let payload = section_payload(bytes, &entries[0])?;
        decode_config(payload, entries[0].offset)?
    };
    let payload = section_payload(bytes, &entries[1])?;
    let mut r = Reader::for_section(payload, "manifest", entries[1].offset);
    let epoch = r.u64()?;
    let next_seg = r.u64()?;
    let n = r.u32()? as usize;
    if n > 1 << 20 {
        return Err(r.err(format!("implausible segment count {n}")));
    }
    let mut segments = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        if name.is_empty()
            || name.contains('/')
            || name.contains('\\')
            || name == "."
            || name == ".."
        {
            return Err(r.err(format!("segment name {name:?} is not a plain file name")));
        }
        let rows = r.u64()?;
        segments.push(ManifestEntry {
            name,
            rows,
            deleted: Vec::new(),
        });
    }
    r.finish()?;
    if let Some(entry) = entries.get(2) {
        let payload = section_payload(bytes, entry)?;
        decode_deleted(&mut segments, payload, entry.offset)?;
    }
    Ok(Manifest {
        epoch,
        next_seg,
        balanced,
        pipeline,
        segments,
    })
}

// ---------------------------------------------------------------------------
// fsck: section-by-section validation with first-corrupt-offset report.
// ---------------------------------------------------------------------------

/// One section's verification outcome in an [`FsckReport`].
#[derive(Debug)]
pub struct SectionStatus {
    /// Section name (`config` / `seghdr` / `metas` / `descriptors` /
    /// `manifest` / `unknown`).
    pub name: &'static str,
    /// Absolute payload offset in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// `None` when the section's checksum and structure are valid.
    pub error: Option<String>,
}

/// The result of validating a database file section-by-section.
#[derive(Debug)]
pub struct FsckReport {
    /// Detected format: `"CBIRDB03"`, `"CBIRDB02 (import only)"`, or
    /// `"unknown"`.
    pub format: &'static str,
    /// Per-section outcomes (empty when the header does not parse).
    pub sections: Vec<SectionStatus>,
    /// Lowest byte offset at which corruption was detected, if any.
    pub first_corrupt_offset: Option<u64>,
    /// Header-level or whole-file error, if any.
    pub error: Option<String>,
}

impl FsckReport {
    /// Whether the file validated clean.
    pub fn is_ok(&self) -> bool {
        self.error.is_none() && self.sections.iter().all(|s| s.error.is_none())
    }
}

fn fsck_record(report: &mut FsckReport, offset: u64) {
    let first = report.first_corrupt_offset.get_or_insert(offset);
    *first = (*first).min(offset);
}

/// Validate a file image section-by-section: header checksum and
/// geometry, every section's checksum (the full O(data) passes the
/// serving open defers), then a semantic decode — as a manifest or as a
/// database, by magic and section set. Unlike [`load_from_slice`] this
/// does not stop at the first bad checksum — every section is checked
/// so the report shows the full extent of the damage, alongside the
/// first corrupt offset.
pub fn fsck_slice(bytes: &[u8]) -> FsckReport {
    let mut report = FsckReport {
        format: "unknown",
        sections: Vec::new(),
        first_corrupt_offset: None,
        error: None,
    };
    let toc = match bytes.get(..8) {
        Some(m) if m == MAGIC_V3 => {
            report.format = "CBIRDB03";
            parse_toc(bytes)
        }
        Some(m) if m == MAGIC_V2 => {
            report.format = "CBIRDB02 (import only)";
            parse_import_toc(bytes)
        }
        _ => Err(unsupported_magic(bytes)),
    };
    let entries = match toc {
        Ok(entries) => entries,
        Err(e) => {
            fsck_record(&mut report, e.offset.unwrap_or(0));
            report.error = Some(e.to_string());
            return report;
        }
    };
    for entry in &entries {
        let error = section_payload(bytes, entry).err().map(|e| e.detail);
        if error.is_some() {
            fsck_record(&mut report, entry.offset);
        }
        report.sections.push(SectionStatus {
            name: section_name(entry.id),
            offset: entry.offset,
            len: entry.len,
            error,
        });
    }
    // Structure and checksums hold — the payloads must also decode.
    if report.is_ok() {
        let semantic = if bytes.starts_with(MAGIC_V3) && is_manifest(&entries) {
            parse_manifest(bytes).map(drop)
        } else {
            load_from_slice(bytes).map(drop)
        };
        if let Err(e) = semantic {
            let (msg, offset) = persist_parts(e);
            let section = report
                .sections
                .iter_mut()
                .rev()
                .find(|s| offset.is_some_and(|o| o >= s.offset));
            match section {
                Some(s) => s.error = Some(msg),
                None => report.error = Some(msg),
            }
            fsck_record(&mut report, offset.unwrap_or(0));
        }
    }
    report
}

/// The result of validating a whole segment directory file-by-file.
#[derive(Debug)]
pub struct DirFsckReport {
    /// Report for the `MANIFEST` file itself.
    pub manifest: FsckReport,
    /// Per-segment reports keyed by file name, in manifest order.
    pub segments: Vec<(String, FsckReport)>,
    /// `(file name, deleted rows, rows)` of every segment the manifest
    /// lists deleted rows for, in manifest order.
    pub deleted: Vec<(String, usize, u64)>,
    /// Segment files the manifest references but which could not be
    /// read, with the I/O error text.
    pub missing: Vec<(String, String)>,
    /// `.seg` files present in the directory but not referenced by the
    /// manifest — debris from an interrupted compaction. Harmless
    /// (never opened) and reclaimed by the next compaction, so they are
    /// reported but do not fail the check.
    pub orphans: Vec<String>,
}

impl DirFsckReport {
    /// Whether the manifest and every referenced segment validated clean.
    pub fn is_ok(&self) -> bool {
        self.manifest.is_ok()
            && self.missing.is_empty()
            && self.segments.iter().all(|(_, r)| r.is_ok())
    }
}

/// Validate a segment directory: the `MANIFEST`, then every referenced
/// segment file section-by-section (full checksum passes, unlike the
/// lazy serving open) and against the row count the manifest records
/// for it — the count its deleted-row list was checked against.
/// Unreferenced `.seg` files are listed as orphans. Errors carry the
/// offending *file* path, not just the directory.
pub fn fsck_dir(dir: impl AsRef<Path>) -> Result<DirFsckReport> {
    let dir = dir.as_ref();
    let manifest_path = dir.join(MANIFEST_FILE);
    let bytes = std::fs::read(&manifest_path).map_err(|e| {
        CoreError::Persist(
            PersistError::new(format!("cannot read manifest: {e}")).with_path(&manifest_path),
        )
    })?;
    let mut report = DirFsckReport {
        manifest: fsck_slice(&bytes),
        segments: Vec::new(),
        deleted: Vec::new(),
        missing: Vec::new(),
        orphans: Vec::new(),
    };
    let mut referenced = Vec::new();
    if let Ok(manifest) = parse_manifest(&bytes) {
        for entry in &manifest.segments {
            referenced.push(entry.name.clone());
            if !entry.deleted.is_empty() {
                let listed = (entry.name.clone(), entry.deleted.len(), entry.rows);
                report.deleted.push(listed);
            }
            let seg_path = dir.join(&entry.name);
            match std::fs::read(&seg_path) {
                Ok(seg_bytes) => {
                    let mut seg_report = fsck_slice(&seg_bytes);
                    let rows = parse_segment(&seg_bytes).map_or(entry.rows, |v| v.rows as u64);
                    if rows != entry.rows {
                        seg_report.error = Some(format!(
                            "segment has {rows} rows but the manifest records {}",
                            entry.rows
                        ));
                    }
                    report.segments.push((entry.name.clone(), seg_report));
                }
                Err(e) => report.missing.push((entry.name.clone(), e.to_string())),
            }
        }
    }
    let listing = std::fs::read_dir(dir).map_err(|e| {
        CoreError::Persist(
            PersistError::new(format!("cannot list segment directory: {e}")).with_path(dir),
        )
    })?;
    for item in listing.filter_map(|e| e.ok()) {
        let name = item.file_name().to_string_lossy().into_owned();
        if name.ends_with(".seg") && !referenced.contains(&name) {
            report.orphans.push(name);
        }
    }
    report.orphans.sort();
    Ok(report)
}

/// Split a load error into its message and offset (non-persist errors
/// have no offset).
fn persist_parts(e: CoreError) -> (String, Option<u64>) {
    match e {
        CoreError::Persist(p) => {
            let offset = p.offset;
            (p.to_string(), offset)
        }
        other => (other.to_string(), None),
    }
}

// ---------------------------------------------------------------------------
// File I/O: atomic save, checked load.
// ---------------------------------------------------------------------------

/// Save a database to a file — one `CBIRDB03` segment — atomically.
///
/// The serialized image is written to a temp sibling, fsynced, renamed
/// over `path`, and the directory fsynced: after a crash or I/O failure
/// at any point, `path` holds either the complete previous snapshot or
/// the complete new one — never a partial state.
///
/// I/O failures are reported as [`CoreError::Persist`] naming the path.
/// The `CBIR_FAULT_SAVE_OP` environment variable (see
/// [`crate::faults::policy_from_env`]) injects a deterministic failure
/// for crash-recovery testing.
pub fn save_file(db: &ImageDatabase, path: impl AsRef<Path>) -> Result<()> {
    match crate::faults::policy_from_env() {
        Some(mut policy) => save_file_with(db, path, policy.as_mut()),
        None => save_file_with(db, path, &mut NoFaults),
    }
}

/// [`save_file`] with an explicit fault policy — the entry point the
/// crash-consistency tests sweep.
pub fn save_file_with(
    db: &ImageDatabase,
    path: impl AsRef<Path>,
    policy: &mut dyn FaultPolicy,
) -> Result<()> {
    write_file_atomic(path, &save_to_vec(db)?, policy)
}

/// Write raw bytes to `path` atomically — temp sibling, fsync, rename,
/// directory fsync — consulting `policy` at every fault point. This is
/// the primitive the segment store builds compaction on: each segment
/// and the manifest go through this sequence, and the manifest rename is
/// the compaction's commit point.
pub fn write_file_atomic(
    path: impl AsRef<Path>,
    bytes: &[u8],
    policy: &mut dyn FaultPolicy,
) -> Result<()> {
    let path = path.as_ref();
    atomic_write(path, bytes, policy).map_err(|e| CoreError::Persist(e.with_path(path)))
}

/// Read a whole file, reporting failure as a [`PersistError`] that
/// names the *file* (not just its directory) — segment-directory
/// corruption reports stay actionable even when many files are in play.
pub fn read_file_bytes(path: impl AsRef<Path>) -> Result<Vec<u8>> {
    let path = path.as_ref();
    std::fs::read(path).map_err(|e| {
        CoreError::Persist(PersistError::new(format!("cannot read file: {e}")).with_path(path))
    })
}

fn op_err(what: &str, e: std::io::Error) -> PersistError {
    PersistError::new(format!(
        "cannot {what}: {e} (previous snapshot left untouched)"
    ))
}

fn injected(kind: std::io::ErrorKind) -> std::io::Error {
    std::io::Error::new(kind, "injected fault")
}

fn atomic_write(
    path: &Path,
    bytes: &[u8],
    policy: &mut dyn FaultPolicy,
) -> std::result::Result<(), PersistError> {
    let file_name = path
        .file_name()
        .ok_or_else(|| PersistError::new("path has no file name"))?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => Path::new(".").to_path_buf(),
    };
    let tmp = dir.join(format!(
        "{}.{}.tmp",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = write_temp_then_rename(path, &tmp, bytes, policy);
    if result.is_err() {
        // Best-effort cleanup; the target path was never touched unless
        // the rename itself completed.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_temp_then_rename(
    path: &Path,
    tmp: &Path,
    bytes: &[u8],
    policy: &mut dyn FaultPolicy,
) -> std::result::Result<(), PersistError> {
    if let FaultAction::Fail(kind) = policy.before(&FaultPoint::CreateTemp) {
        return Err(op_err("create temp file", injected(kind)));
    }
    let mut file = std::fs::File::create(tmp).map_err(|e| op_err("create temp file", e))?;

    let mut written = 0u64;
    for chunk in bytes.chunks(SAVE_CHUNK) {
        match policy.before(&FaultPoint::Write { written, chunk }) {
            FaultAction::Proceed => {
                file.write_all(chunk)
                    .map_err(|e| op_err("write database image", e))?;
            }
            FaultAction::Fail(kind) => {
                return Err(op_err("write database image", injected(kind)));
            }
            FaultAction::Torn { keep, kind } => {
                let keep = keep.min(chunk.len());
                let _ = file.write_all(&chunk[..keep]);
                let _ = file.sync_all();
                return Err(op_err("write database image (torn write)", injected(kind)));
            }
            FaultAction::FlipBit { at, bit } => {
                let mut corrupt = chunk.to_vec();
                if let Some(b) = corrupt.get_mut(at) {
                    *b ^= 1 << (bit & 7);
                }
                file.write_all(&corrupt)
                    .map_err(|e| op_err("write database image", e))?;
            }
        }
        written += chunk.len() as u64;
    }

    if let FaultAction::Fail(kind) = policy.before(&FaultPoint::SyncFile) {
        return Err(op_err("sync temp file", injected(kind)));
    }
    file.sync_all().map_err(|e| op_err("sync temp file", e))?;
    drop(file);

    if let FaultAction::Fail(kind) = policy.before(&FaultPoint::Rename) {
        return Err(op_err("rename temp file into place", injected(kind)));
    }
    std::fs::rename(tmp, path).map_err(|e| op_err("rename temp file into place", e))?;

    if let FaultAction::Fail(kind) = policy.before(&FaultPoint::SyncDir) {
        return Err(op_err("sync directory", injected(kind)));
    }
    // Make the rename durable. Directories cannot be opened for sync on
    // every platform; when they can't, the rename is still atomic.
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all().map_err(|e| op_err("sync directory", e))?;
        }
    }
    Ok(())
}

/// Load a database from a file.
///
/// Both I/O failures (missing file, permissions) and format violations
/// (truncation, bad magic, checksum mismatches, corrupt fields) are
/// reported as [`CoreError::Persist`] naming the offending path, the
/// section, and — when known — the corrupt offset.
pub fn load_file(path: impl AsRef<Path>) -> Result<ImageDatabase> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| {
        CoreError::Persist(
            PersistError::new(format!("cannot read database file: {e}")).with_path(path),
        )
    })?;
    load_from_slice(&bytes).map_err(|e| match e {
        CoreError::Persist(p) => CoreError::Persist(p.with_path(path)),
        other => other,
    })
}

/// Validate a database file section-by-section (see [`fsck_slice`]).
pub fn fsck_file(path: impl AsRef<Path>) -> Result<FsckReport> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| {
        CoreError::Persist(
            PersistError::new(format!("cannot read database file: {e}")).with_path(path),
        )
    })?;
    Ok(fsck_slice(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbir_image::{Rgb, RgbImage};

    fn full_pipeline() -> Pipeline {
        Pipeline::new(
            32,
            vec![
                FeatureSpec::ColorHistogram(Quantizer::hsv_default()),
                FeatureSpec::ColorMoments,
                FeatureSpec::Correlogram {
                    quantizer: Quantizer::rgb_compact(),
                    distances: vec![1, 3],
                },
                FeatureSpec::Glcm { levels: 8 },
                FeatureSpec::Tamura,
                FeatureSpec::Wavelet { levels: 2 },
                FeatureSpec::EdgeOrientation { bins: 8 },
                FeatureSpec::EdgeDensityGrid {
                    grid: 2,
                    threshold: 10.0,
                },
                FeatureSpec::HuMoments,
                FeatureSpec::ShapeSummary,
                FeatureSpec::DtHistogram { bins: 8 },
                FeatureSpec::RegionShape,
            ],
        )
        .unwrap()
    }

    fn populated_db() -> ImageDatabase {
        let mut db = ImageDatabase::new(full_pipeline());
        for (i, color) in [(0u32, Rgb::new(200, 30, 30)), (1, Rgb::new(30, 30, 200))]
            .into_iter()
            .enumerate()
        {
            let img = RgbImage::from_fn(24, 24, |x, y| {
                if (x + y) % 3 == 0 {
                    color.1
                } else {
                    Rgb::new(240, 240, 240)
                }
            });
            if i == 0 {
                db.insert_labeled("first.ppm", color.0, &img).unwrap();
            } else {
                db.insert("second.ppm", &img).unwrap();
            }
        }
        db
    }

    type Crc = fn(&[u8]) -> u32;

    /// Every implementation the host can run, by name. The dispatcher
    /// is listed too: it is what the rest of the file calls.
    fn crc_impls() -> Vec<(&'static str, Crc)> {
        let mut impls: Vec<(&'static str, Crc)> =
            vec![("dispatch", crc32c), ("portable", crc32c_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the SSE4.2 requirement is checked at runtime above.
            impls.push(("sse4.2", |b| unsafe { crc32c_sse42(b) }));
        }
        impls
    }

    /// The byte-at-a-time table walk both fast paths replaced, kept as
    /// the oracle they are compared against.
    fn crc32c_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Run `body` with [`crc32c`] pinned to the portable path on this
    /// thread (a no-op where that already is the only path).
    fn with_portable_crc<T>(body: impl FnOnce() -> T) -> T {
        FORCE_PORTABLE_CRC.set(true);
        let out = body();
        FORCE_PORTABLE_CRC.set(false);
        out
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 / standard Castagnoli check values.
        for (name, crc) in crc_impls() {
            assert_eq!(crc(b""), 0, "{name}");
            assert_eq!(crc(b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA, "{name}");
        }
    }

    #[test]
    fn crc32c_paths_agree_on_every_short_length_and_offset_and_on_a_mebibyte() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut buf = vec![0u8; 1 << 20];
        for b in &mut buf {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            *b = (rng >> 32) as u8;
        }
        for (name, crc) in crc_impls() {
            for offset in 0..8 {
                for len in 0..=257 {
                    let slice = &buf[offset..offset + len];
                    assert_eq!(
                        crc(slice),
                        crc32c_bytewise(slice),
                        "{name}: offset {offset}, len {len}"
                    );
                }
            }
            assert_eq!(crc(&buf), crc32c_bytewise(&buf), "{name}: 1 MiB");
        }
    }

    /// A small corpus whose bytes depend on nothing but this function
    /// (no feature extraction), so the file goldens below only move when
    /// the file format does.
    fn golden_db() -> ImageDatabase {
        let pipeline = Pipeline::new(
            16,
            vec![FeatureSpec::ColorHistogram(Quantizer::UniformRgb {
                per_channel: 2,
            })],
        )
        .unwrap();
        let rows = 37;
        let flat = (0..rows * pipeline.dim())
            .map(|i| ((i * 2_654_435_761) % 1000) as f32 / 1000.0)
            .collect();
        let metas = (0..rows)
            .map(|i| ImageMeta {
                name: format!("golden-{i:03}.ppm"),
                label: (i % 3 != 0).then_some(i as u32 % 5),
            })
            .collect();
        ImageDatabase::from_parts(pipeline, true, flat, metas).unwrap()
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn written_files_match_the_goldens_on_both_checksum_paths() {
        // (length, FNV-1a) of each file as the byte-at-a-time checksum
        // wrote it, before the hardware and slicing paths existed.
        let db = golden_db();
        let manifest = Manifest {
            epoch: 7,
            next_seg: 3,
            balanced: true,
            pipeline: db.pipeline().clone(),
            segments: vec![ManifestEntry {
                name: segment_file_name(2),
                rows: db.len() as u64,
                deleted: Vec::new(),
            }],
        };
        let write_all = || [save_to_vec(&db).unwrap(), encode_manifest(&manifest)];
        let goldens = [
            (2272, 0x3B23_428C_C80C_5D4Bu64), // saved database = one segment
            (176, 0x60B1_2673_B170_394B),     // MANIFEST
        ];
        for (path, files) in [
            ("dispatch", write_all()),
            ("portable", with_portable_crc(write_all)),
        ] {
            for (file, (len, fnv)) in files.iter().zip(goldens) {
                assert_eq!((file.len(), fnv1a64(file)), (len, fnv), "{path}");
            }
        }
    }

    /// `cbir index` of the parent commit wrote this (4 images, `shape`
    /// pipeline); `tests/persist_faults.rs` pins its content.
    const IMPORT_FIXTURE: &[u8] = include_bytes!("../tests/data/cbirdb02-shape.cbir");

    #[test]
    fn fault_sweeps_hold_on_both_checksum_paths() {
        // The sweeps of `tests/persist_faults.rs` — every header bit
        // flip, every truncation — on files small enough to be
        // exhaustive, once per path; a file written on one path must
        // also verify on the other.
        let saved = save_to_vec(&golden_db()).unwrap();
        let listed = encode_manifest(&listed_manifest());
        let load: fn(&[u8]) -> Result<()> = |b| load_from_slice(b).map(drop);
        let open_manifest: fn(&[u8]) -> Result<()> = |b| parse_manifest(b).map(drop);
        let sweep = |path: &str| {
            for (what, file, toc_len, read) in [
                (
                    "saved",
                    &saved[..],
                    SEGMENT_SECTION_ORDER.len() * TOC_ENTRY_LEN,
                    load,
                ),
                (
                    "import",
                    IMPORT_FIXTURE,
                    IMPORT_SECTION_ORDER.len() * IMPORT_TOC_ENTRY_LEN,
                    load,
                ),
                (
                    "manifest with deleted rows",
                    &listed[..],
                    MANIFEST_DELETED_SECTION_ORDER.len() * TOC_ENTRY_LEN,
                    open_manifest,
                ),
            ] {
                read(file).unwrap();
                assert!(fsck_slice(file).is_ok(), "{path}/{what}");
                let header_len = 8 + 4 + toc_len + 4;
                for bit in 0..header_len * 8 {
                    let mut corrupt = file.to_vec();
                    corrupt[bit / 8] ^= 1 << (bit % 8);
                    assert!(
                        matches!(read(&corrupt), Err(CoreError::Persist(_))),
                        "{path}/{what}: header flip at bit {bit} not a typed error"
                    );
                    assert!(!fsck_slice(&corrupt).is_ok(), "{path}/{what}: bit {bit}");
                }
                for len in 0..file.len() {
                    assert!(
                        matches!(read(&file[..len]), Err(CoreError::Persist(_))),
                        "{path}/{what}: truncation to {len} not a typed error"
                    );
                    assert!(!fsck_slice(&file[..len]).is_ok(), "{path}/{what}: {len}");
                }
            }
        };
        sweep("dispatch");
        with_portable_crc(|| sweep("portable"));
    }

    #[test]
    fn crc32c_detects_every_single_bit_flip() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32c(&data);
        let mut copy = data.clone();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32c(&copy), clean, "flip at {byte}.{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = populated_db();
        let bytes = save_to_vec(&db).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V3);
        let loaded = load_from_slice(&bytes).unwrap();
        assert_eq!(loaded.len(), db.len());
        assert_eq!(loaded.dim(), db.dim());
        assert_eq!(loaded.is_balanced(), db.is_balanced());
        assert_eq!(loaded.pipeline().specs(), db.pipeline().specs());
        assert_eq!(
            loaded.pipeline().canonical_size(),
            db.pipeline().canonical_size()
        );
        for i in 0..db.len() {
            assert_eq!(loaded.descriptor(i).unwrap(), db.descriptor(i).unwrap());
            assert_eq!(loaded.meta(i).unwrap(), db.meta(i).unwrap());
        }
    }

    #[test]
    fn a_cbirdb01_header_is_refused_by_name_not_as_bad_magic() {
        let mut bytes = save_to_vec(&populated_db()).unwrap();
        bytes[..8].copy_from_slice(MAGIC_V1);
        let Err(CoreError::Persist(e)) = load_from_slice(&bytes) else {
            panic!("a CBIRDB01 header must be a typed persist error");
        };
        assert_eq!(e.section, Some("header"));
        assert!(e.detail.contains("CBIRDB01"), "{}", e.detail);
        assert!(e.detail.contains("re-index"), "{}", e.detail);
        assert!(!e.detail.contains("bad magic"), "{}", e.detail);
        // fsck refuses in the same words, and any other magic is named
        // against the same two formats by both.
        let report = fsck_slice(&bytes);
        assert!(report.error.as_ref().unwrap().contains(&e.detail));
        assert_eq!(report.first_corrupt_offset, Some(0));
        bytes[..8].copy_from_slice(b"NOTCBIR!");
        let Err(CoreError::Persist(e)) = load_from_slice(&bytes) else {
            panic!("bad magic must be a typed persist error");
        };
        assert!(e.detail.contains("CBIRDB03") && e.detail.contains("CBIRDB02"));
        assert!(fsck_slice(&bytes).error.unwrap().contains(&e.detail));
    }

    #[test]
    fn roundtrip_raw_extraction_flag() {
        let mut db = ImageDatabase::with_raw_extraction(full_pipeline());
        db.insert("x", &RgbImage::filled(16, 16, Rgb::new(1, 2, 3)))
            .unwrap();
        let loaded = load_from_slice(&save_to_vec(&db).unwrap()).unwrap();
        assert!(!loaded.is_balanced());
    }

    #[test]
    fn corrupted_data_is_rejected() {
        let db = populated_db();
        let bytes = save_to_vec(&db).unwrap();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(load_from_slice(&bad), Err(CoreError::Persist(_))));

        // Truncated.
        assert!(load_from_slice(&bytes[..bytes.len() - 3]).is_err());
        assert!(load_from_slice(&bytes[..20]).is_err());
        assert!(load_from_slice(b"").is_err());

        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(load_from_slice(&extended).is_err());
    }

    #[test]
    fn payload_bit_flips_are_caught_by_section_checksums() {
        let db = populated_db();
        let bytes = save_to_vec(&db).unwrap();
        let entries = parse_toc(&bytes).unwrap();
        for entry in &entries {
            let mut corrupt = bytes.clone();
            let mid = (entry.offset + entry.len / 2) as usize;
            corrupt[mid] ^= 0x10;
            let err = load_from_slice(&corrupt).unwrap_err();
            match err {
                CoreError::Persist(p) => {
                    assert_eq!(p.section, Some(section_name(entry.id)));
                    assert!(p.detail.contains("checksum"), "{}", p.detail);
                }
                other => panic!("expected Persist, got {other:?}"),
            }
        }
    }

    /// A valid file image with what a test needs to edit a payload and
    /// reseal it.
    #[derive(Clone)]
    struct Image {
        file: Vec<u8>,
        toc: Vec<TocEntry>,
        entry_len: usize,
        /// Offset of the CRC within a table entry.
        crc_at: usize,
        /// File offset of the first descriptor component.
        matrix_at: u64,
    }

    impl Image {
        fn section(&self, id: u8) -> usize {
            self.toc.iter().position(|e| e.id == id).unwrap()
        }

        /// Recompute section `i`'s checksum and the header's after a
        /// deliberate payload edit, so only semantic validation can
        /// object.
        fn reseal(&mut self, i: usize) {
            let e = &self.toc[i];
            let crc = crc32c(&self.file[e.offset as usize..(e.offset + e.len) as usize]);
            let at = 12 + i * self.entry_len + self.crc_at;
            self.file[at..at + 4].copy_from_slice(&crc.to_le_bytes());
            let toc_end = 12 + self.toc.len() * self.entry_len;
            let header_crc = crc32c(&self.file[..toc_end]);
            self.file[toc_end..toc_end + 4].copy_from_slice(&header_crc.to_le_bytes());
        }
    }

    /// A saved file and the import fixture.
    fn both_formats() -> [Image; 2] {
        let file = save_to_vec(&populated_db()).unwrap();
        let toc = parse_toc(&file).unwrap();
        let import_toc = parse_import_toc(IMPORT_FIXTURE).unwrap();
        [
            Image {
                matrix_at: toc[3].offset,
                file,
                toc,
                entry_len: TOC_ENTRY_LEN,
                crc_at: 4,
            },
            Image {
                matrix_at: import_toc[1].offset + 12,
                file: IMPORT_FIXTURE.to_vec(),
                toc: import_toc,
                entry_len: IMPORT_TOC_ENTRY_LEN,
                crc_at: 9,
            },
        ]
    }

    #[test]
    fn forged_checksum_with_implausible_count_is_still_an_error() {
        // An adversarial file: corrupt the row count (it opens section 1
        // in both layouts) AND fix up the section + header checksums —
        // it must error, never abort on allocation.
        for mut image in both_formats() {
            let start = image.toc[1].offset as usize;
            image.file[start..start + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            image.reseal(1);
            let Err(CoreError::Persist(p)) = load_from_slice(&image.file) else {
                panic!("forged row count must be a typed persist error");
            };
            assert_eq!(p.section, Some(section_name(image.toc[1].id)));
            assert!(p.detail.contains("overflows"), "{}", p.detail);
            assert!(!fsck_slice(&image.file).is_ok());
        }
    }

    #[test]
    fn a_checksum_valid_non_finite_component_is_refused_at_its_offset_in_every_format() {
        for clean in both_formats() {
            let dim = load_from_slice(&clean.file).unwrap().dim();
            let matrix_section = clean.section(SEC_DESCRIPTORS);
            for (component, value) in [(0, f32::NAN), (dim + 2, f32::INFINITY)] {
                let at = clean.matrix_at + 4 * component as u64;
                let mut forged = clean.clone();
                forged.file[at as usize..at as usize + 4].copy_from_slice(&value.to_le_bytes());
                forged.reseal(matrix_section);
                let Err(CoreError::Persist(p)) = load_from_slice(&forged.file) else {
                    panic!("{value} at component {component} loaded");
                };
                assert_eq!((p.section, p.offset), (Some("descriptors"), Some(at)));
                assert!(p.detail.contains("non-finite"), "{}", p.detail);
                let report = fsck_slice(&forged.file);
                assert_eq!(report.first_corrupt_offset, Some(at));
                assert!(report.sections[matrix_section].error.is_some());
                // The store's lazy open defers O(data) checks by design.
                if forged.file.starts_with(MAGIC_V3) {
                    let seg = parse_segment(&forged.file).unwrap();
                    seg.verify_descriptors(&forged.file).unwrap();
                }
            }
        }
    }

    #[test]
    fn every_spec_variant_roundtrips_alone() {
        let mut variants: Vec<FeatureSpec> = [
            Quantizer::Gray { bins: 8 },
            Quantizer::UniformRgb { per_channel: 3 },
            Quantizer::hsv_default(),
            Quantizer::Lab { l: 4, a: 3, b: 3 },
        ]
        .into_iter()
        .map(FeatureSpec::ColorHistogram)
        .collect();
        variants.extend([
            FeatureSpec::ColorMoments,
            FeatureSpec::Correlogram {
                quantizer: Quantizer::Gray { bins: 4 },
                distances: vec![1, 2, 5],
            },
            FeatureSpec::Glcm { levels: 8 },
            FeatureSpec::Tamura,
            FeatureSpec::Wavelet { levels: 1 },
            FeatureSpec::EdgeOrientation { bins: 12 },
            FeatureSpec::EdgeDensityGrid {
                grid: 3,
                threshold: 5.5,
            },
            FeatureSpec::HuMoments,
            FeatureSpec::ShapeSummary,
            FeatureSpec::DtHistogram { bins: 6 },
            FeatureSpec::RegionShape,
        ]);
        let img = RgbImage::from_fn(20, 20, |x, y| Rgb::new((x * 11) as u8, (y * 9) as u8, 77));
        for spec in variants {
            let pipeline = Pipeline::new(16, vec![spec.clone()]).unwrap();
            let mut db = ImageDatabase::new(pipeline);
            db.insert("probe.ppm", &img).unwrap();
            let loaded = load_from_slice(&save_to_vec(&db).unwrap())
                .unwrap_or_else(|e| panic!("roundtrip failed for {spec:?}: {e}"));
            assert_eq!(loaded.pipeline().specs(), db.pipeline().specs(), "{spec:?}");
            assert_eq!(
                loaded.descriptor(0).unwrap(),
                db.descriptor(0).unwrap(),
                "descriptor diverged for {spec:?}"
            );
            // Empty databases of the same shape must also survive.
            let empty = ImageDatabase::new(Pipeline::new(16, vec![spec.clone()]).unwrap());
            let loaded = load_from_slice(&save_to_vec(&empty).unwrap()).unwrap();
            assert_eq!(loaded.len(), 0, "{spec:?}");
            assert_eq!(loaded.pipeline().specs(), empty.pipeline().specs());
        }
    }

    #[test]
    fn a_quantizer_whose_bin_product_wraps_u32_is_refused_at_load() {
        // An empty collection would load and then panic at its first
        // insert: 65,536 × 65,536 × 1 wraps a u32 bin product to 0 bins.
        for (valid, wrapped) in [
            (
                Quantizer::Hsv {
                    hue: 16,
                    sat: 16,
                    val: 1,
                },
                [65536u32, 65536, 1],
            ),
            (Quantizer::Lab { l: 16, a: 16, b: 2 }, [65536, 65536, 2]),
        ] {
            let db = ImageDatabase::new(
                Pipeline::new(16, vec![FeatureSpec::ColorHistogram(valid.clone())]).unwrap(),
            );
            let file = save_to_vec(&db).unwrap();
            let toc = parse_toc(&file).unwrap();
            let mut image = Image {
                matrix_at: toc[3].offset,
                file,
                toc,
                entry_len: TOC_ENTRY_LEN,
                crc_at: 4,
            };
            let config = image.section(SEC_CONFIG);
            let (start, len) = (image.toc[config].offset as usize, image.toc[config].len);
            let axes =
                |v: [u32; 3]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
            let was = match valid {
                Quantizer::Hsv { hue, sat, val } => axes([hue, sat, val]),
                Quantizer::Lab { l, a, b } => axes([l, a, b]),
                _ => unreachable!(),
            };
            let payload = &mut image.file[start..start + len as usize];
            let at = payload
                .windows(was.len())
                .position(|w| w == was.as_slice())
                .expect("quantizer axes in the config section");
            payload[at..at + was.len()].copy_from_slice(&axes(wrapped));
            image.reseal(config);
            match load_from_slice(&image.file) {
                Err(CoreError::Feature(e)) => {
                    assert!(e.to_string().contains("out of range"), "{e}")
                }
                other => panic!("{wrapped:?}: {:?}", other.map(|d| d.len())),
            }
        }
    }

    #[test]
    fn load_file_missing_path_is_a_clear_persist_error() {
        let path = std::env::temp_dir().join("cbir_persist_test_no_such_file.cbir");
        std::fs::remove_file(&path).ok();
        let err = load_file(&path).unwrap_err();
        match &err {
            CoreError::Persist(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("cbir_persist_test_no_such_file.cbir"),
                    "message must name the path: {msg}"
                );
                assert!(msg.contains("cannot read"), "message must say why: {msg}");
            }
            other => panic!("expected CoreError::Persist, got {other:?}"),
        }
    }

    #[test]
    fn load_file_truncated_and_bad_magic_name_the_path() {
        let db = populated_db();
        let dir = std::env::temp_dir().join("cbir_persist_test_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let bytes = save_to_vec(&db).unwrap();

        let truncated = dir.join("truncated.cbir");
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_file(&truncated).unwrap_err();
        match &err {
            CoreError::Persist(e) => {
                let msg = e.to_string();
                assert!(msg.contains("truncated.cbir"), "path missing: {msg}");
            }
            other => panic!("expected CoreError::Persist, got {other:?}"),
        }

        let bad_magic = dir.join("bad_magic.cbir");
        let mut corrupt = bytes.clone();
        corrupt[..8].copy_from_slice(b"NOTCBIR!");
        std::fs::write(&bad_magic, &corrupt).unwrap();
        let err = load_file(&bad_magic).unwrap_err();
        match &err {
            CoreError::Persist(e) => {
                let msg = e.to_string();
                assert!(msg.contains("bad_magic.cbir"), "path missing: {msg}");
                assert!(msg.contains("magic"), "cause missing: {msg}");
            }
            other => panic!("expected CoreError::Persist, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrip_is_atomic_and_leaves_no_temp_files() {
        let db = populated_db();
        let dir = std::env::temp_dir().join("cbir_persist_test_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.cbir");
        save_file(&db, &path).unwrap();
        let loaded = load_file(&path).unwrap();
        assert_eq!(loaded.len(), db.len());
        // Overwrite in place (the temp + rename path with a live target).
        save_file(&db, &path).unwrap();
        assert_eq!(load_file(&path).unwrap().len(), db.len());
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_database_extracts_identically() {
        let db = populated_db();
        let loaded = load_from_slice(&save_to_vec(&db).unwrap()).unwrap();
        let img = RgbImage::from_fn(20, 20, |x, _| Rgb::new((x * 12) as u8, 100, 50));
        assert_eq!(db.extract(&img).unwrap(), loaded.extract(&img).unwrap());
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = ImageDatabase::new(full_pipeline());
        let loaded = load_from_slice(&save_to_vec(&db).unwrap()).unwrap();
        assert_eq!(loaded.len(), 0);
    }

    #[test]
    fn fsck_reports_clean_file_as_ok() {
        let expected = [
            (
                "CBIRDB03",
                &["config", "seghdr", "metas", "descriptors"][..],
            ),
            (
                "CBIRDB02 (import only)",
                &["config", "descriptors", "metas"][..],
            ),
        ];
        for (image, (format, sections)) in both_formats().iter().zip(expected) {
            let report = fsck_slice(&image.file);
            assert!(report.is_ok(), "{report:?}");
            assert_eq!(report.format, format);
            assert_eq!(report.first_corrupt_offset, None);
            let names: Vec<_> = report.sections.iter().map(|s| s.name).collect();
            assert_eq!(names, sections);
        }
    }

    #[test]
    fn fsck_reports_first_corrupt_offset() {
        let bad_sections = |report: &FsckReport| -> Vec<&'static str> {
            report
                .sections
                .iter()
                .filter(|s| s.error.is_some())
                .map(|s| s.name)
                .collect()
        };
        for image in both_formats() {
            let bytes = &image.file;
            let entry = |id| &image.toc[image.section(id)];

            // Corrupt the middle of the descriptors payload.
            let descriptors = entry(SEC_DESCRIPTORS);
            let mut corrupt = bytes.clone();
            corrupt[(descriptors.offset + descriptors.len / 2) as usize] ^= 0x01;
            let report = fsck_slice(&corrupt);
            assert!(!report.is_ok());
            assert_eq!(report.first_corrupt_offset, Some(descriptors.offset));
            assert_eq!(bad_sections(&report), ["descriptors"]);

            // Corrupt two sections: both are reported (fsck does not
            // stop at the first).
            let mut corrupt = bytes.clone();
            corrupt[entry(SEC_CONFIG).offset as usize] ^= 0x80;
            corrupt[entry(SEC_METAS).offset as usize] ^= 0x80;
            let report = fsck_slice(&corrupt);
            assert_eq!(bad_sections(&report), ["config", "metas"]);
            assert_eq!(report.first_corrupt_offset, Some(entry(SEC_CONFIG).offset));

            // Header corruption.
            let mut corrupt = bytes.clone();
            corrupt[9] ^= 0x02; // section count
            let report = fsck_slice(&corrupt);
            assert!(!report.is_ok());
            assert!(report.error.is_some());
        }
    }

    #[test]
    fn segment_roundtrips_with_aligned_descriptors() {
        let db = populated_db();
        let bytes = save_to_vec(&db).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V3);

        let seg = parse_segment(&bytes).unwrap();
        assert_eq!(seg.rows, db.len());
        assert_eq!(seg.dim, db.dim());
        assert_eq!(seg.balanced, db.is_balanced());
        assert_eq!(seg.pipeline.specs(), db.pipeline().specs());
        let range = seg.descriptor_range();
        assert_eq!(range.start % 64, 0, "descriptors must be 64-byte aligned");
        assert_eq!(range.len(), db.len() * db.dim() * 4);
        seg.verify_descriptors(&bytes).unwrap();
        assert_eq!(seg.decode_metas(&bytes).unwrap(), db.metas());
        assert_eq!(seg.decode_descriptors_owned(&bytes), db.flat_descriptors());

        // A bare .seg file also loads as a full database.
        let loaded = load_from_slice(&bytes).unwrap();
        assert_eq!(loaded.len(), db.len());
        for i in 0..db.len() {
            assert_eq!(loaded.descriptor(i).unwrap(), db.descriptor(i).unwrap());
            assert_eq!(loaded.meta(i).unwrap(), db.meta(i).unwrap());
        }

        // Empty segments are legal (an empty store still has a manifest,
        // but compaction of a fully-deleted corpus writes none).
        let empty = ImageDatabase::new(full_pipeline());
        let bytes = save_to_vec(&empty).unwrap();
        let seg = parse_segment(&bytes).unwrap();
        assert_eq!(seg.rows, 0);
        assert_eq!(load_from_slice(&bytes).unwrap().len(), 0);
    }

    #[test]
    fn descriptor_corruption_is_deferred_but_not_missed() {
        let db = populated_db();
        let bytes = save_to_vec(&db).unwrap();
        let seg = parse_segment(&bytes).unwrap();
        let mid = seg.descriptor_range().start + seg.descriptor_range().len() / 2;

        let mut corrupt = bytes.clone();
        corrupt[mid] ^= 0x08;
        // The open path defers the descriptor CRC...
        let reopened = parse_segment(&corrupt).unwrap();
        // ...but the deferred check and fsck both catch the flip.
        let err = reopened.verify_descriptors(&corrupt).unwrap_err();
        match err {
            CoreError::Persist(p) => assert_eq!(p.section, Some("descriptors")),
            other => panic!("expected Persist, got {other:?}"),
        }
        let report = fsck_slice(&corrupt);
        assert!(!report.is_ok());
        assert_eq!(report.format, "CBIRDB03");
        let bad: Vec<_> = report
            .sections
            .iter()
            .filter(|s| s.error.is_some())
            .map(|s| s.name)
            .collect();
        assert_eq!(bad, ["descriptors"]);
        assert!(report.first_corrupt_offset.is_some());

        // Config corruption, by contrast, is caught eagerly at open:
        // the first payload sits at the first 64-byte boundary past the
        // 4-entry header.
        let config_at = ((12 + 4 * TOC_ENTRY_LEN + 4) as u64).next_multiple_of(SEG_ALIGN) as usize;
        let mut corrupt = bytes.clone();
        corrupt[config_at] ^= 0x01;
        let err = parse_segment(&corrupt).unwrap_err();
        match err {
            CoreError::Persist(p) => assert_eq!(p.section, Some("config")),
            other => panic!("expected Persist, got {other:?}"),
        }
    }

    #[test]
    fn alignment_gaps_must_be_zero() {
        let db = populated_db();
        let mut bytes = save_to_vec(&db).unwrap();
        // The gap between header end and the first aligned payload is
        // not covered by any section CRC — the zero-fill rule covers it.
        let header_end = 12 + 4 * TOC_ENTRY_LEN + 4;
        let first_payload = (header_end as u64).next_multiple_of(SEG_ALIGN) as usize;
        assert!(first_payload > header_end, "test needs a nonempty gap");
        bytes[header_end] = 0xFF;
        let err = parse_segment(&bytes).unwrap_err();
        match err {
            CoreError::Persist(p) => assert!(p.detail.contains("zero-filled"), "{}", p.detail),
            other => panic!("expected Persist, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let db = populated_db();
        let bytes = save_to_vec(&db).unwrap();
        assert!(parse_segment(&bytes[..bytes.len() - 1]).is_err());
        assert!(parse_segment(&bytes[..100]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(parse_segment(&extended).is_err());
    }

    #[test]
    fn manifest_roundtrips_and_rejects_path_traversal() {
        let db = populated_db();
        let manifest = Manifest {
            epoch: 7,
            next_seg: 3,
            balanced: db.is_balanced(),
            pipeline: db.pipeline().clone(),
            segments: vec![
                ManifestEntry {
                    name: segment_file_name(0),
                    rows: 2,
                    deleted: Vec::new(),
                },
                ManifestEntry {
                    name: segment_file_name(2),
                    rows: 5,
                    deleted: Vec::new(),
                },
            ],
        };
        let bytes = encode_manifest(&manifest);
        let parsed = parse_manifest(&bytes).unwrap();
        assert_eq!(parsed.epoch, 7);
        assert_eq!(parsed.next_seg, 3);
        assert_eq!(parsed.balanced, manifest.balanced);
        assert_eq!(parsed.pipeline.specs(), manifest.pipeline.specs());
        assert_eq!(parsed.segments, manifest.segments);
        assert!(fsck_slice(&bytes).is_ok());

        // An empty segment list is a valid (empty) store.
        let empty = Manifest {
            segments: Vec::new(),
            ..manifest.clone()
        };
        assert!(parse_manifest(&encode_manifest(&empty))
            .unwrap()
            .segments
            .is_empty());

        // Names that escape the directory are rejected at parse time.
        for bad in ["../evil.seg", "a/b.seg", "", ".."] {
            let hostile = Manifest {
                segments: vec![ManifestEntry {
                    name: bad.into(),
                    rows: 1,
                    deleted: Vec::new(),
                }],
                ..manifest.clone()
            };
            let err = parse_manifest(&encode_manifest(&hostile)).unwrap_err();
            match err {
                CoreError::Persist(p) => assert_eq!(p.section, Some("manifest")),
                other => panic!("expected Persist, got {other:?}"),
            }
        }
    }

    /// Three segments, two of them with deleted rows.
    fn listed_manifest() -> Manifest {
        let entry = |n: u64, rows: u64, deleted: &[u64]| ManifestEntry {
            name: segment_file_name(n),
            rows,
            deleted: deleted.to_vec(),
        };
        Manifest {
            epoch: 9,
            next_seg: 4,
            balanced: true,
            pipeline: golden_db().pipeline().clone(),
            segments: vec![
                entry(0, 10, &[0, 3, 9]),
                entry(1, 5, &[]),
                entry(3, 7, &[6]),
            ],
        }
    }

    /// Deleted rows ride in a third manifest section: a manifest with
    /// lists round-trips through it, the same manifest without them is
    /// the two-section file it always was, and a list that is out of
    /// order, repeats a row, names a row past its segment or covers every
    /// row of it is refused as a typed error in that section — by the
    /// parse and by `fsck`. Any flip of any bit of the file is a typed
    /// error too (the header sweep is in the test above).
    #[test]
    fn manifest_deleted_rows_roundtrip_and_bad_lists_are_refused() {
        let manifest = listed_manifest();
        let bytes = encode_manifest(&manifest);
        let count = |b: &[u8]| u32::from_le_bytes(b[8..12].try_into().unwrap());
        assert_eq!(count(&bytes), 3);
        assert_eq!(parse_manifest(&bytes).unwrap().segments, manifest.segments);
        assert!(fsck_slice(&bytes).is_ok());
        let mut plain = manifest.clone();
        for seg in &mut plain.segments {
            seg.deleted.clear();
        }
        let plain_bytes = encode_manifest(&plain);
        assert_eq!(count(&plain_bytes), 2);
        assert_eq!(
            parse_manifest(&plain_bytes).unwrap().segments,
            plain.segments
        );
        let every_row: Vec<u64> = (0..10).collect();
        for (bad, what) in [
            (&[3u64, 0][..], "out of order"),
            (&[0, 3, 3], "a row twice"),
            (&[0, 10], "a row past the segment"),
            (&every_row[..], "every row"),
        ] {
            let mut hostile = manifest.clone();
            hostile.segments[0].deleted = bad.to_vec();
            let hostile = encode_manifest(&hostile);
            match parse_manifest(&hostile) {
                Err(CoreError::Persist(p)) => assert_eq!(p.section, Some("deleted"), "{what}"),
                other => panic!("{what}: {other:?}"),
            }
            assert!(!fsck_slice(&hostile).is_ok(), "{what}");
        }
        // A count the section cannot hold is refused before anything is
        // allocated for it, however many rows its segment claims.
        let mut huge = manifest.clone();
        huge.segments[0].rows = u64::MAX;
        let huge = encode_manifest(&huge);
        let toc = parse_toc(&huge).unwrap();
        let payload = |e: &TocEntry| huge[e.offset as usize..(e.offset + e.len) as usize].to_vec();
        let mut w = Writer::new();
        w.u64(1 << 60);
        let forged = encode_container(&[
            (SEC_CONFIG, payload(&toc[0])),
            (SEC_MANIFEST, payload(&toc[1])),
            (SEC_DELETED, w.buf),
        ]);
        match parse_manifest(&forged) {
            Err(CoreError::Persist(p)) => assert_eq!(p.section, Some("deleted")),
            other => panic!("a forged count: {other:?}"),
        }
        let mut corrupt = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(parse_manifest(&corrupt), Err(CoreError::Persist(_))),
                "flip at bit {bit} not a typed error"
            );
            corrupt[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn fsck_dir_walks_manifest_segments_and_orphans() {
        let db = populated_db();
        let dir = std::env::temp_dir().join(format!("cbir_fsck_dir_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let seg = save_to_vec(&db).unwrap();
        std::fs::write(dir.join(segment_file_name(0)), &seg).unwrap();
        std::fs::write(dir.join(segment_file_name(1)), &seg).unwrap();
        std::fs::write(dir.join("seg-orphaned.seg"), b"junk").unwrap();
        let manifest = Manifest {
            epoch: 1,
            next_seg: 2,
            balanced: db.is_balanced(),
            pipeline: db.pipeline().clone(),
            segments: vec![
                ManifestEntry {
                    name: segment_file_name(0),
                    rows: db.len() as u64,
                    deleted: Vec::new(),
                },
                ManifestEntry {
                    name: segment_file_name(1),
                    rows: db.len() as u64,
                    deleted: Vec::new(),
                },
            ],
        };
        std::fs::write(dir.join(MANIFEST_FILE), encode_manifest(&manifest)).unwrap();

        let report = fsck_dir(&dir).unwrap();
        assert!(report.is_ok(), "{report:?}");
        assert_eq!(report.segments.len(), 2);
        assert_eq!(report.orphans, vec!["seg-orphaned.seg".to_string()]);
        assert!(report.deleted.is_empty());

        // A deleted-row list is reported per segment, and checked against
        // the rows the segment file really has.
        let mut listed = manifest.clone();
        listed.segments[1].deleted = vec![1];
        std::fs::write(dir.join(MANIFEST_FILE), encode_manifest(&listed)).unwrap();
        let report = fsck_dir(&dir).unwrap();
        assert!(report.is_ok(), "{report:?}");
        let rows = db.len() as u64;
        assert_eq!(report.deleted, [(segment_file_name(1), 1, rows)]);
        listed.segments[1].rows = rows + 1;
        std::fs::write(dir.join(MANIFEST_FILE), encode_manifest(&listed)).unwrap();
        let report = fsck_dir(&dir).unwrap();
        assert!(!report.is_ok());
        let error = report.segments[1].1.error.as_deref().unwrap_or_default();
        assert!(error.contains("manifest records"), "{error}");
        std::fs::write(dir.join(MANIFEST_FILE), encode_manifest(&manifest)).unwrap();

        // Corrupt one segment: the report names the file and stays
        // intact for the healthy one.
        let mut corrupt = seg.clone();
        let view = parse_segment(&seg).unwrap();
        corrupt[view.descriptor_range().start] ^= 0x40;
        std::fs::write(dir.join(segment_file_name(1)), &corrupt).unwrap();
        let report = fsck_dir(&dir).unwrap();
        assert!(!report.is_ok());
        assert!(report.segments[0].1.is_ok());
        assert_eq!(report.segments[1].0, segment_file_name(1));
        assert!(!report.segments[1].1.is_ok());

        // A referenced-but-deleted segment shows up as missing.
        std::fs::remove_file(dir.join(segment_file_name(1))).unwrap();
        let report = fsck_dir(&dir).unwrap();
        assert!(!report.is_ok());
        assert_eq!(report.missing.len(), 1);
        assert_eq!(report.missing[0].0, segment_file_name(1));

        // No manifest at all: the error names the MANIFEST path.
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let err = fsck_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("MANIFEST"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_byte_writes_roundtrip() {
        let dir = std::env::temp_dir().join(format!("cbir_awrite_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        write_file_atomic(&path, b"hello", &mut NoFaults).unwrap();
        assert_eq!(read_file_bytes(&path).unwrap(), b"hello");
        write_file_atomic(&path, b"goodbye", &mut NoFaults).unwrap();
        assert_eq!(read_file_bytes(&path).unwrap(), b"goodbye");
        let err = read_file_bytes(dir.join("nope.bin")).unwrap_err();
        assert!(err.to_string().contains("nope.bin"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
