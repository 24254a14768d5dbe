//! Versioned binary trace serialisation.
//!
//! Traces are captured once and replayed into the simulator, mirroring the
//! paper's trace-driven methodology (their traces were collected ahead of
//! time from Alpha binaries).  One format, version 2, follows the `PSTR`
//! magic: a self-describing header (profile name, workload/exec seeds,
//! instruction count, chunk size, header CRC-32) followed by chunked
//! records, each chunk carrying its own CRC-32.  The chunking is what
//! makes the format *streamable*: [`TraceWriter`] emits and
//! [`TraceReader`] consumes one bounded chunk at a time, so a
//! multi-hundred-MB trace records and replays at constant memory instead
//! of materialising a `Vec<DynInst>`.  Any other version, including the
//! unchecked, identity-free v1 of earlier builds, is refused by number.
//!
//! ```text
//! v2 layout (all little-endian):
//!   magic          [u8; 4]   "PSTR"
//!   version        u32       2
//!   profile_len    u16       <= 256
//!   profile        [u8; profile_len]   UTF-8 benchmark name
//!   workload_seed  u64
//!   exec_seed      u64
//!   count          u64       total records in the file
//!   chunk_insts    u32       records per full chunk, 1..=1048576
//!   header_crc     u32       CRC-32 (IEEE) of every preceding header byte
//!   -- then, until `count` records have been carried --
//!   n_records      u32       records in this chunk, 1..=chunk_insts
//!   payload_len    u32       encoded byte length of this chunk
//!   payload        [u8; payload_len]
//!   payload_crc    u32       CRC-32 of `payload`
//! ```
//!
//! Decode errors always name the offending field ("chunk 3 CRC mismatch",
//! "trace truncated reading workload_seed"), never just "bad data": a
//! corrupt multi-GB trace must be diagnosable from the message alone.
//!
//! No external serialisation crates are needed and round-trips are exact:
//! re-recording the same `(profile, workload seed, exec seed, count)` is
//! byte-identical, which is what the committed `specs/trace_smoke.pstr`
//! golden fixture asserts.

use crate::codegen::Workload;
use crate::exec::{DynInst, TraceGenerator};
use prestage_isa::{BlockId, OpClass};
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes identifying a trace file.
pub const MAGIC: [u8; 4] = *b"PSTR";
/// The format version (the chunked, CRC-checked layout above), and the
/// only one this build reads.
pub const VERSION: u32 = 2;
/// Records per chunk when the caller does not choose ([`TraceWriter::new`]).
pub const DEFAULT_CHUNK_INSTS: u32 = 4096;
/// Upper bound on a header's declared chunk size: caps the per-chunk buffer
/// a hostile header can make the reader allocate (1 Mi records ≈ 32 MB).
pub const MAX_CHUNK_INSTS: u32 = 1 << 20;
/// Upper bound on the profile-name field.
const MAX_PROFILE_LEN: usize = 256;
/// Encoded record size bounds (24 bytes, +8 when a memory address rides).
const MIN_REC_BYTES: usize = 24;
const MAX_REC_BYTES: usize = 32;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib/PNG polynomial): a PCLMULQDQ folding kernel
// where the CPU has one, slice-by-8 everywhere else and as the oracle.
// ---------------------------------------------------------------------------

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Advance the raw (un-inverted) CRC register over `data`, slice-by-8.
fn crc_update_table(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut rest = data;
    while rest.len() >= 8 {
        let one = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) ^ crc;
        let two = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        crc = t[7][(one & 0xFF) as usize]
            ^ t[6][((one >> 8) & 0xFF) as usize]
            ^ t[5][((one >> 16) & 0xFF) as usize]
            ^ t[4][(one >> 24) as usize]
            ^ t[3][(two & 0xFF) as usize]
            ^ t[2][((two >> 8) & 0xFF) as usize]
            ^ t[1][((two >> 16) & 0xFF) as usize]
            ^ t[0][(two >> 24) as usize];
        rest = &rest[8..];
    }
    for &b in rest {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 of `data` by the portable slice-by-8 tables: the path every host
/// can take, and the oracle the CLMUL kernel is tested against.
pub fn crc32_table(data: &[u8]) -> u32 {
    !crc_update_table(!0, data)
}

/// CRC-32 of `data` (IEEE; `crc32(b"123456789") == 0xCBF4_3926`).  Public
/// so conformance tests and external tools can re-derive section CRCs.
///
/// On x86-64 hosts with PCLMULQDQ (detected once, at run time) inputs of
/// 64 bytes or more fold 64 bytes per step with carry-less multiplies;
/// everything else takes [`crc32_table`].  Both compute the same function.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc32(data) {
        return crc;
    }
    crc32_table(data)
}

/// The carry-less-multiply CRC-32 kernel (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
/// 2009), in the bit-reflected form the IEEE polynomial uses: fold four
/// 128-bit lanes 64 bytes at a time, fold the lanes into one, reduce 128
/// bits to 64, then Barrett-reduce to the 32-bit remainder.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Folding constants, each `x^k mod P(x)` bit-reflected and shifted
    /// left by one: `K1`/`K2` fold across four lanes (k = 4·128 ± 32),
    /// `K3`/`K4` across one (k = 128 ± 32), `K5` reduces 96 bits to 64
    /// (k = 64).  `P_X` is the reflected polynomial, `MU` its Barrett
    /// quotient `floor(x^64 / P(x))`, reflected.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Below this the set-up of the fold costs more than the tables.
    const MIN_LEN: usize = 64;

    /// The CLMUL CRC-32 of `data`, or `None` when the input is short or
    /// the CPU lacks PCLMULQDQ/SSE4.1 (the caller then uses the tables).
    pub(super) fn crc32(data: &[u8]) -> Option<u32> {
        if data.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: `fold` only requires the target features it enables,
        // and both were detected on this CPU just above; its memory
        // accesses are bounds-checked slices of `data`.
        Some(!unsafe { fold(!0, data) })
    }

    /// One unaligned 16-byte lane of `data` at `at` (bounds-checked).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(data: &[u8], at: usize) -> __m128i {
        let bytes = &data[at..at + 16];
        // SAFETY: the index above guarantees 16 readable bytes; the load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// `a` carried forward over one fold distance (`keys`), xored into `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold_into(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Advance the raw (un-inverted) CRC register `crc` over `data`
    /// (`data.len() >= 64`); the sub-16-byte tail goes through the tables.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN);
        let mut x3 = _mm_xor_si128(lane(data, 0), _mm_cvtsi32_si128(crc.cast_signed()));
        let mut x2 = lane(data, 16);
        let mut x1 = lane(data, 32);
        let mut x0 = lane(data, 48);
        let mut at = 64;
        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() - at >= 64 {
            x3 = fold_into(x3, lane(data, at), k1k2);
            x2 = fold_into(x2, lane(data, at + 16), k1k2);
            x1 = fold_into(x1, lane(data, at + 32), k1k2);
            x0 = fold_into(x0, lane(data, at + 48), k1k2);
            at += 64;
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        while data.len() - at >= 16 {
            x = fold_into(x, lane(data, at), k3k4);
            at += 16;
        }
        // 128 -> 96 -> 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett reduction, 64 -> 32 bits (reflected: the remainder sits
        // in the upper half).
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let reg = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)).cast_unsigned();
        super::crc_update_table(reg, &data[at..])
    }
}

// ---------------------------------------------------------------------------
// Record codec.
// ---------------------------------------------------------------------------

fn op_to_u8(op: OpClass) -> u8 {
    match op {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::FpAlu => 2,
        OpClass::FpMul => 3,
        OpClass::Load => 4,
        OpClass::Store => 5,
        OpClass::CondBranch => 6,
        OpClass::Jump => 7,
        OpClass::Call => 8,
        OpClass::Return => 9,
    }
}

/// Opclasses by their wire byte: the inverse of [`op_to_u8`].
const OPCLASSES: [OpClass; 10] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::FpAlu,
    OpClass::FpMul,
    OpClass::Load,
    OpClass::Store,
    OpClass::CondBranch,
    OpClass::Jump,
    OpClass::Call,
    OpClass::Return,
];

fn encode_inst(out: &mut Vec<u8>, i: &DynInst) {
    out.extend_from_slice(&i.pc.to_le_bytes());
    out.push(op_to_u8(i.op));
    out.extend_from_slice(&i.block.0.to_le_bytes());
    out.extend_from_slice(&i.idx.to_le_bytes());
    let flags = i.taken as u8 | (i.mem_addr.is_some() as u8) << 1;
    out.push(flags);
    out.extend_from_slice(&i.next_pc.to_le_bytes());
    if let Some(m) = i.mem_addr {
        out.extend_from_slice(&m.to_le_bytes());
    }
}

/// Check that `rest` opens with one well-formed record and return its
/// encoded length: the whole fixed part, a known opclass byte, no unknown
/// flag bits, and the memory address the flags promise.  String errors
/// name the failing field; the caller adds file-level context.
fn check_record(rest: &[u8]) -> Result<usize, String> {
    let Some(head) = rest.get(..MIN_REC_BYTES) else {
        return Err(diagnose_short_record(rest.len()));
    };
    if usize::from(head[8]) >= OPCLASSES.len() {
        return Err(format!("bad opclass byte {}", head[8]));
    }
    let flags = head[15];
    if flags & !3 != 0 {
        return Err(format!("bad flags byte {flags:#04x}"));
    }
    let len = if flags & 2 != 0 { MAX_REC_BYTES } else { MIN_REC_BYTES };
    if rest.len() < len {
        return Err("payload ends inside memory address".into());
    }
    Ok(len)
}

/// Check that a chunk payload holds exactly `n` well-formed records and
/// nothing after them, building none: the validation half of a chunk
/// decode, and all of the verify-only pass.
fn check_payload(payload: &[u8], n: u32, chunk: u64) -> io::Result<()> {
    let mut pos = 0usize;
    for j in 0..n {
        pos += check_record(&payload[pos..])
            .map_err(|e| invalid(format!("chunk {chunk} record {j}: {e}")))?;
    }
    if pos != payload.len() {
        return Err(invalid(format!(
            "chunk {chunk} payload has {} trailing bytes after its {n} records",
            payload.len() - pos
        )));
    }
    Ok(())
}

/// Bytes a decode buffer carries past its last record, so that
/// [`decode_checked`] can load the memory-address slot unconditionally.
const DECODE_SLACK: usize = MAX_REC_BYTES - MIN_REC_BYTES;

/// Decode the record at `*pos`, advancing `*pos`.  `buf` must already have
/// passed [`check_record`] there and extend [`DECODE_SLACK`] bytes past the
/// payload, so this is the replay hot path: no per-field `Result`, one
/// bounds check, and no branch on whether a memory address follows (that
/// branch is data-dependent and mispredicts).
#[inline]
fn decode_checked(buf: &[u8], pos: &mut usize) -> DynInst {
    let p = *pos;
    let Some(rec) = buf[p..].first_chunk::<MAX_REC_BYTES>() else {
        unreachable!("the record at byte {p} was checked whole, slack included")
    };
    let u64_at = |i: usize| {
        u64::from_le_bytes([
            rec[i],
            rec[i + 1],
            rec[i + 2],
            rec[i + 3],
            rec[i + 4],
            rec[i + 5],
            rec[i + 6],
            rec[i + 7],
        ])
    };
    let flags = rec[15];
    let has_mem = flags & 2 != 0;
    *pos = p + if has_mem { MAX_REC_BYTES } else { MIN_REC_BYTES };
    DynInst {
        pc: u64_at(0),
        op: OPCLASSES[usize::from(rec[8])],
        block: BlockId(u32::from_le_bytes([rec[9], rec[10], rec[11], rec[12]])),
        idx: u16::from_le_bytes([rec[13], rec[14]]),
        taken: flags & 1 != 0,
        next_pc: u64_at(16),
        mem_addr: has_mem.then_some(u64_at(MIN_REC_BYTES)),
    }
}

/// Name the field a record with only `have` bytes left dies in.
fn diagnose_short_record(have: usize) -> String {
    let field = match have {
        0..=7 => "pc",
        8 => "opclass",
        9..=12 => "block id",
        13..=14 => "block index",
        15 => "flags",
        _ => "next pc",
    };
    format!("payload ends inside {field}")
}

// ---------------------------------------------------------------------------
// Header.
// ---------------------------------------------------------------------------

/// The identity a trace carries: which benchmark it was recorded from
/// and under which seeds — everything a replay consumer must match before
/// trusting the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Benchmark profile name ("gzip", "mcf", ...).
    pub profile: String,
    /// Seed the static program was generated from.
    pub workload_seed: u64,
    /// Seed the dynamic execution ran under.
    pub exec_seed: u64,
}

/// Parsed trace header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Total records in the file.
    pub count: u64,
    /// Records per full chunk.
    pub chunk_insts: u32,
    /// Embedded identity.
    pub meta: TraceMeta,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `read_exact` that names the field a truncated input died in.
fn read_field<const N: usize>(r: &mut impl Read, what: &str) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            invalid(format!("trace truncated reading {what}"))
        } else {
            e
        }
    })?;
    Ok(buf)
}

/// The exact v2 header bytes for `(meta, count, chunk_insts)` — CRC
/// included.  One builder so the writer's initial header, its finish-time
/// patch, and the golden-fixture test can never disagree.
fn header_bytes(meta: &TraceMeta, count: u64, chunk_insts: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(38 + meta.profile.len());
    h.extend_from_slice(&MAGIC);
    h.extend_from_slice(&VERSION.to_le_bytes());
    h.extend_from_slice(&(meta.profile.len() as u16).to_le_bytes());
    h.extend_from_slice(meta.profile.as_bytes());
    h.extend_from_slice(&meta.workload_seed.to_le_bytes());
    h.extend_from_slice(&meta.exec_seed.to_le_bytes());
    h.extend_from_slice(&count.to_le_bytes());
    h.extend_from_slice(&chunk_insts.to_le_bytes());
    let crc = crc32(&h);
    h.extend_from_slice(&crc.to_le_bytes());
    h
}

// ---------------------------------------------------------------------------
// Streaming writer.
// ---------------------------------------------------------------------------

/// Streaming v2 trace writer: push records one at a time; full chunks are
/// flushed as they fill, so memory stays bounded by one chunk regardless of
/// trace length.  The header is written up front with a zero count and
/// patched (via `Seek`) by [`finish`](Self::finish), so the producer never
/// needs to know the record count in advance.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    w: W,
    meta: TraceMeta,
    chunk_insts: u32,
    chunk: Vec<u8>,
    chunk_records: u32,
    count: u64,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Start a trace with the default chunk size.
    pub fn new(w: W, meta: TraceMeta) -> io::Result<Self> {
        Self::with_chunk_insts(w, meta, DEFAULT_CHUNK_INSTS)
    }

    /// Start a trace with an explicit records-per-chunk granularity
    /// (`1..=`[`MAX_CHUNK_INSTS`]; smaller chunks = finer corruption
    /// localisation, larger = less framing overhead).
    pub fn with_chunk_insts(mut w: W, meta: TraceMeta, chunk_insts: u32) -> io::Result<Self> {
        if chunk_insts == 0 || chunk_insts > MAX_CHUNK_INSTS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("chunk size {chunk_insts} outside 1..={MAX_CHUNK_INSTS}"),
            ));
        }
        if meta.profile.len() > MAX_PROFILE_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "profile name is {} bytes, above the {MAX_PROFILE_LEN}-byte cap",
                    meta.profile.len()
                ),
            ));
        }
        w.write_all(&header_bytes(&meta, 0, chunk_insts))?;
        Ok(TraceWriter {
            w,
            meta,
            chunk_insts,
            chunk: Vec::with_capacity(chunk_insts as usize * MAX_REC_BYTES),
            chunk_records: 0,
            count: 0,
        })
    }

    /// Append one record.
    pub fn push(&mut self, i: &DynInst) -> io::Result<()> {
        encode_inst(&mut self.chunk, i);
        self.chunk_records += 1;
        self.count += 1;
        if self.chunk_records == self.chunk_insts {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Append a slice of records.
    pub fn push_all(&mut self, insts: &[DynInst]) -> io::Result<()> {
        for i in insts {
            self.push(i)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.chunk_records == 0 {
            return Ok(());
        }
        self.w.write_all(&self.chunk_records.to_le_bytes())?;
        self.w.write_all(&(self.chunk.len() as u32).to_le_bytes())?;
        self.w.write_all(&self.chunk)?;
        self.w.write_all(&crc32(&self.chunk).to_le_bytes())?;
        self.chunk.clear();
        self.chunk_records = 0;
        Ok(())
    }

    /// Flush the final partial chunk, patch the header's record count, and
    /// return the total count.  A writer that is dropped without `finish`
    /// leaves a header claiming zero records — unreadable as data, never
    /// silently short.
    pub fn finish(mut self) -> io::Result<u64> {
        self.flush_chunk()?;
        self.w.seek(SeekFrom::Start(0))?;
        self.w
            .write_all(&header_bytes(&self.meta, self.count, self.chunk_insts))?;
        self.w.flush()?;
        Ok(self.count)
    }
}

// ---------------------------------------------------------------------------
// Streaming reader.
// ---------------------------------------------------------------------------

/// Streaming trace reader: an `Iterator<Item = io::Result<DynInst>>`,
/// CRC-checking and validating one chunk at a time at
/// constant memory — the payload buffer is reused across chunks, and
/// records decode straight out of it, so a multi-GB trace replays with one
/// bounded allocation.  After the first error the reader fuses.
///
/// Three ways through the body share every check: iteration,
/// [`read_all`](Self::read_all), and the verify-only
/// [`verify`](Self::verify), which decodes nothing.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    header: TraceHeader,
    /// Records in the chunks loaded so far.
    loaded: u64,
    /// The current chunk's payload, CRC-checked and validated, at the
    /// front of a buffer reused across chunks (with [`DECODE_SLACK`] bytes
    /// to spare); the next record starts at `pos` and `left` records
    /// remain.
    payload: Vec<u8>,
    pos: usize,
    left: u32,
    chunks_read: u64,
    verify_chunks: bool,
    failed: bool,
    trailing_checked: bool,
}

impl<R: Read> TraceReader<R> {
    /// Parse the header and position the reader at the first record.  The
    /// header is CRC-verified here; chunk payloads as they stream.
    pub fn new(r: R) -> io::Result<Self> {
        Self::with_verification(r, true)
    }

    /// A reader that skips per-chunk payload-CRC *recomputation*; every
    /// structural check remains.  No replay path uses it — every byte a
    /// sweep cell replays is CRC-checked, at set-up or as the cell
    /// consumes it — but it prices the CRC for tools that compare the two
    /// (the layer benchmarks decode the same bytes both ways).
    pub fn trusted(r: R) -> io::Result<Self> {
        Self::with_verification(r, false)
    }

    fn with_verification(mut r: R, verify_chunks: bool) -> io::Result<Self> {
        let magic = read_field::<4>(&mut r, "magic")?;
        if magic != MAGIC {
            return Err(invalid(format!("bad magic {magic:02x?} (not a PSTR trace)")));
        }
        let version = u32::from_le_bytes(read_field::<4>(&mut r, "version")?);
        if version != VERSION {
            return Err(invalid(format!(
                "unsupported trace version {version} (this build reads v{VERSION} only)"
            )));
        }
        let mut hb = Vec::with_capacity(64);
        hb.extend_from_slice(&MAGIC);
        hb.extend_from_slice(&version.to_le_bytes());
        let plen_b = read_field::<2>(&mut r, "profile length")?;
        hb.extend_from_slice(&plen_b);
        let plen = u16::from_le_bytes(plen_b) as usize;
        if plen > MAX_PROFILE_LEN {
            return Err(invalid(format!(
                "profile length {plen} exceeds the {MAX_PROFILE_LEN}-byte cap"
            )));
        }
        let mut pbytes = vec![0u8; plen];
        r.read_exact(&mut pbytes).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                invalid("trace truncated reading profile name".into())
            } else {
                e
            }
        })?;
        hb.extend_from_slice(&pbytes);
        let profile = String::from_utf8(pbytes)
            .map_err(|_| invalid("profile name is not valid UTF-8".into()))?;
        let wseed_b = read_field::<8>(&mut r, "workload_seed")?;
        let xseed_b = read_field::<8>(&mut r, "exec_seed")?;
        let count_b = read_field::<8>(&mut r, "instruction count")?;
        let chunk_b = read_field::<4>(&mut r, "chunk size")?;
        hb.extend_from_slice(&wseed_b);
        hb.extend_from_slice(&xseed_b);
        hb.extend_from_slice(&count_b);
        hb.extend_from_slice(&chunk_b);
        let chunk_insts = u32::from_le_bytes(chunk_b);
        if chunk_insts == 0 || chunk_insts > MAX_CHUNK_INSTS {
            return Err(invalid(format!(
                "chunk size {chunk_insts} outside 1..={MAX_CHUNK_INSTS}"
            )));
        }
        let stored = u32::from_le_bytes(read_field::<4>(&mut r, "header CRC")?);
        let computed = crc32(&hb);
        if stored != computed {
            return Err(invalid(format!(
                "header CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        let header = TraceHeader {
            count: u64::from_le_bytes(count_b),
            chunk_insts,
            meta: TraceMeta {
                profile,
                workload_seed: u64::from_le_bytes(wseed_b),
                exec_seed: u64::from_le_bytes(xseed_b),
            },
        };
        Ok(TraceReader {
            r,
            header,
            loaded: 0,
            payload: Vec::new(),
            pos: 0,
            left: 0,
            chunks_read: 0,
            verify_chunks,
            failed: false,
            trailing_checked: false,
        })
    }

    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Chunks read so far (diagnostics).
    pub fn chunks_read(&self) -> u64 {
        self.chunks_read
    }

    /// Records handed out (or verified) so far.
    fn produced(&self) -> u64 {
        self.loaded - u64::from(self.left)
    }

    /// The next record of the current chunk, if it has one left — the
    /// per-record fast path, with no `Result`: the chunk was CRC-checked
    /// and validated whole when it loaded.  `None` means the caller must
    /// go through the iterator, which loads the next chunk, reports errors
    /// and ends the trace.
    #[inline]
    pub(crate) fn next_buffered(&mut self) -> Option<DynInst> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(decode_checked(&self.payload, &mut self.pos))
    }

    /// Read the next chunk into the payload buffer: check its framing
    /// against the header, its CRC (unless [`trusted`](Self::trusted)) and
    /// every record's encoding, then leave its records ready to decode.
    /// Only called once the previous chunk is drained.
    fn load_chunk(&mut self) -> io::Result<()> {
        debug_assert_eq!(self.left, 0, "a chunk loads only once the last one drained");
        let k = self.chunks_read;
        let n = u32::from_le_bytes(read_field::<4>(
            &mut self.r,
            &format!("chunk {k} record count"),
        )?);
        if n == 0 || n > self.header.chunk_insts {
            return Err(invalid(format!(
                "chunk {k} claims {n} records, outside 1..={} (the header's chunk size)",
                self.header.chunk_insts
            )));
        }
        let remaining = self.header.count - self.loaded;
        if u64::from(n) > remaining {
            return Err(invalid(format!(
                "chunk {k} claims {n} records but only {remaining} remain of the header's {}",
                self.header.count
            )));
        }
        let plen = u32::from_le_bytes(read_field::<4>(
            &mut self.r,
            &format!("chunk {k} payload length"),
        )?) as usize;
        if plen < n as usize * MIN_REC_BYTES || plen > n as usize * MAX_REC_BYTES {
            return Err(invalid(format!(
                "chunk {k} payload length {plen} is impossible for {n} records \
                 ({MIN_REC_BYTES}-{MAX_REC_BYTES} bytes each)"
            )));
        }
        if self.payload.len() < plen + DECODE_SLACK {
            self.payload.resize(plen + DECODE_SLACK, 0);
        }
        let payload = &mut self.payload[..plen];
        self.r.read_exact(payload).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                invalid(format!("trace truncated reading chunk {k} payload ({plen} bytes)"))
            } else {
                e
            }
        })?;
        let stored = u32::from_le_bytes(read_field::<4>(&mut self.r, &format!("chunk {k} CRC"))?);
        if self.verify_chunks {
            let computed = crc32(payload);
            if stored != computed {
                return Err(invalid(format!(
                    "chunk {k} CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )));
            }
        }
        check_payload(payload, n, k)?;
        self.pos = 0;
        self.left = n;
        self.loaded += u64::from(n);
        self.chunks_read += 1;
        Ok(())
    }

    /// Trailing garbage is forbidden: a concatenated or padded file is
    /// corruption, not silence.
    fn check_trailing(&mut self) -> io::Result<()> {
        if self.trailing_checked {
            return Ok(());
        }
        self.trailing_checked = true;
        let mut one = [0u8; 1];
        match self.r.read(&mut one)? {
            0 => Ok(()),
            _ => Err(invalid("trailing data after the final chunk".into())),
        }
    }

    /// Fuse the reader after an error and pass the error on.
    fn fail(&mut self, e: io::Error) -> io::Error {
        self.failed = true;
        e
    }

    /// Refuse to go on after an error.
    fn check_not_failed(&self) -> io::Result<()> {
        if self.failed {
            return Err(invalid("trace reader already failed".into()));
        }
        Ok(())
    }

    /// The verify-only body pass: check every remaining chunk's framing,
    /// CRC (unless [`trusted`](Self::trusted)) and record encodings, and
    /// that no data trails the last chunk, through the one reused payload
    /// buffer — without decoding a record.  The rest of a chunk the
    /// iterator already started was checked when it loaded.  Returns how
    /// many records it covered; a failure is the error iteration or
    /// [`read_all`](Self::read_all) would report, and fuses the reader.
    pub fn verify(&mut self) -> io::Result<u64> {
        self.check_not_failed()?;
        let from = self.produced();
        self.left = 0;
        while self.loaded < self.header.count {
            self.load_chunk().map_err(|e| self.fail(e))?;
            self.left = 0;
        }
        self.check_trailing().map_err(|e| self.fail(e))?;
        Ok(self.header.count - from)
    }

    /// Decode every remaining record into one vector, allocated once: the
    /// whole-trace load.  Every check the iterator makes still runs (chunk
    /// framing, chunk CRCs unless [`trusted`](Self::trusted), record
    /// encodings, trailing data); each chunk is validated whole, then
    /// decoded straight into the result without a per-record `Result`.
    ///
    /// The header's count is untrusted (a CRC is not a MAC): the up-front
    /// allocation is the declared remaining count capped by what
    /// `input_len` bytes can hold, so a header claiming 2^60 records over a
    /// small input fails on its missing bytes instead of allocating first.
    /// Pass the input's byte length when it is known, or a smaller cap; the
    /// vector grows past the cap if records keep decoding.
    pub fn read_all(&mut self, input_len: u64) -> io::Result<Vec<DynInst>> {
        self.check_not_failed()?;
        let cap = (self.header.count - self.produced()).min(input_len / MIN_REC_BYTES as u64);
        let mut out = Vec::with_capacity(usize::try_from(cap).unwrap_or(0));
        loop {
            out.reserve(self.left as usize);
            while let Some(i) = self.next_buffered() {
                out.push(i);
            }
            if self.loaded == self.header.count {
                break;
            }
            self.load_chunk().map_err(|e| self.fail(e))?;
        }
        self.check_trailing().map_err(|e| self.fail(e))?;
        Ok(out)
    }

    fn next_record(&mut self) -> Option<io::Result<DynInst>> {
        if let Some(i) = self.next_buffered() {
            return Some(Ok(i));
        }
        if self.failed {
            return None;
        }
        if self.loaded == self.header.count {
            return self.check_trailing().err().map(|e| Err(self.fail(e)));
        }
        if let Err(e) = self.load_chunk() {
            return Some(Err(self.fail(e)));
        }
        // A loaded chunk holds at least one record.
        self.next_buffered().map(Ok)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = io::Result<DynInst>;

    fn next(&mut self) -> Option<io::Result<DynInst>> {
        self.next_record()
    }
}

/// Open a trace file for streaming (buffered reads, header parsed).
pub fn open_trace(path: &Path) -> io::Result<TraceReader<BufReader<File>>> {
    let f = File::open(path)
        .map_err(|e| io::Error::new(e.kind(), format!("open trace {}: {e}", path.display())))?;
    TraceReader::new(BufReader::new(f))
}

// ---------------------------------------------------------------------------
// Whole-slice convenience API.
// ---------------------------------------------------------------------------

/// Read a whole trace into memory.
///
/// The header's `count` field is untrusted and the input's length unknown:
/// preallocation is clamped to a small constant and the vector only grows
/// as records actually decode, so a hostile header claiming 2^60 records
/// fails on its missing bytes instead of driving a giant allocation first.
/// Callers that know the input's length should use
/// [`TraceReader::read_all`], which sizes the vector once.
pub fn read_trace<R: Read>(r: R) -> io::Result<Vec<DynInst>> {
    TraceReader::new(r)?.read_all(4096 * MIN_REC_BYTES as u64)
}

/// Record exactly `n_insts` instructions of `(workload, exec_seed)` into a
/// v2 trace.  Deterministic and *exact*: the same arguments always produce
/// byte-identical output (the golden-fixture property), so the final stream
/// may be cut mid-way — replay consumers never reach it because recordings
/// carry run-ahead slack (see `ExperimentSpec::trace_record_insts`).
pub fn record_trace<W: Write + Seek>(
    out: W,
    w: &Workload,
    exec_seed: u64,
    n_insts: u64,
    chunk_insts: u32,
) -> io::Result<u64> {
    let meta = TraceMeta {
        profile: w.profile.name.to_string(),
        workload_seed: w.seed,
        exec_seed,
    };
    let mut tw = TraceWriter::with_chunk_insts(out, meta, chunk_insts)?;
    let mut gen = TraceGenerator::new(w, exec_seed);
    let mut buf = Vec::new();
    let mut written = 0u64;
    while written < n_insts {
        gen.next_stream(&mut buf);
        for i in &buf {
            if written == n_insts {
                break;
            }
            tw.push(i)?;
            written += 1;
        }
    }
    tw.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::build;
    use crate::exec::TraceGenerator;
    use crate::profile::by_name;
    use std::io::Cursor;

    fn small_insts(n: u64) -> Vec<DynInst> {
        let mut p = by_name("bzip2").unwrap();
        p.i_footprint_kb = 2;
        p.n_funcs = 6;
        let w = build(&p, 4);
        let mut t = TraceGenerator::new(&w, 4);
        t.take_insts(n)
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            profile: "bzip2".into(),
            workload_seed: 4,
            exec_seed: 4,
        }
    }

    fn v2_bytes(insts: &[DynInst], chunk: u32) -> Vec<u8> {
        let mut buf = Cursor::new(Vec::new());
        let mut w = TraceWriter::with_chunk_insts(&mut buf, meta(), chunk).unwrap();
        w.push_all(insts).unwrap();
        let n = w.finish().unwrap();
        assert_eq!(n, insts.len() as u64);
        buf.into_inner()
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        for f in [crc32, crc32_table] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
        }
        // Slice-by-8 path (>= 8 bytes) agrees with the bytewise tail path.
        let long: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let bytewise = {
            let mut c = !0u32;
            for &b in &long {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        };
        assert_eq!(crc32_table(&long), bytewise);
    }

    #[test]
    fn crc32_kernel_matches_the_table_path_at_every_length_and_offset() {
        // Deterministic pseudo-random bytes (xorshift), 1 MiB + slack.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..(1 << 20) + 64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[3]
            })
            .collect();
        for start in 0..16 {
            for len in 0..=1024 {
                let d = &bytes[start..start + len];
                assert_eq!(crc32(d), crc32_table(d), "start {start}, len {len}");
            }
        }
        let big = &bytes[3..3 + (1 << 20)];
        assert_eq!(crc32(big), crc32_table(big));
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            // The kernel is the path under test, not a silent fallback.
            assert_eq!(clmul::crc32(big), Some(crc32_table(big)));
        }
    }

    #[test]
    fn v2_roundtrip_exact_across_chunk_sizes() {
        let insts = small_insts(5_000);
        for chunk in [1u32, 7, 512, DEFAULT_CHUNK_INSTS] {
            let bytes = v2_bytes(&insts, chunk);
            let back = read_trace(&bytes[..]).unwrap();
            assert_eq!(back, insts, "chunk size {chunk}");
        }
    }

    #[test]
    fn v2_header_self_describes() {
        let insts = small_insts(100);
        let bytes = v2_bytes(&insts, 32);
        let r = TraceReader::new(&bytes[..]).unwrap();
        let h = r.header().clone();
        assert_eq!(h.count, insts.len() as u64);
        assert_eq!(h.chunk_insts, 32);
        assert_eq!(h.meta, meta());
        let n = r.fold(0usize, |acc, x| {
            x.unwrap();
            acc + 1
        });
        assert_eq!(n, insts.len());
    }

    #[test]
    fn v2_recording_is_byte_deterministic() {
        let mut p = by_name("mcf").unwrap();
        p.i_footprint_kb = 2;
        p.n_funcs = 6;
        let w = build(&p, 9);
        let mut a = Cursor::new(Vec::new());
        let mut b = Cursor::new(Vec::new());
        record_trace(&mut a, &w, 3, 2_000, 256).unwrap();
        record_trace(&mut b, &w, 3, 2_000, 256).unwrap();
        assert_eq!(a.into_inner(), b.into_inner());
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOPE00000000".to_vec();
        let e = read_trace(&buf[..]).unwrap_err();
        assert!(e.to_string().contains("magic"), "{e}");
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = v2_bytes(&[], 64);
        for version in [1, 99] {
            buf[4] = version;
            let e = read_trace(&buf[..]).unwrap_err();
            assert!(
                e.to_string().contains(&format!(
                    "unsupported trace version {version} (this build reads v2 only)"
                )),
                "{e}"
            );
        }
    }

    #[test]
    fn rejects_truncation() {
        let insts = small_insts(100);
        let mut v2 = v2_bytes(&insts, 64);
        v2.truncate(v2.len() - 3);
        let e = read_trace(&v2[..]).unwrap_err();
        assert!(e.to_string().contains("truncated") || e.to_string().contains("CRC"), "{e}");
    }

    #[test]
    fn rejects_chunk_crc_corruption_by_chunk_index() {
        let insts = small_insts(600);
        let bytes = v2_bytes(&insts, 256);
        // Flip one payload byte in the *second* chunk: header is
        // header_bytes(...) long; chunk 0 is 4+4+payload+4.
        let hlen = header_bytes(&meta(), 0, 256).len();
        let c0_plen =
            u32::from_le_bytes(bytes[hlen + 4..hlen + 8].try_into().unwrap()) as usize;
        let c1_payload = hlen + 8 + c0_plen + 4 + 8;
        let mut bad = bytes.clone();
        bad[c1_payload + 10] ^= 0xFF;
        let e = read_trace(&bad[..]).unwrap_err();
        assert!(e.to_string().contains("chunk 1 CRC mismatch"), "{e}");
        // The first chunk still decodes: the reader fails mid-stream, not
        // up front.
        let mut r = TraceReader::new(&bad[..]).unwrap();
        for _ in 0..256 {
            r.next().unwrap().unwrap();
        }
        assert!(r.next().unwrap().is_err());
        assert!(r.next().is_none(), "reader fuses after an error");
    }

    /// `(frame offset, records, payload length)` of every chunk in `bytes`.
    fn chunk_frames(bytes: &[u8], chunk: u32) -> Vec<(usize, u32, usize)> {
        let mut at = header_bytes(&meta(), 0, chunk).len();
        let mut frames = Vec::new();
        while at < bytes.len() {
            let n = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let plen = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
            frames.push((at, n, plen));
            at += 8 + plen + 4;
        }
        frames
    }

    /// Replace chunk `k`'s payload by `edit(payload)`, re-framing it with
    /// the new length and a recomputed CRC: damage only the record checks
    /// can see.
    fn rewrite_payload(bytes: &[u8], chunk: u32, k: usize, edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let (at, n, plen) = chunk_frames(bytes, chunk)[k];
        let mut payload = bytes[at + 8..at + 8 + plen].to_vec();
        edit(&mut payload);
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(&n.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&bytes[at + 8 + plen + 4..]);
        out
    }

    /// The first error each way through the body reports: the verify-only
    /// pass, `read_all`, the iterator and the streaming replayer.
    fn every_rejection(bytes: &[u8]) -> [String; 4] {
        use crate::replay::{InstSource, TraceReplayer};
        let verify = TraceReader::new(bytes).unwrap().verify().unwrap_err();
        let read_all = TraceReader::new(bytes)
            .unwrap()
            .read_all(bytes.len() as u64)
            .unwrap_err();
        let iter = TraceReader::new(bytes)
            .unwrap()
            .find_map(Result::err)
            .unwrap();
        let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut r = TraceReplayer::new(TraceReader::new(bytes).unwrap(), "matrix");
            let mut buf = Vec::new();
            loop {
                r.next_stream(&mut buf);
            }
        }))
        .unwrap_err();
        let replay = match replay.downcast::<String>() {
            Ok(msg) => *msg,
            Err(_) => panic!("replayer panicked without a message"),
        };
        [verify.to_string(), read_all.to_string(), iter.to_string(), replay]
    }

    #[test]
    fn every_body_pass_rejects_each_corruption_with_the_same_named_message() {
        let insts = small_insts(200);
        let chunk = 64;
        let good = v2_bytes(&insts, chunk);
        let frames = chunk_frames(&good, chunk);
        assert_eq!(frames.len(), 4);
        let (c1, _, c1_len) = frames[1];
        let (c3, c3_n, _) = frames[3];
        let with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut b = good.clone();
            edit(&mut b);
            b
        };
        let cases: Vec<(&str, Vec<u8>, String)> = vec![
            (
                "flipped payload byte",
                with(&|b| b[c1 + 8 + 100] ^= 0x04),
                "chunk 1 CRC mismatch".into(),
            ),
            (
                "bad opclass byte",
                rewrite_payload(&good, chunk, 1, |p| p[8] = 0xEE),
                "chunk 1 record 0: bad opclass byte 238".into(),
            ),
            (
                "bad flags",
                rewrite_payload(&good, chunk, 1, |p| p[15] |= 0x80),
                "chunk 1 record 0: bad flags byte".into(),
            ),
            (
                "record cut short",
                rewrite_payload(&good, chunk, 1, |p| p.truncate(p.len() - 4)),
                "chunk 1 record 63: payload ends inside".into(),
            ),
            (
                "trailing bytes in a chunk",
                rewrite_payload(&good, chunk, 1, |p| p.extend_from_slice(&[0; 8])),
                "chunk 1 payload has 8 trailing bytes after its 64 records".into(),
            ),
            (
                "trailing data after the last chunk",
                with(&|b| b.push(0xAB)),
                "trailing data after the final chunk".into(),
            ),
            (
                "chunk count above the header's chunk size",
                with(&|b| b[c1..c1 + 4].copy_from_slice(&(chunk + 1).to_le_bytes())),
                "chunk 1 claims 65 records, outside 1..=64".into(),
            ),
            (
                "chunk count above the header's total",
                with(&|b| b[c3..c3 + 4].copy_from_slice(&(c3_n + 1).to_le_bytes())),
                format!("chunk 3 claims {} records but only {c3_n} remain", c3_n + 1),
            ),
        ];
        assert!(c1_len > 64 * MIN_REC_BYTES, "chunk 1 carries memory addresses");
        for (what, bytes, want) in cases {
            let [verify, read_all, iter, replay] = every_rejection(&bytes);
            assert!(verify.contains(&want), "{what}: {verify}");
            assert_eq!(read_all, verify, "{what}: read_all");
            assert_eq!(iter, verify, "{what}: iterator");
            assert_eq!(replay, format!("replaying matrix: {verify}"), "{what}: replayer");
        }
    }

    #[test]
    fn verify_checks_every_record_and_decodes_none() {
        let insts = small_insts(3_000);
        for chunk in [1u32, 100, DEFAULT_CHUNK_INSTS] {
            let bytes = v2_bytes(&insts, chunk);
            let mut r = TraceReader::new(&bytes[..]).unwrap();
            assert_eq!(r.verify().unwrap(), insts.len() as u64, "chunk size {chunk}");
            assert!(r.next().is_none(), "verify drains the reader");
            // Picking up after the iterator, mid-chunk.
            let mut r = TraceReader::new(&bytes[..]).unwrap();
            for x in r.by_ref().take(150) {
                x.unwrap();
            }
            assert_eq!(r.verify().unwrap(), insts.len() as u64 - 150);
        }
    }

    #[test]
    fn rejects_trailing_garbage_after_final_chunk() {
        let insts = small_insts(50);
        let mut bytes = v2_bytes(&insts, 64);
        bytes.push(0xAB);
        let e = read_trace(&bytes[..]).unwrap_err();
        assert!(e.to_string().contains("trailing data"), "{e}");
    }

    #[test]
    fn hostile_count_fails_fast_without_preallocating() {
        // A CRC-valid header claiming 2^60 records over an empty body: the
        // whole-slice read, which does not know the input's length, must
        // error on the missing first chunk, not allocate.
        let buf = header_bytes(&meta(), 1 << 60, 64);
        let e = read_trace(&buf[..]).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("truncated reading chunk 0 record count"),
            "{msg}"
        );
    }

    #[test]
    fn read_all_sizes_its_vector_once_and_matches_the_iterator() {
        let insts = small_insts(3_000);
        for chunk in [1u32, 100, DEFAULT_CHUNK_INSTS] {
            let bytes = v2_bytes(&insts, chunk);
            for reader in [
                TraceReader::new(&bytes[..]),
                TraceReader::trusted(&bytes[..]),
            ] {
                let all = reader.unwrap().read_all(bytes.len() as u64).unwrap();
                assert_eq!(all, insts, "chunk size {chunk}");
                assert_eq!(all.capacity(), insts.len(), "one exact allocation");
            }
            // Picking up after the iterator, mid-chunk.
            let mut r = TraceReader::new(&bytes[..]).unwrap();
            let head: Vec<_> = r.by_ref().take(150).map(|x| x.unwrap()).collect();
            let mut joined = head;
            joined.extend(r.read_all(bytes.len() as u64).unwrap());
            assert_eq!(joined, insts, "chunk size {chunk}");
            assert!(r.next().is_none(), "read_all drains the reader");
        }
    }

    #[test]
    fn read_all_hostile_count_fails_on_missing_bytes_without_allocating() {
        // A CRC-valid header claiming 2^60 records over one real chunk: the
        // up-front allocation is capped by the input's length, so the load
        // dies on the absent second chunk, not on a 2^60-record allocation.
        let insts = small_insts(50);
        let real = v2_bytes(&insts, 64);
        let hlen = header_bytes(&meta(), 0, 64).len();
        let mut bytes = header_bytes(&meta(), 1 << 60, 64);
        bytes.extend_from_slice(&real[hlen..]);
        let e = TraceReader::new(&bytes[..])
            .unwrap()
            .read_all(bytes.len() as u64)
            .unwrap_err();
        assert!(
            e.to_string()
                .contains("truncated reading chunk 1 record count"),
            "{e}"
        );
        // A failed reader stays failed.
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        assert!(r.read_all(bytes.len() as u64).is_err());
        assert!(r.next().is_none());
        assert!(r.read_all(bytes.len() as u64).is_err());
    }

    #[test]
    fn empty_traces_roundtrip() {
        let v2 = v2_bytes(&[], 64);
        assert_eq!(read_trace(&v2[..]).unwrap(), vec![]);
    }
}
