//! Versioned binary trace serialisation.
//!
//! Traces are captured once and replayed into the simulator, mirroring the
//! paper's trace-driven methodology (their traces were collected ahead of
//! time from Alpha binaries).  Two formats share the `PSTR` magic:
//!
//! * **v1** — the original fixed-width little-endian record stream behind a
//!   12-byte header.  Kept readable (and writable via [`write_trace`]) so
//!   existing traces and the compatibility tests keep working, but it has
//!   no integrity checking and no embedded identity.
//! * **v2** — the shipping format: a self-describing header (profile name,
//!   workload/exec seeds, instruction count, chunk size, header CRC-32)
//!   followed by chunked records, each chunk carrying its own CRC-32.  The
//!   chunking is what makes the format *streamable*: [`TraceWriter`] emits
//!   and [`TraceReader`] consumes one bounded chunk at a time, so a
//!   multi-hundred-MB trace records and replays at constant memory instead
//!   of materialising a `Vec<DynInst>`.
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
/// Current format version (the chunked, CRC-checked layout above).
pub const VERSION: u32 = 2;
/// The legacy headerless-record format still accepted by [`TraceReader`].
pub const VERSION_V1: u32 = 1;
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
// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slice-by-8 so chunk
// verification stays far off the replay critical path.
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

/// CRC-32 of `data` (IEEE; `crc32(b"123456789") == 0xCBF4_3926`).  Public
/// so conformance tests and external tools can re-derive section CRCs.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
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
    !crc
}

// ---------------------------------------------------------------------------
// Record codec (shared by v1 and v2).
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

fn op_from_u8(x: u8) -> Result<OpClass, String> {
    Ok(match x {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::FpAlu,
        3 => OpClass::FpMul,
        4 => OpClass::Load,
        5 => OpClass::Store,
        6 => OpClass::CondBranch,
        7 => OpClass::Jump,
        8 => OpClass::Call,
        9 => OpClass::Return,
        other => return Err(format!("bad opclass byte {other}")),
    })
}

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

/// Decode one record from `buf` at `*pos`, advancing `*pos`.  String errors
/// name the failing part; the caller adds file-level context (chunk/record
/// indices).
///
/// This is the replay hot path: the happy case does one bounds check for
/// the 24-byte fixed part (and one more for an optional memory address);
/// the named per-field diagnosis only runs once something already failed.
fn decode_inst(buf: &[u8], pos: &mut usize) -> Result<DynInst, String> {
    let p = *pos;
    let Some(head) = buf.get(p..p + MIN_REC_BYTES) else {
        return Err(diagnose_short_record(buf.len() - p.min(buf.len())));
    };
    let le_u64 =
        |s: &[u8]| u64::from_le_bytes(<[u8; 8]>::try_from(s).expect("8 bytes"));
    let op = op_from_u8(head[8])?;
    let flags = head[15];
    if flags & !3 != 0 {
        return Err(format!("bad flags byte {flags:#04x}"));
    }
    let mem_addr = if flags & 2 != 0 {
        let Some(m) = buf.get(p + MIN_REC_BYTES..p + MAX_REC_BYTES) else {
            return Err("payload ends inside memory address".into());
        };
        *pos = p + MAX_REC_BYTES;
        Some(le_u64(m))
    } else {
        *pos = p + MIN_REC_BYTES;
        None
    };
    Ok(DynInst {
        pc: le_u64(&head[0..8]),
        op,
        block: BlockId(u32::from_le_bytes(head[9..13].try_into().expect("4 bytes"))),
        idx: u16::from_le_bytes(head[13..15].try_into().expect("2 bytes")),
        taken: flags & 1 != 0,
        next_pc: le_u64(&head[16..24]),
        mem_addr,
    })
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

/// The identity a v2 trace carries: which benchmark it was recorded from
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

/// Parsed trace header, either version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// 1 or 2.
    pub version: u32,
    /// Total records in the file.
    pub count: u64,
    /// Records per full chunk (0 for v1, which is unchunked).
    pub chunk_insts: u32,
    /// Embedded identity; `None` for v1 traces, which carry none.
    pub meta: Option<TraceMeta>,
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

/// Streaming trace reader: an `Iterator<Item = io::Result<DynInst>>` over
/// either format, decoding (and CRC-verifying, for v2) one chunk at a time
/// at constant memory — the payload and record buffers are reused across
/// chunks, so a multi-GB trace replays with two bounded allocations.
/// After the first error the iterator fuses.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    header: TraceHeader,
    /// Records handed to the consumer so far.
    produced: u64,
    /// Decoded records of the current chunk (reused) and the drain cursor.
    chunk: Vec<DynInst>,
    chunk_pos: usize,
    /// Raw payload buffer, reused across chunks.
    payload: Vec<u8>,
    chunks_read: u64,
    verify_chunks: bool,
    failed: bool,
    trailing_checked: bool,
}

impl<R: Read> TraceReader<R> {
    /// Parse the header (v1 or v2) and position the reader at the first
    /// record.  v2 headers are CRC-verified here; chunk payloads as they
    /// stream.
    pub fn new(r: R) -> io::Result<Self> {
        Self::with_verification(r, true)
    }

    /// A reader that skips per-chunk payload-CRC *recomputation* (all
    /// structural checks remain).  For consumers that already verified the
    /// file this process — a spec `Sweep` vets every trace end-to-end
    /// once, then fans out to per-cell readers; re-hashing the same bytes
    /// in every cell would be pure overhead on the sweep's hot path.
    pub fn trusted(r: R) -> io::Result<Self> {
        Self::with_verification(r, false)
    }

    fn with_verification(mut r: R, verify_chunks: bool) -> io::Result<Self> {
        let magic = read_field::<4>(&mut r, "magic")?;
        if magic != MAGIC {
            return Err(invalid(format!("bad magic {magic:02x?} (not a PSTR trace)")));
        }
        let version = u32::from_le_bytes(read_field::<4>(&mut r, "version")?);
        let header = match version {
            VERSION_V1 => TraceHeader {
                version,
                count: u64::from_le_bytes(read_field::<8>(&mut r, "record count")?),
                chunk_insts: 0,
                meta: None,
            },
            VERSION => {
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
                TraceHeader {
                    version,
                    count: u64::from_le_bytes(count_b),
                    chunk_insts,
                    meta: Some(TraceMeta {
                        profile,
                        workload_seed: u64::from_le_bytes(wseed_b),
                        exec_seed: u64::from_le_bytes(xseed_b),
                    }),
                }
            }
            other => {
                return Err(invalid(format!(
                    "unsupported trace version {other} (this build reads v1 and v2)"
                )))
            }
        };
        Ok(TraceReader {
            r,
            header,
            produced: 0,
            chunk: Vec::new(),
            chunk_pos: 0,
            payload: Vec::new(),
            chunks_read: 0,
            verify_chunks,
            failed: false,
            trailing_checked: false,
        })
    }

    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Chunks decoded so far (diagnostics; v1 always 0).
    pub fn chunks_read(&self) -> u64 {
        self.chunks_read
    }

    /// Decode the next v2 chunk, appending its records to `out`; returns
    /// how many it held.  `produced` is left to the caller, which counts
    /// records as it hands them out.
    fn read_chunk(&mut self, out: &mut Vec<DynInst>) -> io::Result<u32> {
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
        let remaining = self.header.count - self.produced;
        if n as u64 > remaining {
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
        if self.payload.len() < plen {
            self.payload.resize(plen, 0);
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
        let mut pos = 0usize;
        out.reserve(n as usize);
        for j in 0..n {
            out.push(
                decode_inst(payload, &mut pos)
                    .map_err(|e| invalid(format!("chunk {k} record {j}: {e}")))?,
            );
        }
        if pos != plen {
            return Err(invalid(format!(
                "chunk {k} payload has {} trailing bytes after its {n} records",
                plen - pos
            )));
        }
        self.chunks_read += 1;
        Ok(n)
    }

    /// v2 forbids trailing garbage: a concatenated or padded file is
    /// corruption, not silence.  (v1 stays permissive, as it always was.)
    fn check_trailing(&mut self) -> io::Result<()> {
        if self.header.version != VERSION || self.trailing_checked {
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

    /// Decode every remaining record into one vector, allocated once: the
    /// whole-trace load.  Every check the iterator makes still runs (chunk
    /// framing, chunk CRCs unless [`trusted`](Self::trusted), record
    /// bounds, trailing data), but chunks decode straight into the result,
    /// without a per-record `io::Result`.
    ///
    /// The header's count is untrusted (a CRC is not a MAC): the up-front
    /// allocation is the declared remaining count capped by what
    /// `input_len` bytes can hold, so a header claiming 2^60 records over a
    /// small input fails on its missing bytes instead of allocating first.
    /// Pass the input's byte length when it is known, or a smaller cap; the
    /// vector grows past the cap if records keep decoding.
    pub fn read_all(&mut self, input_len: u64) -> io::Result<Vec<DynInst>> {
        if self.failed {
            return Err(invalid("trace reader already failed".into()));
        }
        let cap = (self.header.count - self.produced).min(input_len / MIN_REC_BYTES as u64);
        let mut out = Vec::with_capacity(usize::try_from(cap).unwrap_or(0));
        if self.header.version == VERSION_V1 {
            for rec in self.by_ref() {
                out.push(rec?);
            }
            return Ok(out);
        }
        // The rest of a chunk the iterator already started.
        out.extend_from_slice(&self.chunk[self.chunk_pos..]);
        self.produced += (self.chunk.len() - self.chunk_pos) as u64;
        self.chunk_pos = self.chunk.len();
        while self.produced < self.header.count {
            match self.read_chunk(&mut out) {
                Ok(n) => self.produced += u64::from(n),
                Err(e) => return Err(self.fail(e)),
            }
        }
        self.check_trailing().map_err(|e| self.fail(e))?;
        Ok(out)
    }

    /// One v1 record straight off the reader.
    fn read_v1_record(&mut self) -> io::Result<DynInst> {
        // Large enough for the widest record; decode_inst bounds the reads.
        let what = format!(
            "record {} of the header's {}",
            self.produced, self.header.count
        );
        let mut head = [0u8; MIN_REC_BYTES];
        self.r.read_exact(&mut head).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                invalid(format!("trace truncated reading {what}"))
            } else {
                e
            }
        })?;
        // Peek the flags byte (offset 15) to learn whether a memory address
        // follows, then decode the full record from one buffer.
        let mut buf = head.to_vec();
        if head[15] & 2 != 0 {
            let tail = read_field::<8>(&mut self.r, &what)?;
            buf.extend_from_slice(&tail);
        }
        let mut pos = 0;
        let inst = decode_inst(&buf, &mut pos).map_err(|e| invalid(format!("{what}: {e}")))?;
        debug_assert_eq!(pos, buf.len());
        Ok(inst)
    }

    fn next_record(&mut self) -> Option<io::Result<DynInst>> {
        if self.failed {
            return None;
        }
        if self.produced == self.header.count {
            return self.check_trailing().err().map(|e| Err(self.fail(e)));
        }
        if self.header.version != VERSION_V1 {
            // Fast path: drain the decoded chunk without re-entering the
            // framing logic per record.
            if let Some(&i) = self.chunk.get(self.chunk_pos) {
                self.chunk_pos += 1;
                self.produced += 1;
                return Some(Ok(i));
            }
            let mut chunk = std::mem::take(&mut self.chunk);
            chunk.clear();
            let read = self.read_chunk(&mut chunk);
            self.chunk = chunk;
            if let Err(e) = read {
                return Some(Err(self.fail(e)));
            }
            self.chunk_pos = 1;
            self.produced += 1;
            return Some(Ok(self.chunk[0]));
        }
        match self.read_v1_record() {
            Ok(i) => {
                self.produced += 1;
                Some(Ok(i))
            }
            Err(e) => Some(Err(self.fail(e))),
        }
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

/// Write a trace in the **v1** format — kept for compatibility (and the
/// v1→v2 read-compatibility tests); new traces should go through
/// [`TraceWriter`] / [`record_trace`], which carry identity and CRCs.
pub fn write_trace<W: Write>(mut w: W, insts: &[DynInst]) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION_V1.to_le_bytes())?;
    w.write_all(&(insts.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(MAX_REC_BYTES);
    for i in insts {
        buf.clear();
        encode_inst(&mut buf, i);
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Read a whole trace (either version) into memory.
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
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Slice-by-8 path (>= 8 bytes) agrees with the bytewise tail path.
        let long: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let bytewise = {
            let mut c = !0u32;
            for &b in &long {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        };
        assert_eq!(crc32(&long), bytewise);
    }

    #[test]
    fn v1_roundtrip_exact() {
        let insts = small_insts(10_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &insts).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), insts);
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
        assert_eq!(h.version, VERSION);
        assert_eq!(h.count, insts.len() as u64);
        assert_eq!(h.chunk_insts, 32);
        assert_eq!(h.meta, Some(meta()));
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
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        buf[4] = 99;
        let e = read_trace(&buf[..]).unwrap_err();
        assert!(e.to_string().contains("version 99"), "{e}");
    }

    #[test]
    fn rejects_truncation_either_version() {
        let insts = small_insts(100);
        let mut v1 = Vec::new();
        write_trace(&mut v1, &insts).unwrap();
        v1.truncate(v1.len() - 3);
        let e = read_trace(&v1[..]).unwrap_err();
        assert!(e.to_string().contains("truncated"), "{e}");

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
        // v1 header claiming 2^60 records over an empty body: must error on
        // the missing first record, not allocate.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION_V1.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 60).to_le_bytes());
        let e = read_trace(&buf[..]).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("truncated") && msg.contains("record 0"), "{msg}");
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
    fn empty_traces_roundtrip_both_versions() {
        let mut v1 = Vec::new();
        write_trace(&mut v1, &[]).unwrap();
        assert_eq!(read_trace(&v1[..]).unwrap(), vec![]);
        let v2 = v2_bytes(&[], 64);
        assert_eq!(read_trace(&v2[..]).unwrap(), vec![]);
    }
}
