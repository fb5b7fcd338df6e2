//! Versioned fixed-width binary trace format with a streaming reader.
//!
//! The text format (`trace_io`) is greppable but costs an ASCII parse
//! per operation — far too slow to feed SPEC-like address streams at
//! simulation speed. This module defines `cppc-trace-bin v1` (full spec
//! in `docs/TRACES.md`):
//!
//! * a 4096-byte page-aligned header — magic `CPPCT\x01`, record count,
//!   data offset — so the record array starts on a page boundary and
//!   the file can later be mapped directly;
//! * 16-byte little-endian records: word 0 packs the byte address in
//!   bits 0..62 with the op kind in bits 62..64, word 1 carries the
//!   store value;
//! * a buffered [`BinTraceWriter`] that back-patches the record count
//!   on [`finish`](BinTraceWriter::finish), so streams of unknown
//!   length produce byte-identical files to [`write_bin_trace`];
//! * a streaming [`BinTraceReader`] that decodes straight out of one
//!   reusable chunk buffer into caller-owned [`OpBatch`] lanes — O(1)
//!   memory for traces larger than RAM and zero heap allocation in
//!   steady state (pinned by `tests/alloc_free.rs`).

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use cppc_cache_sim::batch::{self, OpBatch};
use cppc_cache_sim::hierarchy::MemOp;
use cppc_cache_sim::TwoLevelHierarchy;

/// Magic bytes opening every binary trace: `CPPCT` + format version 1.
pub const MAGIC: [u8; 6] = *b"CPPCT\x01";

/// Header size in bytes. One page, so the record array that follows is
/// page-aligned (mmap-ready even though this crate only streams).
pub const HEADER_BYTES: u64 = 4096;

/// Size of one encoded record in bytes.
pub const RECORD_BYTES: usize = 16;

/// Record-count field value meaning "unknown, derive from the stream"
/// (a [`BinTraceWriter`] that was never [`finish`](BinTraceWriter::finish)ed).
pub const COUNT_UNKNOWN: u64 = u64::MAX;

/// Chunk size of the streaming reader's reusable buffer: a multiple of
/// both the record and page size, so refills stay record- and
/// page-aligned.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Default operations per [`OpBatch`] handed out by [`drive`].
pub const DEFAULT_BATCH_OPS: usize = 4096;

const ADDR_BITS: u32 = 62;
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;

/// Error while reading a binary trace.
#[derive(Debug)]
pub enum BinTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with a valid v1 header.
    BadHeader(String),
    /// A malformed record, with its 0-based record index.
    BadRecord {
        /// 0-based index of the offending record.
        index: u64,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The header's record count disagrees with the stream contents.
    CountMismatch {
        /// Count declared in the header.
        declared: u64,
        /// Records actually present.
        actual: u64,
    },
}

impl fmt::Display for BinTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinTraceError::Io(e) => write!(f, "binary trace I/O error: {e}"),
            BinTraceError::BadHeader(why) => write!(f, "bad binary trace header: {why}"),
            BinTraceError::BadRecord { index, reason } => {
                write!(f, "bad binary trace record {index}: {reason}")
            }
            BinTraceError::CountMismatch { declared, actual } => write!(
                f,
                "binary trace record count mismatch: header declares {declared}, stream holds {actual}"
            ),
        }
    }
}

impl std::error::Error for BinTraceError {}

impl From<io::Error> for BinTraceError {
    fn from(e: io::Error) -> Self {
        BinTraceError::Io(e)
    }
}

fn header_bytes(count: u64) -> [u8; HEADER_BYTES as usize] {
    let mut header = [0u8; HEADER_BYTES as usize];
    header[..6].copy_from_slice(&MAGIC);
    header[8..16].copy_from_slice(&count.to_le_bytes());
    header[16..24].copy_from_slice(&HEADER_BYTES.to_le_bytes());
    header
}

fn encode(op: MemOp) -> io::Result<[u8; RECORD_BYTES]> {
    let (addr, kind, value) = match op {
        MemOp::Load(a) => (a, batch::KIND_LOAD, 0),
        MemOp::Store(a, v) => (a, batch::KIND_STORE, v),
        MemOp::StoreByte(a, v) => (a, batch::KIND_STORE_BYTE, u64::from(v)),
    };
    if addr > ADDR_MASK {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("address {addr:#x} exceeds the format's 62-bit address space"),
        ));
    }
    let word0 = addr | (u64::from(kind) << ADDR_BITS);
    let mut rec = [0u8; RECORD_BYTES];
    rec[..8].copy_from_slice(&word0.to_le_bytes());
    rec[8..].copy_from_slice(&value.to_le_bytes());
    Ok(rec)
}

/// Writes a complete trace (known length) to `out`: header with the
/// exact record count, then one record per op. Produces the same bytes
/// a [`BinTraceWriter`] fed the same ops would after `finish`.
///
/// # Errors
///
/// Propagates I/O errors; rejects addresses above 2^62.
pub fn write_bin_trace<W: Write>(out: &mut W, ops: &[MemOp]) -> io::Result<usize> {
    out.write_all(&header_bytes(ops.len() as u64))?;
    for &op in ops {
        out.write_all(&encode(op)?)?;
    }
    Ok(ops.len())
}

/// Incremental binary trace writer for streams of unknown length.
///
/// Writes the header with [`COUNT_UNKNOWN`] up front and back-patches
/// the true count on [`finish`](BinTraceWriter::finish) (hence the
/// `Seek` bound). Dropping the writer without `finish` leaves a
/// readable file whose count the reader derives from the stream.
#[derive(Debug)]
pub struct BinTraceWriter<W: Write + Seek> {
    out: W,
    count: u64,
}

impl<W: Write + Seek> BinTraceWriter<W> {
    /// Starts a trace on `out`, writing the provisional header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&header_bytes(COUNT_UNKNOWN))?;
        Ok(BinTraceWriter { out, count: 0 })
    }

    /// Appends one operation.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; rejects addresses above 2^62.
    pub fn push(&mut self, op: MemOp) -> io::Result<()> {
        self.out.write_all(&encode(op)?)?;
        self.count += 1;
        Ok(())
    }

    /// Records written so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Back-patches the record count into the header, flushes, and
    /// returns the final count.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> io::Result<u64> {
        self.out.seek(SeekFrom::Start(8))?;
        self.out.write_all(&self.count.to_le_bytes())?;
        self.out.seek(SeekFrom::End(0))?;
        self.out.flush()?;
        Ok(self.count)
    }
}

/// Streaming reader decoding records chunk-at-a-time into [`OpBatch`]
/// lanes.
///
/// Holds exactly one [`CHUNK_BYTES`] buffer for the whole stream and
/// never allocates after construction (callers reuse their batch), so
/// memory stays O(1) however large the trace is.
#[derive(Debug)]
pub struct BinTraceReader<R: Read> {
    inner: R,
    declared: u64,
    decoded: u64,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
    finished: bool,
}

impl BinTraceReader<BufReader<File>> {
    /// Opens a binary trace file for streaming.
    ///
    /// # Errors
    ///
    /// Returns [`BinTraceError`] on I/O failures or a bad header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, BinTraceError> {
        // The reader does its own chunking; a minimal BufReader layer
        // would only add a redundant copy, so keep its buffer tiny.
        Self::new(BufReader::with_capacity(RECORD_BYTES, File::open(path)?))
    }
}

impl<R: Read> BinTraceReader<R> {
    /// Reads and validates the header, leaving the stream positioned at
    /// the first record.
    ///
    /// # Errors
    ///
    /// Returns [`BinTraceError`] on I/O failures or a bad header.
    pub fn new(mut inner: R) -> Result<Self, BinTraceError> {
        let mut header = [0u8; HEADER_BYTES as usize];
        inner.read_exact(&mut header).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => {
                BinTraceError::BadHeader("stream shorter than the 4096-byte header".into())
            }
            _ => BinTraceError::Io(e),
        })?;
        crate::obs::register_metrics();
        crate::obs::TRACE_BYTES_READ.add(HEADER_BYTES);
        if header[..6] != MAGIC {
            return Err(BinTraceError::BadHeader(format!(
                "magic {:02x?} is not CPPCT v1",
                &header[..6]
            )));
        }
        let declared = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let data_offset = u64::from_le_bytes(header[16..24].try_into().unwrap());
        if data_offset != HEADER_BYTES {
            return Err(BinTraceError::BadHeader(format!(
                "data offset {data_offset} (v1 requires {HEADER_BYTES})"
            )));
        }
        Ok(BinTraceReader {
            inner,
            declared,
            decoded: 0,
            buf: vec![0u8; CHUNK_BYTES],
            start: 0,
            end: 0,
            eof: false,
            finished: false,
        })
    }

    /// Record count declared by the header, if the writer knew it.
    #[must_use]
    pub fn declared_ops(&self) -> Option<u64> {
        (self.declared != COUNT_UNKNOWN).then_some(self.declared)
    }

    /// Operations decoded so far.
    #[must_use]
    pub fn ops_decoded(&self) -> u64 {
        self.decoded
    }

    /// Slides leftover bytes to the buffer front and reads more.
    /// Returns `false` once the stream is exhausted and fewer than
    /// [`RECORD_BYTES`] remain buffered.
    fn refill(&mut self) -> io::Result<bool> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        crate::obs::TRACE_CHUNK_REFILLS.inc();
        while !self.eof && self.end < self.buf.len() {
            let n = self.inner.read(&mut self.buf[self.end..])?;
            if n == 0 {
                self.eof = true;
            } else {
                self.end += n;
                crate::obs::TRACE_BYTES_READ.add(n as u64);
            }
        }
        Ok(self.end - self.start >= RECORD_BYTES)
    }

    /// Decodes up to `max_ops` records into `batch` (cleared first).
    /// Returns the number decoded; `0` means the stream ended cleanly.
    ///
    /// # Errors
    ///
    /// Returns [`BinTraceError`] on I/O failures, malformed records, a
    /// trailing partial record, or a header/stream count disagreement.
    pub fn next_batch(
        &mut self,
        batch: &mut OpBatch,
        max_ops: usize,
    ) -> Result<usize, BinTraceError> {
        batch.clear();
        batch.reserve(max_ops);
        while batch.len() < max_ops {
            let avail = self.end - self.start;
            if avail < RECORD_BYTES {
                if self.eof || !self.refill()? {
                    break;
                }
                continue;
            }
            let take = (avail / RECORD_BYTES).min(max_ops - batch.len());
            for rec in
                self.buf[self.start..self.start + take * RECORD_BYTES].chunks_exact(RECORD_BYTES)
            {
                let word0 = u64::from_le_bytes(rec[..8].try_into().unwrap());
                let value = u64::from_le_bytes(rec[8..].try_into().unwrap());
                let kind = (word0 >> ADDR_BITS) as u8;
                let index = self.decoded + batch.len() as u64;
                if kind > batch::KIND_STORE_BYTE {
                    return Err(BinTraceError::BadRecord {
                        index,
                        reason: "invalid op kind (tag 3 is reserved)",
                    });
                }
                if kind == batch::KIND_STORE_BYTE && value > 0xFF {
                    return Err(BinTraceError::BadRecord {
                        index,
                        reason: "byte-store value exceeds one byte",
                    });
                }
                batch.push_raw(word0 & ADDR_MASK, kind, value);
            }
            self.start += take * RECORD_BYTES;
        }
        self.decoded += batch.len() as u64;
        crate::obs::TRACE_OPS_DECODED.add(batch.len() as u64);
        if batch.is_empty() && !self.finished {
            self.finished = true;
            if self.end - self.start != 0 {
                return Err(BinTraceError::BadRecord {
                    index: self.decoded,
                    reason: "trailing partial record",
                });
            }
            if self.declared != COUNT_UNKNOWN && self.decoded != self.declared {
                return Err(BinTraceError::CountMismatch {
                    declared: self.declared,
                    actual: self.decoded,
                });
            }
        }
        Ok(batch.len())
    }
}

/// Most operations [`read_bin_trace`] reserves up front from a header's
/// record count (96 MiB of `MemOp`s). The count is untrusted: a flipped
/// bit can declare 2^40 records, which must end in
/// [`BinTraceError::CountMismatch`], not in an aborted allocation. An
/// honest count up to this size still gets one exact reservation.
const MAX_RESERVED_OPS: u64 = 1 << 22;

/// Materialises a whole binary trace (use [`BinTraceReader`] directly
/// when the trace may not fit in memory).
///
/// # Errors
///
/// Returns [`BinTraceError`] on I/O failures or malformed content.
pub fn read_bin_trace<R: Read>(input: R) -> Result<Vec<MemOp>, BinTraceError> {
    let mut reader = BinTraceReader::new(input)?;
    let reserve = reader.declared_ops().unwrap_or(0).min(MAX_RESERVED_OPS);
    let mut ops = Vec::with_capacity(reserve as usize);
    let mut batch = OpBatch::with_capacity(DEFAULT_BATCH_OPS);
    while reader.next_batch(&mut batch, DEFAULT_BATCH_OPS)? > 0 {
        ops.extend(batch.iter());
    }
    Ok(ops)
}

/// Convenience: writes `ops` as a binary trace file at `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_bin_trace_file<P: AsRef<Path>>(path: P, ops: &[MemOp]) -> io::Result<usize> {
    let mut out = BufWriter::new(File::create(path)?);
    let n = write_bin_trace(&mut out, ops)?;
    out.flush()?;
    Ok(n)
}

/// Streams the remainder of `reader` through `hierarchy` one batch at a
/// time via [`TwoLevelHierarchy::run_batch`], reusing the caller's
/// `batch` storage ([`DEFAULT_BATCH_OPS`] ops per refill). Returns the
/// number of operations driven.
///
/// # Errors
///
/// Returns [`BinTraceError`] on I/O failures or malformed content.
pub fn drive<R: Read>(
    reader: &mut BinTraceReader<R>,
    hierarchy: &mut TwoLevelHierarchy,
    batch: &mut OpBatch,
) -> Result<u64, BinTraceError> {
    let mut driven = 0;
    while reader.next_batch(batch, DEFAULT_BATCH_OPS)? > 0 {
        hierarchy.run_batch(batch);
        driven += batch.len() as u64;
    }
    Ok(driven)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::profile::spec2000_profiles;
    use std::io::Cursor;

    fn sample() -> Vec<MemOp> {
        vec![
            MemOp::Load(0x1000),
            MemOp::Store(0x1008, 0xDEAD_BEEF_F00D_CAFE),
            MemOp::StoreByte(0x1011, 0x7F),
            MemOp::Load(ADDR_MASK),
        ]
    }

    #[test]
    fn roundtrip() {
        let ops = sample();
        let mut buf = Vec::new();
        assert_eq!(write_bin_trace(&mut buf, &ops).unwrap(), ops.len());
        assert_eq!(buf.len(), HEADER_BYTES as usize + ops.len() * RECORD_BYTES);
        assert_eq!(read_bin_trace(Cursor::new(&buf)).unwrap(), ops);
    }

    #[test]
    fn generated_trace_roundtrips() {
        let p = &spec2000_profiles()[0];
        let ops: Vec<MemOp> = TraceGenerator::new(p, 77).take(20_000).collect();
        let mut buf = Vec::new();
        write_bin_trace(&mut buf, &ops).unwrap();
        assert_eq!(read_bin_trace(Cursor::new(&buf)).unwrap(), ops);
    }

    #[test]
    fn incremental_writer_matches_batch_writer_bytes() {
        let ops = sample();
        let mut whole = Vec::new();
        write_bin_trace(&mut whole, &ops).unwrap();
        let mut cursor = Cursor::new(Vec::new());
        let mut w = BinTraceWriter::new(&mut cursor).unwrap();
        for &op in &ops {
            w.push(op).unwrap();
        }
        assert_eq!(w.finish().unwrap(), ops.len() as u64);
        assert_eq!(cursor.into_inner(), whole, "byte-identical files");
    }

    #[test]
    fn unfinished_writer_is_still_readable() {
        let mut cursor = Cursor::new(Vec::new());
        {
            let mut w = BinTraceWriter::new(&mut cursor).unwrap();
            w.push(MemOp::Load(0x40)).unwrap();
            // no finish: count stays COUNT_UNKNOWN
        }
        let bytes = cursor.into_inner();
        let reader = BinTraceReader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.declared_ops(), None);
        assert_eq!(
            read_bin_trace(Cursor::new(&bytes)).unwrap(),
            vec![MemOp::Load(0x40)]
        );
    }

    #[test]
    fn streaming_reader_crosses_chunk_boundaries() {
        // More records than one chunk holds, with a batch size that
        // does not divide the chunk, so refills land mid-batch.
        let p = &spec2000_profiles()[1];
        let ops: Vec<MemOp> = TraceGenerator::new(p, 9)
            .take(3 * CHUNK_BYTES / RECORD_BYTES)
            .collect();
        let mut buf = Vec::new();
        write_bin_trace(&mut buf, &ops).unwrap();
        let mut reader = BinTraceReader::new(Cursor::new(&buf)).unwrap();
        assert_eq!(reader.declared_ops(), Some(ops.len() as u64));
        let mut batch = OpBatch::new();
        let mut back = Vec::new();
        while reader.next_batch(&mut batch, 1000).unwrap() > 0 {
            back.extend(batch.iter());
        }
        assert_eq!(back, ops);
        assert_eq!(reader.ops_decoded(), ops.len() as u64);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_bin_trace(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_bin_trace(Cursor::new(&buf)).unwrap_err(),
            BinTraceError::BadHeader(_)
        ));
    }

    #[test]
    fn rejects_truncated_header() {
        let err = read_bin_trace(Cursor::new(vec![0u8; 100])).unwrap_err();
        assert!(matches!(err, BinTraceError::BadHeader(_)));
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut buf = Vec::new();
        write_bin_trace(&mut buf, &sample()).unwrap();
        buf[17] = 0x20; // data offset 4096 -> 8192
        assert!(matches!(
            read_bin_trace(Cursor::new(&buf)).unwrap_err(),
            BinTraceError::BadHeader(_)
        ));
    }

    #[test]
    fn rejects_reserved_kind() {
        let mut buf = Vec::new();
        write_bin_trace(&mut buf, &[MemOp::Load(0x40)]).unwrap();
        let rec = HEADER_BYTES as usize;
        buf[rec + 7] |= 0xC0; // kind tag 3
        let err = read_bin_trace(Cursor::new(&buf)).unwrap_err();
        assert!(
            matches!(err, BinTraceError::BadRecord { index: 0, reason } if reason.contains("kind"))
        );
    }

    #[test]
    fn rejects_wide_byte_store_value() {
        let mut buf = Vec::new();
        write_bin_trace(&mut buf, &[MemOp::StoreByte(0x40, 1)]).unwrap();
        buf[HEADER_BYTES as usize + 9] = 1; // value 0x101
        let err = read_bin_trace(Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, BinTraceError::BadRecord { index: 0, .. }));
    }

    #[test]
    fn rejects_trailing_partial_record() {
        let mut buf = Vec::new();
        write_bin_trace(&mut buf, &[MemOp::Load(0x40)]).unwrap();
        buf.extend_from_slice(&[1, 2, 3]);
        let err = read_bin_trace(Cursor::new(&buf)).unwrap_err();
        assert!(
            matches!(err, BinTraceError::BadRecord { reason, .. } if reason.contains("partial"))
        );
    }

    #[test]
    fn rejects_count_mismatch() {
        let mut buf = Vec::new();
        write_bin_trace(&mut buf, &sample()).unwrap();
        buf[8] = 99;
        let err = read_bin_trace(Cursor::new(&buf)).unwrap_err();
        assert!(matches!(
            err,
            BinTraceError::CountMismatch {
                declared: 99,
                actual: 4
            }
        ));
    }

    #[test]
    fn huge_declared_count_is_a_mismatch_not_an_abort() {
        let mut buf = Vec::new();
        write_bin_trace(&mut buf, &sample()).unwrap();
        buf[12] ^= 0xFF; // 4 + 0xFF << 32 records declared
        let err = read_bin_trace(Cursor::new(&buf)).unwrap_err();
        assert!(matches!(
            err,
            BinTraceError::CountMismatch { declared, actual: 4 } if declared == 4 + (0xFF << 32)
        ));
    }

    #[test]
    fn rejects_oversized_address_on_write() {
        let mut buf = Vec::new();
        let err = write_bin_trace(&mut buf, &[MemOp::Load(1 << ADDR_BITS)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn drive_matches_materialized_run() {
        use cppc_cache_sim::{CacheGeometry, ReplacementPolicy};
        let p = &spec2000_profiles()[2];
        let ops: Vec<MemOp> = TraceGenerator::new(p, 0xD1CE).take(30_000).collect();
        let mut buf = Vec::new();
        write_bin_trace(&mut buf, &ops).unwrap();

        let l1 = CacheGeometry::new(8 * 1024, 2, 32).unwrap();
        let l2 = CacheGeometry::new(32 * 1024, 4, 32).unwrap();
        let mut direct = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
        direct.run(ops.iter().copied());

        let mut streamed = TwoLevelHierarchy::new(l1, l2, ReplacementPolicy::Lru);
        let mut reader = BinTraceReader::new(Cursor::new(&buf)).unwrap();
        let mut batch = OpBatch::new();
        let driven = drive(&mut reader, &mut streamed, &mut batch).unwrap();
        assert_eq!(driven, ops.len() as u64);
        assert_eq!(direct.stats(), streamed.stats());
        assert_eq!(direct.cycle(), streamed.cycle());
    }

    #[test]
    fn error_display() {
        assert!(BinTraceError::BadRecord {
            index: 7,
            reason: "x"
        }
        .to_string()
        .contains("record 7"));
        assert!(BinTraceError::CountMismatch {
            declared: 1,
            actual: 2
        }
        .to_string()
        .contains("declares 1"));
    }
}
