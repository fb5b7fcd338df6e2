//! Trace serialisation: record a generated trace to a writer and replay
//! it later, so experiments can be archived and re-run bit-exactly (or
//! traces from a real machine can be fed in).
//!
//! The format is one operation per line, trivially greppable:
//!
//! ```text
//! # cppc-trace v1
//! L 1000
//! S 1008 deadbeef
//! B 1011 7f
//! ```
//!
//! `L` = load, `S` = 64-bit store (hex value), `B` = byte store.
//! Addresses and values are hexadecimal; the writer emits them bare,
//! the reader also accepts an optional `0x`/`0X` prefix and CRLF line
//! endings (traces recorded on other systems survive the round trip).

use std::fmt;
use std::io::{self, BufRead, Write};

use cppc_cache_sim::hierarchy::MemOp;

/// The header line identifying the format.
pub const HEADER: &str = "# cppc-trace v1";

/// Error while parsing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Missing or wrong header.
    BadHeader(String),
    /// A malformed line, with its 1-based line number.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadHeader(h) => write!(f, "bad trace header: '{h}'"),
            TraceError::BadLine {
                line,
                content,
                reason,
            } => {
                write!(f, "bad trace line {line} ({reason}): '{content}'")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Writes a trace to `out`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_trace<W: Write, I: IntoIterator<Item = MemOp>>(
    out: &mut W,
    trace: I,
) -> io::Result<usize> {
    writeln!(out, "{HEADER}")?;
    let mut n = 0;
    for op in trace {
        match op {
            MemOp::Load(a) => writeln!(out, "L {a:x}")?,
            MemOp::Store(a, v) => writeln!(out, "S {a:x} {v:x}")?,
            MemOp::StoreByte(a, v) => writeln!(out, "B {a:x} {v:x}")?,
        }
        n += 1;
    }
    Ok(n)
}

/// Reads a trace from `input`.
///
/// # Errors
///
/// Returns [`TraceError`] on I/O failures or malformed content.
pub fn read_trace<R: BufRead>(input: R) -> Result<Vec<MemOp>, TraceError> {
    // `BufRead::lines` already strips `\n` and a trailing `\r`, so CRLF
    // input parses identically to LF input.
    let mut lines = input.lines();
    let header = lines.next().transpose()?.unwrap_or_default();
    if header.trim() != HEADER {
        return Err(TraceError::BadHeader(header));
    }
    // Numbers are hex with an optional 0x/0X prefix (foreign tools and
    // hand-written traces often include it).
    let hex = |field: Option<&str>, missing: &'static str| -> Result<u64, &'static str> {
        let raw = field.ok_or(missing)?;
        let digits = raw
            .strip_prefix("0x")
            .or_else(|| raw.strip_prefix("0X"))
            .unwrap_or(raw);
        u64::from_str_radix(digits, 16).map_err(|_| "not a hex number")
    };
    let mut ops = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let bad = |reason: &'static str| TraceError::BadLine {
            line: i + 2,
            content: line.clone(),
            reason,
        };
        let mut parts = trimmed.split_whitespace();
        let kind = parts.next().ok_or_else(|| bad("missing op kind"))?;
        let addr = hex(parts.next(), "missing address").map_err(bad)?;
        let op = match kind {
            "L" => MemOp::Load(addr),
            "S" => MemOp::Store(addr, hex(parts.next(), "missing store value").map_err(bad)?),
            "B" => {
                let v = hex(parts.next(), "missing store value").map_err(bad)?;
                MemOp::StoreByte(
                    addr,
                    u8::try_from(v).map_err(|_| bad("byte-store value exceeds one byte"))?,
                )
            }
            _ => return Err(bad("unknown op kind (expected L, S or B)")),
        };
        if parts.next().is_some() {
            return Err(bad("trailing garbage after operands"));
        }
        ops.push(op);
    }
    Ok(ops)
}

/// Reads a Dinero-style `din` trace: one `<accesstype> <hexaddr>`
/// reference per line, where access type `0` is a data read, `1` a
/// data write and `2` an instruction fetch. Reads and fetches map to
/// [`MemOp::Load`]; writes map to [`MemOp::Store`] with value 0 (din
/// traces carry no data values). An optional third hex field (the
/// reference size some tools emit) is accepted and ignored.
///
/// # Errors
///
/// Returns [`TraceError`] on I/O failures or malformed content.
pub fn read_din_trace<R: BufRead>(input: R) -> Result<Vec<MemOp>, TraceError> {
    let hex = |field: Option<&str>, missing: &'static str| -> Result<u64, &'static str> {
        let raw = field.ok_or(missing)?;
        let digits = raw
            .strip_prefix("0x")
            .or_else(|| raw.strip_prefix("0X"))
            .unwrap_or(raw);
        u64::from_str_radix(digits, 16).map_err(|_| "not a hex number")
    };
    let mut ops = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let bad = |reason: &'static str| TraceError::BadLine {
            line: i + 1,
            content: line.clone(),
            reason,
        };
        let mut parts = trimmed.split_whitespace();
        let label = parts.next().ok_or_else(|| bad("missing access type"))?;
        let addr = hex(parts.next(), "missing address").map_err(bad)?;
        let op = match label {
            "0" | "2" => MemOp::Load(addr),
            "1" => MemOp::Store(addr, 0),
            _ => return Err(bad("unknown access type (expected 0, 1 or 2)")),
        };
        if let Some(size) = parts.next() {
            // The optional size field; it must at least look numeric.
            hex(Some(size), "not a hex number").map_err(bad)?;
            if parts.next().is_some() {
                return Err(bad("trailing garbage after operands"));
            }
        }
        ops.push(op);
    }
    Ok(ops)
}

/// The on-disk trace formats a trace file can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Text v1, this module's line format.
    Text,
    /// Binary v1 (`docs/TRACES.md`).
    Bin,
    /// Dinero `din` ([`read_din_trace`]).
    Din,
}

impl TraceFormat {
    /// The format's name: `text`, `bin` or `din`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Text => "text",
            TraceFormat::Bin => "bin",
            TraceFormat::Din => "din",
        }
    }

    /// Parses a format name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown format.
    pub fn parse(name: &str) -> Result<Self, String> {
        [TraceFormat::Text, TraceFormat::Bin, TraceFormat::Din]
            .into_iter()
            .find(|f| f.name() == name)
            .ok_or_else(|| format!("unknown trace format '{name}' (use text|bin|din)"))
    }

    /// The format of the file at `path`, judged from its first bytes:
    /// the binary magic, the text header, or (failing both) `din`,
    /// which has no signature of its own.
    ///
    /// # Errors
    ///
    /// Returns a message naming the file when it cannot be read.
    pub fn sniff(path: &str) -> Result<Self, String> {
        use std::io::Read;
        let mut head = [0u8; HEADER.len()];
        let mut file = open(path)?;
        let n = file
            .read(&mut head)
            .map_err(|e| format!("cannot read '{path}': {e}"))?;
        Ok(if head[..n].starts_with(&crate::binfmt::MAGIC) {
            TraceFormat::Bin
        } else if head[..n] == *HEADER.as_bytes() {
            TraceFormat::Text
        } else {
            TraceFormat::Din
        })
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn open(path: &str) -> Result<std::fs::File, String> {
    std::fs::File::open(path).map_err(|e| format!("cannot open '{path}': {e}"))
}

/// Reads the whole trace file at `path` in `format`, or in the format
/// [`TraceFormat::sniff`] finds when `format` is `None`.
///
/// # Errors
///
/// Returns a message naming the file on I/O failures or malformed
/// content.
pub fn read_trace_file(path: &str, format: Option<TraceFormat>) -> Result<Vec<MemOp>, String> {
    let format = match format {
        Some(format) => format,
        None => TraceFormat::sniff(path)?,
    };
    let file = open(path)?;
    let bad = |e: &dyn fmt::Display| format!("bad {format} trace '{path}': {e}");
    match format {
        TraceFormat::Text => read_trace(io::BufReader::new(file)).map_err(|e| bad(&e)),
        // No BufReader: the binary reader does its own chunked buffering.
        TraceFormat::Bin => crate::read_bin_trace(file).map_err(|e| bad(&e)),
        TraceFormat::Din => read_din_trace(io::BufReader::new(file)).map_err(|e| bad(&e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::profile::spec2000_profiles;
    use std::io::BufReader;

    #[test]
    fn roundtrip() {
        let ops = vec![
            MemOp::Load(0x1000),
            MemOp::Store(0x1008, 0xDEAD_BEEF),
            MemOp::StoreByte(0x1011, 0x7F),
        ];
        let mut buf = Vec::new();
        assert_eq!(write_trace(&mut buf, ops.clone()).unwrap(), 3);
        let back = read_trace(BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn generated_trace_roundtrips() {
        let p = &spec2000_profiles()[0];
        let ops: Vec<MemOp> = TraceGenerator::new(p, 77).take(5_000).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, ops.clone()).unwrap();
        assert_eq!(read_trace(BufReader::new(&buf[..])).unwrap(), ops);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_trace(BufReader::new(&b"not a trace\nL 0"[..])).unwrap_err();
        assert!(matches!(err, TraceError::BadHeader(_)));
    }

    #[test]
    fn rejects_malformed_lines() {
        for (bad, why) in [
            ("# cppc-trace v1\nX 10", "unknown op kind"),
            ("# cppc-trace v1\nL", "missing address"),
            ("# cppc-trace v1\nS 10", "missing store value"),
            ("# cppc-trace v1\nL zz", "not a hex number"),
            ("# cppc-trace v1\nL 0xzz", "not a hex number"),
            ("# cppc-trace v1\nB 10 1ff", "exceeds one byte"),
            ("# cppc-trace v1\nL 10 extra", "trailing garbage"),
            ("# cppc-trace v1\nS 10 20 30", "trailing garbage"),
        ] {
            let err = read_trace(BufReader::new(bad.as_bytes())).unwrap_err();
            match err {
                TraceError::BadLine {
                    line: 2, reason, ..
                } => {
                    assert!(reason.contains(why), "{bad}: got reason '{reason}'");
                }
                other => panic!("{bad}: expected BadLine, got {other}"),
            }
        }
    }

    #[test]
    fn accepts_crlf_line_endings() {
        let text = "# cppc-trace v1\r\nL a0\r\nS b0 1\r\nB c1 7f\r\n";
        let ops = read_trace(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(
            ops,
            vec![
                MemOp::Load(0xA0),
                MemOp::Store(0xB0, 1),
                MemOp::StoreByte(0xC1, 0x7F),
            ]
        );
    }

    #[test]
    fn accepts_0x_prefixes() {
        let text = "# cppc-trace v1\nL 0xa0\nS 0XB0 0x1\nB 0xc1 7f\n";
        let ops = read_trace(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(
            ops,
            vec![
                MemOp::Load(0xA0),
                MemOp::Store(0xB0, 1),
                MemOp::StoreByte(0xC1, 0x7F),
            ]
        );
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# cppc-trace v1\n\n# comment\nL a0\n";
        let ops = read_trace(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(ops, vec![MemOp::Load(0xA0)]);
    }

    #[test]
    fn din_import_maps_access_types() {
        let text = "0 1000\n1 0x2008\n2 3000\n0 4000 4\n";
        let ops = read_din_trace(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(
            ops,
            vec![
                MemOp::Load(0x1000),
                MemOp::Store(0x2008, 0),
                MemOp::Load(0x3000),
                MemOp::Load(0x4000),
            ]
        );
    }

    #[test]
    fn din_import_rejects_malformed_lines() {
        for (bad, why) in [
            ("7 1000", "unknown access type"),
            ("0", "missing address"),
            ("0 zz", "not a hex number"),
            ("0 1000 zz", "not a hex number"),
            ("0 1000 4 extra", "trailing garbage"),
        ] {
            let err = read_din_trace(BufReader::new(bad.as_bytes())).unwrap_err();
            match err {
                TraceError::BadLine {
                    line: 1, reason, ..
                } => {
                    assert!(reason.contains(why), "{bad}: got reason '{reason}'");
                }
                other => panic!("{bad}: expected BadLine, got {other}"),
            }
        }
    }

    #[test]
    fn error_display() {
        let e = TraceError::BadLine {
            line: 3,
            content: "oops".into(),
            reason: "trailing garbage after operands",
        };
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("trailing garbage"));
    }

    #[test]
    fn trace_formats_sniff_and_parse() {
        let dir = std::env::temp_dir().join(format!("cppc-trace-format-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ops = [MemOp::Load(0x40), MemOp::Store(0x48, 7)];
        let text = dir.join("t.txt");
        let mut out = Vec::new();
        write_trace(&mut out, ops).unwrap();
        std::fs::write(&text, out).unwrap();
        let bin = dir.join("t.cppct");
        crate::binfmt::write_bin_trace_file(&bin, &ops).unwrap();
        let din = dir.join("t.din");
        std::fs::write(&din, "0 40\n1 48\n").unwrap();
        for (path, format) in [
            (&text, TraceFormat::Text),
            (&bin, TraceFormat::Bin),
            (&din, TraceFormat::Din),
        ] {
            let path = path.to_str().unwrap();
            assert_eq!(TraceFormat::sniff(path), Ok(format), "{path}");
            assert_eq!(TraceFormat::parse(format.name()), Ok(format));
            let read = read_trace_file(path, None).unwrap();
            let values_kept = format != TraceFormat::Din; // din carries no data values
            assert_eq!(read[0], ops[0], "{path}");
            assert_eq!(read[1] == ops[1], values_kept, "{path}");
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(TraceFormat::parse("csv")
            .unwrap_err()
            .contains("text|bin|din"));
        assert!(read_trace_file("/nonexistent/t.txt", None)
            .unwrap_err()
            .contains("cannot open"));
    }
}
