//! A compact binary on-disk format for reference traces.
//!
//! The paper generated traces with Shade and stored sampled trace files;
//! this module plays the same role for our synthetic traces so expensive
//! workload generation can be done once and replayed many times.
//!
//! Two formats are provided:
//!
//! * **Raw (v1)**: a 16-byte header (`b"SSTR"` magic, `u32` version,
//!   `u64` record count, little-endian) followed by one `u64` per
//!   reference with the [`AccessKind`] packed into the top two bits
//!   ([`write_trace`] / [`read_trace`]). Addresses are limited to 62
//!   bits, far beyond any simulated footprint.
//! * **Delta-compressed (v2)**: the same header (version 2) followed by
//!   one varint-encoded record per reference: the kind plus the
//!   zigzag-encoded address delta from the previous reference of that
//!   kind ([`write_trace_compressed`] / [`read_trace_compressed`]).
//!   Reference streams are dominated by small per-kind strides, so this
//!   typically shrinks traces 3–6× with no loss.
//!
//! Readers and writers take `R: Read` / `W: Write` by value; pass `&mut r`
//! to keep using the underlying stream afterwards.
//!
//! # Example
//!
//! ```
//! use streamsim_trace::{Access, Addr};
//! use streamsim_trace::io::{read_trace, write_trace};
//!
//! # fn main() -> std::io::Result<()> {
//! let trace = vec![Access::load(Addr::new(64)), Access::store(Addr::new(96))];
//! let mut buf = Vec::new();
//! write_trace(&mut buf, &trace)?;
//! assert_eq!(read_trace(&buf[..])?, trace);
//! # Ok(())
//! # }
//! ```

use std::io::{self, Read, Write};

use crate::{Access, AccessKind, Addr};

const MAGIC: [u8; 4] = *b"SSTR";
const VERSION: u32 = 1;
const KIND_SHIFT: u32 = 62;
const ADDR_MASK: u64 = (1 << KIND_SHIFT) - 1;

fn encode(access: Access) -> u64 {
    let kind = access.kind.as_index() as u64;
    (kind << KIND_SHIFT) | (access.addr.raw() & ADDR_MASK)
}

fn decode(word: u64) -> io::Result<Access> {
    let kind = match word >> KIND_SHIFT {
        0 => AccessKind::Load,
        1 => AccessKind::Store,
        2 => AccessKind::IFetch,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid access kind tag {other}"),
            ))
        }
    };
    Ok(Access::new(Addr::new(word & ADDR_MASK), kind))
}

/// Records a decoder reserves before reading any: 1 MiB of [`Access`]es.
/// A header's record count is untrusted input, so it never sizes an
/// allocation by itself; past this the vector grows only as records
/// actually arrive, which bounds memory by the bytes really present.
const MAX_PREALLOC_RECORDS: usize = 1 << 16;

/// The vector a decoder fills for a header claiming `count` records.
fn records_for(count: u64) -> io::Result<Vec<Access>> {
    let count = usize::try_from(count).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace header claims {count} records, more than this platform can address"),
        )
    })?;
    Ok(Vec::with_capacity(count.min(MAX_PREALLOC_RECORDS)))
}

/// Maps an early end of input to a typed error naming the shortfall;
/// other errors pass through.
fn truncated(e: io::Error, count: u64, read: usize) -> io::Error {
    if e.kind() != io::ErrorKind::UnexpectedEof {
        return e;
    }
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("truncated trace: header claims {count} records, input ends after {read}"),
    )
}

/// Writes a trace to `writer` in the `SSTR` binary format.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer. Addresses above
/// 2^62 − 1 are rejected with [`io::ErrorKind::InvalidInput`].
pub fn write_trace<W: Write>(mut writer: W, trace: &[Access]) -> io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    for &access in trace {
        if access.addr.raw() > ADDR_MASK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("address {} exceeds the 62-bit trace format", access.addr),
            ));
        }
        writer.write_all(&encode(access).to_le_bytes())?;
    }
    writer.flush()
}

/// Reads a complete trace from `reader`.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] if the magic, version or a record
/// is malformed, or if the stream ends before `count` records are read, and
/// propagates underlying I/O errors. The header's count never sizes an
/// allocation beyond what the records actually read need.
pub fn read_trace<R: Read>(mut reader: R) -> io::Result<Vec<Access>> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a streamsim trace (bad magic)",
        ));
    }
    let mut version = [0u8; 4];
    reader.read_exact(&mut version)?;
    let version = u32::from_le_bytes(version);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    let mut count = [0u8; 8];
    reader.read_exact(&mut count)?;
    let count = u64::from_le_bytes(count);
    let mut trace = records_for(count)?;
    let mut word = [0u8; 8];
    for _ in 0..count {
        reader
            .read_exact(&mut word)
            .map_err(|e| truncated(e, count, trace.len()))?;
        trace.push(decode(u64::from_le_bytes(word))?);
    }
    Ok(trace)
}

const VERSION_COMPRESSED: u32 = 2;

/// Zigzag-encodes a signed delta into an unsigned varint payload.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint<W: Write>(writer: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return writer.write_all(&[byte]);
        }
        writer.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint longer than 64 bits",
            ));
        }
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Writes a trace in the delta-compressed (v2) format.
///
/// Each record is one byte of kind tag followed by the zigzag-varint
/// delta from the previous address *of the same kind* — instruction
/// fetches and data references compress independently, since each is
/// near-sequential on its own.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_trace_compressed<W: Write>(mut writer: W, trace: &[Access]) -> io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION_COMPRESSED.to_le_bytes())?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut last = [0u64; 3];
    for &access in trace {
        let kind = access.kind.as_index();
        let delta = access.addr.raw().wrapping_sub(last[kind]) as i64;
        last[kind] = access.addr.raw();
        writer.write_all(&[kind as u8])?;
        write_varint(&mut writer, zigzag(delta))?;
    }
    writer.flush()
}

/// Reads a delta-compressed (v2) trace.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for a bad magic, version or
/// kind tag, or a stream that ends before the header's record count, and
/// propagates underlying I/O errors.
pub fn read_trace_compressed<R: Read>(mut reader: R) -> io::Result<Vec<Access>> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a streamsim trace (bad magic)",
        ));
    }
    let mut version = [0u8; 4];
    reader.read_exact(&mut version)?;
    if u32::from_le_bytes(version) != VERSION_COMPRESSED {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a compressed (v2) streamsim trace",
        ));
    }
    let mut count = [0u8; 8];
    reader.read_exact(&mut count)?;
    let count = u64::from_le_bytes(count);
    let mut trace = records_for(count)?;
    let mut last = [0u64; 3];
    for _ in 0..count {
        let mut tag = [0u8; 1];
        reader
            .read_exact(&mut tag)
            .map_err(|e| truncated(e, count, trace.len()))?;
        let kind = match tag[0] {
            0 => AccessKind::Load,
            1 => AccessKind::Store,
            2 => AccessKind::IFetch,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("invalid access kind tag {other}"),
                ))
            }
        };
        let delta =
            unzigzag(read_varint(&mut reader).map_err(|e| truncated(e, count, trace.len()))?);
        let addr = last[kind.as_index()].wrapping_add(delta as u64);
        last[kind.as_index()] = addr;
        trace.push(Access::new(Addr::new(addr), kind));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<Access> {
        vec![
            Access::load(Addr::new(0)),
            Access::store(Addr::new(0xdead_beef)),
            Access::ifetch(Addr::new(0x4000)),
            Access::load(Addr::new(ADDR_MASK)),
        ]
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), trace);
    }

    #[test]
    fn roundtrip_empty() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), Vec::<Access>::new());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOPE\0\0\0\0\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        buf[4] = 99;
        let err = read_trace(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_records() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn rejects_oversized_address() {
        let trace = [Access::load(Addr::new(ADDR_MASK + 1))];
        let err = write_trace(Vec::new(), &trace).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn rejects_invalid_kind_tag() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[Access::load(Addr::new(1))]).unwrap();
        // Overwrite the record's top byte so the kind tag is 3 (invalid).
        let last = buf.len() - 1;
        buf[last] = 0xC0;
        let err = read_trace(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn compressed_roundtrip_preserves_trace() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace_compressed(&mut buf, &trace).unwrap();
        assert_eq!(read_trace_compressed(&buf[..]).unwrap(), trace);
    }

    #[test]
    fn compressed_roundtrip_empty() {
        let mut buf = Vec::new();
        write_trace_compressed(&mut buf, &[]).unwrap();
        assert_eq!(
            read_trace_compressed(&buf[..]).unwrap(),
            Vec::<Access>::new()
        );
    }

    #[test]
    fn compression_shrinks_sequential_traces() {
        let trace: Vec<Access> = (0..10_000u64)
            .map(|i| Access::load(Addr::new(0x1000_0000 + i * 8)))
            .collect();
        let mut raw = Vec::new();
        write_trace(&mut raw, &trace).unwrap();
        let mut compressed = Vec::new();
        write_trace_compressed(&mut compressed, &trace).unwrap();
        assert!(
            compressed.len() * 3 < raw.len(),
            "compressed {} vs raw {}",
            compressed.len(),
            raw.len()
        );
        assert_eq!(read_trace_compressed(&compressed[..]).unwrap(), trace);
    }

    #[test]
    fn per_kind_deltas_keep_interleaved_streams_small() {
        // Interleave ifetches with data: per-kind deltas stay tiny even
        // though the combined stream jumps between segments.
        let mut trace = Vec::new();
        for i in 0..5_000u64 {
            trace.push(Access::load(Addr::new(0x1000_0000 + i * 8)));
            trace.push(Access::ifetch(Addr::new(0x40_0000 + (i % 64) * 32)));
        }
        let mut compressed = Vec::new();
        write_trace_compressed(&mut compressed, &trace).unwrap();
        assert!(compressed.len() < trace.len() * 3, "{}", compressed.len());
        assert_eq!(read_trace_compressed(&compressed[..]).unwrap(), trace);
    }

    #[test]
    fn compressed_rejects_raw_and_vice_versa() {
        let trace = sample_trace();
        let mut raw = Vec::new();
        write_trace(&mut raw, &trace).unwrap();
        assert!(read_trace_compressed(&raw[..]).is_err());
        let mut compressed = Vec::new();
        write_trace_compressed(&mut compressed, &trace).unwrap();
        assert!(read_trace(&compressed[..]).is_err());
    }

    #[test]
    fn compressed_rejects_bad_kind_tag() {
        let mut buf = Vec::new();
        write_trace_compressed(&mut buf, &[Access::load(Addr::new(8))]).unwrap();
        buf[16] = 7; // corrupt the kind byte
        assert!(read_trace_compressed(&buf[..]).is_err());
    }

    /// A 16-byte header claiming 2^40 records must fail cleanly instead
    /// of reserving 16 TB up front.
    #[test]
    fn huge_record_count_in_a_short_file_is_a_typed_error() {
        for version in [VERSION, VERSION_COMPRESSED] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC);
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
            let err = if version == VERSION {
                read_trace(&buf[..]).unwrap_err()
            } else {
                read_trace_compressed(&buf[..]).unwrap_err()
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "v{version}");
            assert!(err.to_string().contains("1099511627776"), "{err}");
        }
    }

    #[test]
    fn truncated_compressed_body_names_the_shortfall() {
        let mut buf = Vec::new();
        write_trace_compressed(&mut buf, &sample_trace()).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_trace_compressed(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("input ends after 3"), "{err}");
    }

    #[test]
    fn zigzag_is_involutive() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
    }

    #[test]
    fn header_is_sixteen_bytes() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert_eq!(buf.len(), 16);
    }
}
