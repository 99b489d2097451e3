//! A compact binary on-disk format for reference traces.
//!
//! The paper generated traces with Shade and stored sampled trace files;
//! this module plays the same role for our synthetic traces so expensive
//! workload generation can be done once and replayed many times.
//!
//! The format (version 2) is a 16-byte header — `b"SSTR"` magic, `u32`
//! version, `u64` record count, little-endian — followed by one record
//! per reference: a kind byte (the [`AccessKind`] index) and the
//! zigzag-varint delta from the previous address of that kind
//! ([`write_trace_compressed`] / [`read_trace_compressed`]). Reference
//! streams are dominated by small per-kind strides, so this typically
//! takes 3–6× fewer bytes than a fixed 8 bytes per reference, with no
//! loss; addresses use the full 64 bits. Version 1, that fixed-width
//! encoding, is no longer read or written: the reader rejects it by
//! number.
//!
//! Readers and writers take `R: Read` / `W: Write` by value; pass `&mut r`
//! to keep using the underlying stream afterwards.
//!
//! # Example
//!
//! ```
//! use streamsim_trace::{Access, Addr};
//! use streamsim_trace::io::{read_trace_compressed, write_trace_compressed};
//!
//! # fn main() -> std::io::Result<()> {
//! let trace = vec![Access::load(Addr::new(64)), Access::store(Addr::new(96))];
//! let mut buf = Vec::new();
//! write_trace_compressed(&mut buf, &trace)?;
//! assert_eq!(read_trace_compressed(&buf[..])?, trace);
//! # Ok(())
//! # }
//! ```

use std::io::{self, Read, Write};

use crate::{Access, AccessKind, Addr};

const MAGIC: [u8; 4] = *b"SSTR";
const VERSION: u32 = 2;

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

/// Writes a trace in the `SSTR` version 2 format.
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
    writer.write_all(&VERSION.to_le_bytes())?;
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

/// Reads an `SSTR` version 2 trace.
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
    let version = u32::from_le_bytes(version);
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version} (this build reads version {VERSION})"),
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
            Access::load(Addr::new(u64::MAX)),
        ]
    }

    fn encode(trace: &[Access]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace_compressed(&mut buf, trace).unwrap();
        buf
    }

    /// A bare header: magic, `version`, `count`.
    fn header(version: u32, count: u64) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        buf
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = sample_trace();
        assert_eq!(read_trace_compressed(&encode(&trace)[..]).unwrap(), trace);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(
            read_trace_compressed(&encode(&[])[..]).unwrap(),
            Vec::<Access>::new()
        );
    }

    #[test]
    fn header_is_sixteen_bytes() {
        assert_eq!(encode(&[]), header(VERSION, 0));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace_compressed(&b"NOPE\x02\0\0\0\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn rejects_other_versions_by_number() {
        for version in [1, 3, 99] {
            let mut buf = header(version, 1);
            buf.extend_from_slice(&[0u8; 8]);
            let err = read_trace_compressed(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!("unsupported trace version {version} (this build reads version 2)")
            );
        }
    }

    #[test]
    fn rejects_truncated_input() {
        // Every proper prefix fails: inside the header, or mid-record.
        let buf = encode(&sample_trace());
        for len in 0..buf.len() {
            assert!(read_trace_compressed(&buf[..len]).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn rejects_invalid_kind_tag() {
        let mut buf = encode(&[Access::load(Addr::new(8))]);
        buf[16] = 3; // the first record's kind byte
        let err = read_trace_compressed(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("invalid access kind tag 3"),
            "{err}"
        );
    }

    #[test]
    fn compression_shrinks_sequential_traces() {
        let n = 10_000u64;
        let trace: Vec<Access> = (0..n)
            .map(|i| Access::load(Addr::new(0x1000_0000 + i * 8)))
            .collect();
        let compressed = encode(&trace);
        // Against the 8 bytes per reference of a fixed-width encoding.
        let fixed_width = 16 + 8 * n as usize;
        assert!(
            compressed.len() * 3 < fixed_width,
            "compressed {} vs fixed-width {fixed_width}",
            compressed.len()
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
        let compressed = encode(&trace);
        assert!(compressed.len() < trace.len() * 3, "{}", compressed.len());
        assert_eq!(read_trace_compressed(&compressed[..]).unwrap(), trace);
    }

    /// A 16-byte header claiming 2^40 records must fail cleanly instead
    /// of reserving 16 TB up front.
    #[test]
    fn huge_record_count_in_a_short_file_is_a_typed_error() {
        let err = read_trace_compressed(&header(VERSION, 1 << 40)[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1099511627776"), "{err}");
        // A retired-version header is rejected by number before its
        // count is looked at.
        let err = read_trace_compressed(&header(1, 1 << 40)[..]).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn truncated_body_names_the_shortfall() {
        let mut buf = encode(&sample_trace());
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
}
