//! Integration tests for the `streamsim-trace` binary.

use std::process::Command;

fn trace_tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_streamsim-trace"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("streamsim-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn list_names_all_benchmarks() {
    let out = trace_tool().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 15);
    assert!(text.contains("fftpde"));
}

#[test]
fn gen_info_replay_round_trip() {
    let path = tmp("mdg.sstr");
    let out = trace_tool()
        .args(["gen", "mdg", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{:?}", out);
    assert!(path.exists());

    let out = trace_tool()
        .args(["info", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("refs"), "{text}");
    assert!(text.contains("top strides"), "{text}");

    let out = trace_tool()
        .args(["replay", path.to_str().unwrap(), "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("stream hit"), "{text}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn gen_rejects_unknown_benchmark() {
    let path = tmp("nope.sstr");
    let out = trace_tool()
        .args(["gen", "nope", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn replay_rejects_missing_file() {
    let out = trace_tool()
        .args(["replay", "/nonexistent/trace.sstr"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

/// Runs `info` on a file holding `bytes`; it must exit 1 with an
/// `error:` line, which is returned.
fn info_error(name: &str, bytes: &[u8]) -> String {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    let out = trace_tool()
        .args(["info", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("error:"), "{err}");
    err
}

/// A 16-byte file whose header claims 2^40 records: the tool must
/// report a clean error, not abort on a 16 TB reservation (exit 134).
#[test]
fn info_rejects_a_huge_header_count_without_aborting() {
    let mut bytes = b"SSTR".to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
    let err = info_error("huge-count.sstr", &bytes);
    assert!(err.contains("truncated trace"), "{err}");
}

/// A file in the retired fixed-width v1 format is refused by version
/// number, not misread as v2 records.
#[test]
fn info_rejects_a_v1_trace_by_version() {
    let mut bytes = b"SSTR".to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&64u64.to_le_bytes());
    let err = info_error("v1.sstr", &bytes);
    assert!(err.contains("unsupported trace version 1"), "{err}");
}

#[test]
fn help_runs() {
    let out = trace_tool().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}
