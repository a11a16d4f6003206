//! Packing workloads into on-disk GZT trace files.
//!
//! Two ingest paths feed the streaming simulator (format spec in
//! `docs/TRACES.md`):
//!
//! * **Synthetic** — any workload of the registry ([`pack_workload`],
//!   [`pack_suite`], [`pack_all_main`]) is generated once and written as a
//!   GZT file, after which experiments can stream it from disk instead of
//!   rebuilding it in memory (`GAZE_TRACE_DIR`). Packing is lossless: the
//!   packed file replays record-for-record identically to the generator.
//! * **ChampSim** — an *uncompressed* ChampSim/DPC-3 instruction trace
//!   (64-byte records) is decoded into the memory-access stream the
//!   simulator consumes ([`decode_champsim`]). Decompress `.xz`/`.gz`
//!   inputs first; compressed input is rejected by magic-byte sniffing.

use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};

use sim_core::gzt::{GztTrace, GztWriter};
use sim_core::trace::{source_fingerprint, TraceSource};

use crate::suite::{all_main_workloads, build_workload, workload_names, Suite};

/// What one pack operation produced.
#[derive(Debug, Clone)]
pub struct PackSummary {
    /// Workload name stored in the GZT header.
    pub name: String,
    /// Output file path.
    pub path: PathBuf,
    /// Records written.
    pub records: u64,
    /// Instructions represented by one pass (memory + non-memory).
    pub instructions_per_pass: u64,
}

/// File name a workload is packed under inside a trace directory (the name
/// plus the `.gzt` extension; workload names never contain path
/// separators).
pub fn gzt_file_name(workload: &str) -> String {
    format!("{workload}.gzt")
}

/// Builds the named synthetic workload at `instructions` instructions per
/// pass and packs it into `out` as a GZT file.
///
/// # Panics
///
/// Panics if `name` is not a registered workload (same contract as
/// [`build_workload`]).
pub fn pack_workload(name: &str, instructions: u64, out: &Path) -> io::Result<PackSummary> {
    let trace = build_workload(name, instructions);
    let mut writer = GztWriter::create(out, name)?;
    writer.push_all(trace.records())?;
    writer.finish()?;
    Ok(PackSummary {
        name: name.to_string(),
        path: out.to_path_buf(),
        records: trace.len() as u64,
        instructions_per_pass: trace.instructions_per_pass(),
    })
}

/// Packs every workload of `suite` into `out_dir` (created if missing),
/// one `<name>.gzt` file each.
pub fn pack_suite(suite: Suite, instructions: u64, out_dir: &Path) -> io::Result<Vec<PackSummary>> {
    std::fs::create_dir_all(out_dir)?;
    workload_names(suite)
        .into_iter()
        .map(|name| pack_workload(name, instructions, &out_dir.join(gzt_file_name(name))))
        .collect()
}

/// Packs every workload of the five main suites into `out_dir`.
pub fn pack_all_main(instructions: u64, out_dir: &Path) -> io::Result<Vec<PackSummary>> {
    std::fs::create_dir_all(out_dir)?;
    all_main_workloads()
        .into_iter()
        .map(|(_, name)| pack_workload(name, instructions, &out_dir.join(gzt_file_name(name))))
        .collect()
}

/// Verifies that a packed file replays identically to the in-memory
/// generator of the same workload at `instructions`: record counts,
/// instruction counts and the full-stream fingerprint must all match.
///
/// Returns the shared fingerprint on success.
pub fn verify_pack(gzt: &GztTrace, instructions: u64) -> io::Result<u64> {
    let mem = build_workload(TraceSource::name(gzt), instructions);
    let mismatch = |what: &str, disk: u64, memory: u64| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: packed {what} {disk} differs from generator's {memory}",
                gzt.path().display()
            ),
        )
    };
    if gzt.len() != mem.len() {
        return Err(mismatch("record count", gzt.len() as u64, mem.len() as u64));
    }
    if gzt.instructions_per_pass() != mem.instructions_per_pass() {
        return Err(mismatch(
            "instruction count",
            gzt.instructions_per_pass(),
            mem.instructions_per_pass(),
        ));
    }
    let disk_fp = source_fingerprint(gzt);
    let mem_fp = source_fingerprint(&mem);
    if disk_fp != mem_fp {
        return Err(mismatch("fingerprint", disk_fp, mem_fp));
    }
    Ok(disk_fp)
}

/// Size of one ChampSim/DPC-3 `input_instr` record.
const CHAMPSIM_RECORD_BYTES: usize = 64;
/// Number of destination-memory slots per ChampSim record.
const CHAMPSIM_DEST_MEM: usize = 2;
/// Number of source-memory slots per ChampSim record.
const CHAMPSIM_SRC_MEM: usize = 4;

/// Decodes an **uncompressed** ChampSim-style instruction trace into a GZT
/// file.
///
/// Each 64-byte input record is `ip (u64) | is_branch (u8) | branch_taken
/// (u8) | dest_regs (2×u8) | src_regs (4×u8) | dest_mem (2×u64) | src_mem
/// (4×u64)`, little-endian. Every non-zero memory operand becomes one GZT
/// record (source operands as loads, destination operands as stores);
/// instructions without memory operands accumulate into the next record's
/// `non_mem_before` gap. Branch information is dropped — this reproduction
/// is driven by the data-memory stream (see `docs/TRACES.md` for what is
/// and is not supported).
///
/// `max_records` optionally truncates the output (useful for slicing the
/// first N million accesses out of a production trace). Compressed input
/// (`.xz`, `.gz`) is detected by magic bytes and rejected with a hint to
/// decompress first.
pub fn decode_champsim(
    input: &Path,
    name: &str,
    out: &Path,
    max_records: Option<u64>,
) -> io::Result<PackSummary> {
    let mut reader = BufReader::new(std::fs::File::open(input)?);
    let mut writer = GztWriter::create(out, name)?;
    let mut buf = [0u8; CHAMPSIM_RECORD_BYTES];
    let mut pending_gap: u32 = 0;
    let mut first = true;
    let cap = max_records.unwrap_or(u64::MAX);
    'instrs: loop {
        // Distinguish clean EOF (zero bytes before the next record) from a
        // truncated trailing record — the latter means the input is cut off
        // mid-stream and must not silently pack as a shorter trace.
        let first_read = reader.read(&mut buf)?;
        if first_read == 0 {
            break;
        }
        if first_read < CHAMPSIM_RECORD_BYTES {
            if let Err(e) = reader.read_exact(&mut buf[first_read..]) {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{}: truncated ChampSim record at end of input \
                             (file cut off mid-download?)",
                            input.display()
                        ),
                    ));
                }
                return Err(e);
            }
        }
        if first {
            first = false;
            if buf[..6] == [0xfd, b'7', b'z', b'X', b'Z', 0x00] || buf[..2] == [0x1f, 0x8b] {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: input is xz/gzip-compressed; decompress it first \
                         (e.g. `xz -dk trace.champsim.xz`)",
                        input.display()
                    ),
                ));
            }
        }
        let ip = u64::from_le_bytes(buf[0..8].try_into().expect("8-byte slice"));
        let mut emitted_any = false;
        let mem_op = |slot: usize| -> u64 {
            let off = 16 + slot * 8;
            u64::from_le_bytes(buf[off..off + 8].try_into().expect("8-byte slice"))
        };
        // Destination memory (stores) first, then source memory (loads) —
        // slot order is part of the documented conversion so repacking a
        // trace is reproducible.
        for slot in 0..CHAMPSIM_DEST_MEM + CHAMPSIM_SRC_MEM {
            let addr = mem_op(slot);
            if addr == 0 {
                continue;
            }
            let is_store = slot < CHAMPSIM_DEST_MEM;
            let gap = if emitted_any { 0 } else { pending_gap };
            let rec = if is_store {
                sim_core::trace::TraceRecord::store(ip, addr, gap)
            } else {
                sim_core::trace::TraceRecord::load(ip, addr, gap)
            };
            writer.push(&rec)?;
            emitted_any = true;
            pending_gap = 0;
            if writer.record_count() >= cap {
                break 'instrs;
            }
        }
        if !emitted_any {
            pending_gap = pending_gap.saturating_add(1);
        }
    }
    let records = writer.record_count();
    writer.finish()?;
    let packed = GztTrace::open(out)?;
    Ok(PackSummary {
        name: name.to_string(),
        path: out.to_path_buf(),
        records,
        instructions_per_pass: packed.instructions_per_pass(),
    })
}

/// Parses a suite name as accepted by the `trace-pack` CLI
/// (case-insensitive labels: `spec06`, `spec17`, `ligra`, `parsec`,
/// `cloud`, `gap`, `qmm`).
pub fn parse_suite(label: &str) -> Option<Suite> {
    match label.to_ascii_lowercase().as_str() {
        "spec06" => Some(Suite::Spec06),
        "spec17" => Some(Suite::Spec17),
        "ligra" => Some(Suite::Ligra),
        "parsec" => Some(Suite::Parsec),
        "cloud" => Some(Suite::Cloud),
        "gap" => Some(Suite::Gap),
        "qmm" => Some(Suite::Qmm),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gzt-pack-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn packed_workload_replays_record_for_record() {
        let dir = temp_dir("roundtrip");
        let path = dir.join(gzt_file_name("bwaves_s"));
        let summary = pack_workload("bwaves_s", 5_000, &path).expect("pack");
        assert_eq!(summary.name, "bwaves_s");
        let mem = build_workload("bwaves_s", 5_000);
        assert_eq!(summary.records, mem.len() as u64);

        let gzt = GztTrace::open(&path).expect("open");
        let mut r = gzt.reader();
        for rec in mem.records() {
            assert_eq!(r.next_record(), *rec);
        }
        assert!(verify_pack(&gzt, 5_000).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_detects_wrong_record_count() {
        let dir = temp_dir("verify");
        let path = dir.join(gzt_file_name("mcf_s"));
        pack_workload("mcf_s", 4_000, &path).expect("pack");
        let gzt = GztTrace::open(&path).expect("open");
        // Verifying against a different instruction budget must fail.
        assert!(verify_pack(&gzt, 5_000).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_suite_writes_one_file_per_workload() {
        let dir = temp_dir("suite");
        let summaries = pack_suite(Suite::Parsec, 2_000, &dir).expect("pack suite");
        assert_eq!(summaries.len(), workload_names(Suite::Parsec).len());
        for s in &summaries {
            assert!(s.path.exists(), "{} missing", s.path.display());
            assert!(s.instructions_per_pass >= 2_000);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn champsim_decoding_extracts_memory_operands_and_gaps() {
        let dir = temp_dir("champsim");
        let input = dir.join("input.champsim");
        // Three instructions: a pure-ALU op, then a load+store op, then
        // another ALU op and a load.
        let mut bytes = Vec::new();
        let mut instr = |ip: u64, dest: [u64; 2], src: [u64; 4]| {
            let mut rec = [0u8; CHAMPSIM_RECORD_BYTES];
            rec[0..8].copy_from_slice(&ip.to_le_bytes());
            for (i, d) in dest.iter().enumerate() {
                rec[16 + i * 8..24 + i * 8].copy_from_slice(&d.to_le_bytes());
            }
            for (i, s) in src.iter().enumerate() {
                rec[32 + i * 8..40 + i * 8].copy_from_slice(&s.to_le_bytes());
            }
            bytes.extend_from_slice(&rec);
        };
        instr(0x100, [0, 0], [0, 0, 0, 0]);
        instr(0x104, [0x9000, 0], [0x8000, 0, 0, 0]);
        instr(0x108, [0, 0], [0, 0, 0, 0]);
        instr(0x10c, [0, 0], [0x7000, 0, 0, 0]);
        std::fs::write(&input, &bytes).expect("write input");

        let out = dir.join("decoded.gzt");
        let summary = decode_champsim(&input, "champ-test", &out, None).expect("decode");
        assert_eq!(summary.records, 3);
        let gzt = GztTrace::open(&out).expect("open");
        let mut r = gzt.reader();
        // 0x104's store (dest slots come first) carries the one-ALU gap.
        let store = r.next_record();
        assert!(store.is_store);
        assert_eq!(store.addr.raw(), 0x9000);
        assert_eq!(store.non_mem_before, 1);
        // Same instruction's load: gap already consumed.
        let load = r.next_record();
        assert!(!load.is_store);
        assert_eq!(load.addr.raw(), 0x8000);
        assert_eq!(load.non_mem_before, 0);
        // 0x10c's load carries the 0x108 gap.
        let load2 = r.next_record();
        assert_eq!(load2.addr.raw(), 0x7000);
        assert_eq!(load2.non_mem_before, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn champsim_decoding_rejects_truncated_trailing_record() {
        let dir = temp_dir("truncated");
        let input = dir.join("truncated.champsim");
        // One full record (a load) followed by a cut-off second record.
        let mut bytes = vec![0u8; CHAMPSIM_RECORD_BYTES];
        bytes[32..40].copy_from_slice(&0x8000u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; CHAMPSIM_RECORD_BYTES - 1]);
        std::fs::write(&input, &bytes).expect("write input");
        let err = decode_champsim(&input, "t", &dir.join("out.gzt"), None)
            .expect_err("truncated input must be rejected");
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn champsim_decoding_rejects_compressed_input() {
        let dir = temp_dir("compressed");
        let input = dir.join("trace.xz");
        let mut bytes = vec![0xfd, b'7', b'z', b'X', b'Z', 0x00];
        bytes.resize(CHAMPSIM_RECORD_BYTES, 0);
        std::fs::write(&input, &bytes).expect("write input");
        let err = decode_champsim(&input, "t", &dir.join("out.gzt"), None)
            .expect_err("compressed input must be rejected");
        assert!(err.to_string().contains("decompress"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suite_labels_parse() {
        assert_eq!(parse_suite("SPEC17"), Some(Suite::Spec17));
        assert_eq!(parse_suite("ligra"), Some(Suite::Ligra));
        assert_eq!(parse_suite("nope"), None);
    }
}
