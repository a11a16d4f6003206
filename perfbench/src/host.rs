//! The host and topology record printed with every result, read with
//! std only.

use std::path::Path;

/// Engine worker threads (`GAZE_THREADS`), server HTTP workers and
/// closed-loop clients: the same count for all three.
pub const THREADS: usize = 2;

/// One line of JSON describing where and how the result was measured.
pub fn record(root: &Path, workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = field(&cpuinfo, "model name").unwrap_or("unknown");
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let affinity = field(&status, "Cpus_allowed_list").unwrap_or("unknown");
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"cpus_allowed\":{},\"engine_threads\":{THREADS},\
         \"server_threads\":{THREADS},\"client_threads\":{THREADS},\"commit\":{},\
         \"workload\":{},\"seed\":{seed},\"held_out_seed\":{},\"trace\":{trace}}}",
        quote(model),
        quote(affinity),
        quote(&git_commit(root)),
        quote(workload),
        crate::seed::HELD_OUT_SEED,
    )
}

/// The value of the first `key: value` line of a `/proc` file.
pub fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim())
    })
}

/// The commit checked out at `root`, read from `.git` directly; a
/// checkout without git metadata reports `unknown`.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_fields_and_quoting() {
        let text = "model name\t: Some CPU @ 2.0GHz\nVmHWM:\t  1024 kB\n";
        assert_eq!(field(text, "model name"), Some("Some CPU @ 2.0GHz"));
        assert_eq!(field(text, "VmHWM"), Some("1024 kB"));
        assert_eq!(field(text, "missing"), None);
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn record_is_one_json_line() {
        let line = record(Path::new("/nonexistent"), "sim-single", 3, false);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"commit\":\"unknown\""));
        assert!(line.contains("\"seed\":3"));
    }
}
