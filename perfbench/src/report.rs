//! The line protocol between a measuring child process and the parent
//! that aggregates its output.
//!
//! A child prints one record per line on stdout:
//!
//! * `s <key> <number>` — one sample of a measurement,
//! * `t <key> <text>` — a text value, such as an output digest,
//! * `a` — one operation attempted that succeeded,
//! * `f <message>` — one operation attempted that failed.

use std::collections::BTreeMap;
use std::io::Write;

/// The child side: writes records to stdout as they are produced.
#[derive(Debug, Default)]
pub struct Emitter;

impl Emitter {
    fn line(&self, line: &str) {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{line}").expect("stdout is the parent's pipe");
    }

    /// Records one numeric sample.
    pub fn sample(&self, key: &str, value: f64) {
        self.line(&format!("s {key} {value}"));
    }

    /// Records a text value.
    pub fn text(&self, key: &str, value: &str) {
        self.line(&format!("t {key} {value}"));
    }

    /// Records one attempted operation and whether it succeeded.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.line("a");
        } else {
            self.line(&format!("f {}", what().replace('\n', " ")));
        }
    }
}

/// The parent side: everything one or more children reported.
#[derive(Debug, Default)]
pub struct Collected {
    /// Numeric samples by key, in arrival order.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Text values by key, in arrival order.
    pub texts: BTreeMap<String, Vec<String>>,
    /// Operations attempted.
    pub attempted: u64,
    /// Messages of the operations that failed.
    pub failures: Vec<String>,
}

impl Collected {
    /// Folds one child's stdout into this collection.
    pub fn absorb(&mut self, stdout: &str) -> Result<(), String> {
        for line in stdout.lines().filter(|l| !l.is_empty()) {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "s" => {
                    let (key, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("malformed sample line: {line}"))?;
                    let value: f64 = value
                        .parse()
                        .map_err(|_| format!("malformed sample value: {line}"))?;
                    self.samples.entry(key.to_string()).or_default().push(value);
                }
                "t" => {
                    let (key, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("malformed text line: {line}"))?;
                    self.texts
                        .entry(key.to_string())
                        .or_default()
                        .push(value.to_string());
                }
                "a" => self.attempted += 1,
                "f" => {
                    self.attempted += 1;
                    self.failures.push(rest.to_string());
                }
                _ => return Err(format!("unknown child output line: {line}")),
            }
        }
        Ok(())
    }

    /// Every sample of `key` (empty when none was reported).
    pub fn all(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Records a check made by the parent itself.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbs_every_record_kind() {
        let mut c = Collected::default();
        c.absorb("s wall_s 1.5\ns wall_s 2\nt digest abc\na\nf fig06 differs\n\n")
            .expect("valid output");
        c.absorb("s wall_s 3\na\n").expect("valid output");
        assert_eq!(c.all("wall_s"), &[1.5, 2.0, 3.0]);
        assert_eq!(c.all("missing"), &[] as &[f64]);
        assert_eq!(c.texts["digest"], vec!["abc".to_string()]);
        assert_eq!(c.attempted, 3);
        assert_eq!(c.failures, vec!["fig06 differs".to_string()]);
        assert!(c.absorb("x what").is_err());
        assert!(c.absorb("s wall_s fast").is_err());
    }

    #[test]
    fn negative_samples_are_kept_as_measured() {
        let mut c = Collected::default();
        c.absorb("s system.overhead_ms.gaze -12.5\n")
            .expect("valid");
        assert_eq!(c.all("system.overhead_ms.gaze"), &[-12.5]);
    }
}
