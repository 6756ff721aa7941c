//! Host facts for the run record, process memory, and small statistics
//! helpers.

use std::path::Path;
use std::process::Command;

/// Scratch directory (relative to the current directory) for durable
/// databases and the span dump.  Listed in the repository's `.gitignore`.
pub const SCRATCH_DIR: &str = ".perfbench-out";

/// Nearest-rank percentile `p` (0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The filesystem type of the mount holding `path`, from the kernel's
/// mount table (longest matching mount point wins).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// First line of a command's standard output, or `unknown`.  The child is
/// waited for.
fn command_line(program: &str, args: &[&str], envs: &[(&str, &str)]) -> String {
    Command::new(program)
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host and build facts every result carries.
pub fn host_record() -> Vec<(&'static str, String)> {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("available_parallelism", parallelism.to_string()),
        ("nproc", command_line("nproc", &[], &[])),
        ("rustc", command_line("rustc", &["-V"], &[])),
        // Only a repository rooted here counts: a checkout exported
        // without `.git` reports `unknown` instead of an enclosing repo.
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"], &[("GIT_DIR", ".git")]),
        ),
    ]
}

/// Formats a number for the result line with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v)
    } else {
        "null".into()
    }
}

/// Escapes a string for JSON.
pub fn json_str(s: &str) -> String {
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
