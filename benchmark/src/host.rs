//! Host drift made visible: a fixed-work spin timed before every
//! repetition, plus the facts about the box a result is only comparable
//! within. Nothing here normalises any other metric.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Instant;

const SPIN_BYTES: usize = 64 << 20;

/// FNV-1a over a 64 MB buffer (~100 ms): always the same work, so a change
/// in its duration is the host's, not the benchmark's.
pub fn calibration_spin_us() -> f64 {
    static BUFFER: OnceLock<Vec<u8>> = OnceLock::new();
    let buffer = BUFFER.get_or_init(|| (0..SPIN_BYTES).map(|i| (i * 31 + 7) as u8).collect());
    let started = Instant::now();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in black_box(buffer.as_slice()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    black_box(hash);
    started.elapsed().as_secs_f64() * 1e6
}

/// What the result file records about the host.
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Whether the tiered roots (under `out_dir`) live on tmpfs, where
    /// fsync is free and "cold" reads never touch a device.
    pub out_on_tmpfs: bool,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unknown` (the driver's checkout
    /// is not a git repository).
    pub git_rev: String,
}

fn first_line_of(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// File-system type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fs)| fs)
}

/// Gather the host facts; `out_dir` must exist.
pub fn info(out_dir: &Path) -> HostInfo {
    HostInfo {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_on_tmpfs: fs_type(out_dir).as_deref() == Some("tmpfs"),
        rustc: first_line_of("rustc", &["--version"], out_dir),
        git_rev: first_line_of("git", &["rev-parse", "--short", "HEAD"], out_dir),
    }
}
