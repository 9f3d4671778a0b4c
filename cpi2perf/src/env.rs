//! The environment a result was measured in, and process memory.

use std::collections::BTreeMap;
use std::path::Path;

/// The environment fingerprint stamped on every result: two result sets
/// are comparable only when their fingerprints agree.
pub fn fingerprint() -> BTreeMap<String, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "absent".into())
    };
    let mut f = BTreeMap::new();
    f.insert(
        "nproc".into(),
        std::thread::available_parallelism()
            .map(|n| n.get().to_string())
            .unwrap_or_else(|_| "absent".into()),
    );
    f.insert(
        "smt_active".into(),
        read("/sys/devices/system/cpu/smt/active"),
    );
    f.insert(
        "governor".into(),
        read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
    );
    f.insert("kernel".into(), read("/proc/sys/kernel/osrelease"));
    f.insert("rustc".into(), rustc_version());
    f.insert("git_head".into(), git_head(Path::new(".")));
    f.insert(
        "profile".into(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .into(),
    );
    f
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "absent".into())
}

/// The commit checked out under `root`, read from `.git` without
/// running git ("absent" outside a repository).
pub fn git_head(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "absent".into();
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
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "absent".into())
}

/// Peak resident set of this process, MiB (`VmHWM`).
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

/// Renders a fingerprint as one JSON object.
pub fn fingerprint_json(f: &BTreeMap<String, String>) -> String {
    serde_json::to_string(f).expect("a string map serializes")
}

/// Bytes of the kernel's CPU mask handed to the affinity calls (1024
/// CPUs, glibc's `cpu_set_t`).
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending (empty when the
/// kernel does not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and threads it starts later) to
/// `cpus`; a no-op when `cpus` is empty.
pub fn pin_to(cpus: &[usize]) -> std::io::Result<()> {
    if cpus.is_empty() {
        return Ok(());
    }
    let mut mask = [0u64; CPU_MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}
