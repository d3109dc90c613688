//! In-benchmark machine probes and run metadata: which host a result
//! came from, its memory high-water mark, and its measured compute and
//! bandwidth ceilings. Not a layer of the repository.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Worker threads every workload and probe uses.
pub const WORKERS: usize = 2;

/// Cache levels of one logical CPU: `(level, kind, size in bytes,
/// sharing CPUs)`.
fn caches_of(cpu: usize) -> Vec<(u32, String, u64, String)> {
    let base = format!("/sys/devices/system/cpu/cpu{cpu}/cache");
    let Ok(dir) = fs::read_dir(&base) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let p = entry.path();
        if !p
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("index"))
        {
            continue;
        }
        let read = |f: &str| fs::read_to_string(p.join(f)).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        let shared = read("shared_cpu_list").unwrap_or_default();
        if let (Ok(level), Some(bytes)) = (level.parse(), parse_size(&size)) {
            out.push((level, kind, bytes, shared));
        }
    }
    out.sort();
    out
}

/// Parses a sysfs cache size such as `48K`, `2048K` or `105M`.
fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Sum of the distinct last-level cache instances serving the CPUs this
/// process may run on, and a printable cache listing. Falls back to
/// 32 MiB (stated in the listing) when sysfs has no cache entries.
pub fn llc_and_caches() -> (u64, String) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all = Vec::new();
    for cpu in 0..cpus {
        for c in caches_of(cpu) {
            if !all.contains(&c) {
                all.push(c);
            }
        }
    }
    let Some(top) = all.iter().map(|c| c.0).max() else {
        return (
            32 << 20,
            "unknown (sysfs has no cache entries; LLC assumed 32 MiB)".into(),
        );
    };
    let llc = all.iter().filter(|c| c.0 == top).map(|c| c.2).sum();
    let listing = all
        .iter()
        .map(|(l, kind, b, cpus)| format!("L{l} {kind} {} KiB (cpus {cpus})", b >> 10))
        .collect::<Vec<_>>()
        .join(", ");
    (llc, listing)
}

/// The `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the current directory, read from `.git`
/// directly; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let head = fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown (not a git checkout)".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The instruction-set level the benchmark (and so the kernels it links)
/// was compiled for, and the vector extensions the host offers at run
/// time.
pub fn isa_level() -> String {
    let compiled: String = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(f, _)| format!("+{f}"))
    .collect();
    #[cfg(target_arch = "x86_64")]
    let host: Vec<&str> = [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ]
    .into_iter()
    .filter_map(|(n, on)| on.then_some(n))
    .collect();
    #[cfg(not(target_arch = "x86_64"))]
    let host: Vec<&str> = Vec::new();
    format!(
        "compiled for {} baseline{compiled}; host has {}",
        std::env::consts::ARCH,
        host.join(" ")
    )
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Runs `f(t, &mut items[t])` on one scoped thread per item, all
/// released together by a barrier, and returns the wall time from the
/// release to the last finish in seconds.
pub fn on_workers<T: Send, F: Fn(usize, &mut T) + Sync>(items: &mut [T], f: F) -> f64 {
    let start = Barrier::new(items.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .iter_mut()
            .enumerate()
            .map(|(t, item)| {
                let (f, start) = (&f, &start);
                s.spawn(move || {
                    start.wait();
                    f(t, item);
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().expect("probe thread panicked");
        }
        t0.elapsed().as_secs_f64()
    })
}

/// Independent multiply-add chains per thread: enough to cover the
/// multiply and add latencies on the host's vector units.
const CHAINS: usize = 24;

/// One thread's register-blocked multiply-add loop: `iters` rounds of
/// `a = a·m + c` over [`CHAINS`] independent accumulators, written as a
/// separate multiply and add so it compiles to the same instructions the
/// kernels can use under the same flags. Returns a checksum.
fn fma_chains(iters: u64) -> f64 {
    let (m, c) = (black_box(0.999_999_9), black_box(1e-7));
    let mut acc = [0.0f64; CHAINS];
    for (n, a) in acc.iter_mut().enumerate() {
        *a = n as f64;
    }
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * m + c;
        }
    }
    acc.iter().sum()
}

/// Sustained multiply-add rate on [`WORKERS`] threads, GFlop/s (two
/// flops per multiply-add). Best of five trials.
pub fn fma_gflops() -> f64 {
    const ITERS: u64 = 20_000_000;
    (0..5)
        .map(|_| {
            let secs = on_workers(&mut [(); WORKERS], |_, _| {
                black_box(fma_chains(black_box(ITERS)));
            });
            (2 * CHAINS as u64 * ITERS * WORKERS as u64) as f64 / secs / 1e9
        })
        .fold(0.0, f64::max)
}

/// STREAM triad `a = b + s·c` on [`WORKERS`] threads, each owning a
/// contiguous half of every array (first-touched by its own thread).
/// `elems` is the length of each of the three arrays. Returns GB/s
/// counted the STREAM way (24 bytes per element: two loads, one store,
/// no write-allocate), best of five passes.
pub fn triad_gbs(elems: usize) -> f64 {
    let chunk = elems.div_ceil(WORKERS);
    // Each thread allocates and first-touches its own halves, so pages
    // land where that thread runs.
    let mut parts: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = vec![Default::default(); WORKERS];
    on_workers(&mut parts, |t, p| {
        let n = chunk.min(elems.saturating_sub(t * chunk));
        *p = (vec![0.0; n], vec![1.0; n], vec![2.0; n]);
    });
    let scalar = black_box(3.0);
    let best = (0..5)
        .map(|_| {
            on_workers(&mut parts, |_, (a, b, c)| {
                for ((o, &x), &y) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                    *o = x + scalar * y;
                }
                black_box(&mut a[..]);
            })
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        parts.iter().all(|(a, _, _)| a.iter().all(|&x| x == 7.0)),
        "triad produced a wrong value"
    );
    (24 * elems) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_sizes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn probes_return_positive_rates() {
        assert!(fma_chains(10).is_finite());
        assert!(triad_gbs(1 << 12) > 0.0);
    }
}
