//! Process-level readings from `/proc` and the environment.

use std::time::Duration;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// 100 on every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// CPU time and page faults of this process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may itself
        // hold spaces: state is field 3, minflt 10, utime 14, stime 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field =
            |n: usize| -> u64 { fields.get(n - 3).and_then(|f| f.parse().ok()).unwrap_or(0) };
        Usage {
            user_s: field(14) as f64 / TICKS_PER_S,
            sys_s: field(15) as f64 / TICKS_PER_S,
            minflt: field(10),
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }
}

/// Peak resident set size (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}
