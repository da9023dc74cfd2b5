//! Process counters: CPU time and peak RSS from `/proc/<pid>/stat` and
//! `/proc/<pid>/status`, context switches from `getrusage`.
//!
//! The `voluntary_ctxt_switches` lines of `/proc/<pid>/status` count the main
//! thread only, and the engine's phase workers are short-lived threads, so
//! switch counts come from `getrusage(RUSAGE_SELF)`, which sums every thread
//! the process ever ran. Node processes report their own `getrusage` to the
//! benchmark over their stdin/stdout control pipe (see `wire`).

use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, which
/// Linux fixes at 100 on every architecture this repository builds for).
pub const CLOCK_TICKS_PER_SEC: u64 = 100;

/// CPU time fields of `/proc/<pid>/stat`, summed over every thread the
/// process ever ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcStat {
    /// User-mode ticks (field 14).
    pub utime_ticks: u64,
    /// Kernel-mode ticks (field 15).
    pub stime_ticks: u64,
}

impl ProcStat {
    /// User plus system CPU time.
    pub fn cpu(&self) -> Duration {
        let ticks = self.utime_ticks + self.stime_ticks;
        Duration::from_micros(ticks * 1_000_000 / CLOCK_TICKS_PER_SEC)
    }
}

/// Parses `/proc/<pid>/stat` text. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from its last `)`.
pub fn parse_stat(text: &str) -> Result<ProcStat, String> {
    let close = text.rfind(')').ok_or("stat: no `)` after the command name")?;
    // After the name come field 3 (state), 4, ...; utime is field 14.
    let fields: Vec<&str> = text[close + 1..].split_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        let raw = fields.get(n - 3).ok_or(format!("stat: missing field {n}"))?;
        raw.parse().map_err(|_| format!("stat: field {n} is not a number: `{raw}`"))
    };
    Ok(ProcStat { utime_ticks: field(14)?, stime_ticks: field(15)? })
}

/// The memory figure of `/proc/<pid>/status` the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcStatus {
    /// Peak resident set size (`VmHWM`), in KiB.
    pub vm_hwm_kb: u64,
}

impl ProcStatus {
    /// Peak RSS in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.vm_hwm_kb as f64 / 1024.0
    }
}

/// Parses `/proc/<pid>/status` text (`Key:\tvalue kB` lines).
pub fn parse_status(text: &str) -> Result<ProcStatus, String> {
    let line = text
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .ok_or("status: no `VmHWM` line")?;
    let value = line.split_whitespace().next().ok_or("status: `VmHWM` is empty")?;
    let vm_hwm_kb =
        value.parse().map_err(|_| format!("status: `VmHWM` is not a number: `{value}`"))?;
    Ok(ProcStatus { vm_hwm_kb })
}

fn read_proc(pid: Option<u32>, file: &str) -> Result<String, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// `/proc/<pid>/stat` of `pid`, or of this process for `None`.
pub fn stat(pid: Option<u32>) -> Result<ProcStat, String> {
    parse_stat(&read_proc(pid, "stat")?)
}

/// `/proc/<pid>/status` of `pid`, or of this process for `None`.
pub fn status(pid: Option<u32>) -> Result<ProcStatus, String> {
    parse_status(&read_proc(pid, "status")?)
}

/// Context-switch counts of this process, every thread included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Switches {
    /// Voluntary switches (blocking, sleeping, yielding).
    pub voluntary: u64,
    /// Involuntary switches (preemption).
    pub involuntary: u64,
}

impl Switches {
    /// Renders as the `rusage <voluntary> <involuntary>` control-pipe line.
    pub fn to_line(self) -> String {
        format!("rusage {} {}", self.voluntary, self.involuntary)
    }

    /// Parses a line written by [`to_line`](Self::to_line).
    pub fn from_line(line: &str) -> Result<Switches, String> {
        let mut parts = line.split_whitespace();
        let (Some("rusage"), Some(v), Some(i), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("malformed rusage line `{line}`"));
        };
        let parse = |s: &str| s.parse().map_err(|_| format!("malformed rusage line `{line}`"));
        Ok(Switches { voluntary: parse(v)?, involuntary: parse(i)? })
    }
}

// The fields exist to give the structs their C layout; only the counts are
// read.
#[allow(dead_code)]
#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s.
#[allow(dead_code)]
#[repr(C)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
/// Positions of `ru_nvcsw` and `ru_nivcsw` among the fourteen `long`s.
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// This process's context switches, summed over all its threads, live or
/// exited.
pub fn self_switches() -> Result<Switches, String> {
    let mut raw = RawRusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `raw` is a live, writable `RawRusage`, whose layout matches
    // `struct rusage` on 64-bit Linux (`time_t`, `suseconds_t` and `long` are
    // all 64 bits there); getrusage writes exactly that struct and nothing
    // else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    if rc != 0 {
        return Err(format!("getrusage failed: {}", std::io::Error::last_os_error()));
    }
    let count = |v: i64| u64::try_from(v).map_err(|_| format!("negative rusage count {v}"));
    Ok(Switches { voluntary: count(raw.longs[NVCSW])?, involuntary: count(raw.longs[NIVCSW])? })
}
