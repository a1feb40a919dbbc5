//! The operating-system facts the harness needs that `std` does not expose:
//! a sub-millisecond timed wait on a socket, the process's peak resident
//! set, the filesystem type under a directory, and handing freed heap back.
//!
//! `SO_RCVTIMEO` (what `TcpStream::set_read_timeout` sets) is rounded up to
//! scheduler ticks, which would make an open-loop generator late by
//! milliseconds whenever it blocks; `ppoll(2)` takes a nanosecond timeout
//! backed by a high-resolution timer.

use std::os::fd::RawFd;
use std::path::Path;
use std::time::Duration;

#[cfg(target_os = "linux")]
mod ffi {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    /// `struct timespec` on 64-bit Linux: `time_t` and `long` are both
    /// `c_long` there.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Blocks until `fd` is readable (or writable, when `want_write`), or until
/// `timeout` has passed. Returns whether the descriptor became ready; a
/// signal or an error reads as "not ready" and the caller re-checks its
/// clock, which is what it does after a timeout anyway.
#[cfg(target_os = "linux")]
pub fn wait_ready(fd: RawFd, want_write: bool, timeout: Duration) -> bool {
    let mut pollfd = ffi::PollFd {
        fd,
        events: ffi::POLLIN | if want_write { ffi::POLLOUT } else { 0 },
        revents: 0,
    };
    let timespec = ffi::Timespec {
        tv_sec: timeout.as_secs().min(3600) as std::ffi::c_long,
        tv_nsec: timeout.subsec_nanos() as std::ffi::c_long,
    };
    // SAFETY: `pollfd` and `timespec` are live, correctly laid-out locals
    // for the whole call, `nfds` is exactly the one entry passed, and a
    // null signal mask is documented as "leave the mask unchanged".
    let ready = unsafe { ffi::ppoll(&mut pollfd, 1, &timespec, std::ptr::null()) };
    ready > 0
}

/// Portable fallback: no timed wait below a scheduler tick exists, so give
/// the processor away once and let the caller poll again.
#[cfg(not(target_os = "linux"))]
pub fn wait_ready(_fd: RawFd, _want_write: bool, _timeout: Duration) -> bool {
    std::thread::yield_now();
    false
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`), or `"unknown"`.
pub fn fs_type_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> ..."
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fs_type)) = (head.split(' ').nth(4), tail.split(' ').next())
        else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() > *len)
        {
            best = Some((mount_point.len(), fs_type.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs_type)| fs_type)
}

/// Returns freed heap to the operating system (glibc's `malloc_trim`; a
/// no-op elsewhere). Set-up is repeated for a steady `setup_s`; without this
/// the earlier set-ups' freed memory stays mapped in whichever arenas it
/// landed in and `peak_rss_mb` swings by a third from run to run.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and may be called at any
        // time from any thread; it only releases memory malloc holds free.
        unsafe { malloc_trim(0) };
    }
}
