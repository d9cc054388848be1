//! Readiness waiting for the load generator.
//!
//! The generator drives both client connections from one thread: it must
//! send each open-loop request at its due time and read replies as they
//! arrive, without a thread per socket and without busy polling. The
//! standard library has no readiness API, so this wraps Linux `ppoll`,
//! whose nanosecond timeout (unlike `poll`'s milliseconds or a socket
//! read timeout's jiffies) keeps sends on schedule.

use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_ulong, c_void};
use std::time::Duration;

/// Readable.
pub const POLLIN: i16 = 0x1;
/// Writable.
pub const POLLOUT: i16 = 0x4;
/// Error, hang-up or invalid descriptor.
const POLLERR_HUP_NVAL: i16 = 0x8 | 0x10 | 0x20;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Wait until one of `interest` (a socket and the events wanted on it) is
/// ready or `timeout` passes. Returns the ready events per entry, in the
/// order given; error and hang-up conditions report as readable, so the
/// caller's read surfaces them.
pub fn wait<S: AsRawFd>(interest: &[(&S, i16)], timeout: Duration) -> std::io::Result<Vec<i16>> {
    let mut fds: Vec<PollFd> = interest
        .iter()
        .map(|(s, events)| PollFd {
            fd: s.as_raw_fd(),
            events: *events,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fds` is a live, properly laid out `struct pollfd` array of
    // exactly `fds.len()` entries that ppoll may write `revents` into;
    // `ts` is a valid `struct timespec` for the duration of the call; a
    // null signal mask is documented as "leave the mask unchanged".
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(vec![0; fds.len()]);
        }
        return Err(err);
    }
    Ok(fds
        .iter()
        .map(|f| {
            if f.revents & POLLERR_HUP_NVAL != 0 {
                f.revents | POLLIN
            } else {
                f.revents
            }
        })
        .collect())
}
