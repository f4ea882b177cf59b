//! Minimal `epoll` + wake-pipe bindings for the event-driven server.
//!
//! The workspace vendors no libc binding, so the three `epoll` entry
//! points, `pipe2`, and the raw `read`/`write`/`close` calls the wake
//! pipe needs are declared here directly. Everything is Linux-only and
//! deliberately tiny: a [`Poller`] owns one epoll instance, a
//! [`WakePipe`] is how worker threads interrupt a blocked
//! `epoll_wait`, and both close their file descriptors on drop.
//!
//! Sockets themselves stay `std` (`TcpListener`/`TcpStream` in
//! non-blocking mode); only readiness notification is raw FFI.

#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;

// Readiness flags (uapi/linux/eventpoll.h).
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;

const O_NONBLOCK: c_int = 0o4000;
const O_CLOEXEC: c_int = 0o2_000_000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// packs it there so 32-bit userlands line up); naturally aligned
/// elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-chosen token echoed back with the event.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One epoll instance.
pub struct Poller {
    fd: RawFd,
}

impl Poller {
    /// Creates the epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The raw `epoll_create1` failure, if any.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { epoll_create1(O_CLOEXEC) })?;
        Ok(Poller { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; DEL ignores the event but a
        // non-null pointer is valid for every kernel.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &raw mut ev) })?;
        Ok(())
    }

    /// Starts watching `fd` with `events`, tagging wakeups with `token`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure, if any.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Stops watching `fd`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure, if any.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` for events; returns how many landed in
    /// `events`. `EINTR` is retried internally (signals drive the drain
    /// flag, not this return path).
    ///
    /// # Errors
    ///
    /// The raw `epoll_wait` failure, if any (never `EINTR`).
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            // SAFETY: the events pointer/len describe a live mutable
            // slice; the kernel writes at most `maxevents` entries.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                #[allow(clippy::cast_sign_loss)]
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: fd is owned and closed exactly once.
        unsafe { close(self.fd) };
    }
}

/// A non-blocking self-pipe: worker threads `wake()` it to interrupt the
/// IO thread's `epoll_wait`; the IO thread registers `read_fd` and
/// `drain()`s it on wakeup. Multiple wakes coalesce (a full pipe is
/// already a pending wake).
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    /// Creates the pipe, both ends non-blocking and close-on-exec.
    ///
    /// # Errors
    ///
    /// The raw `pipe2` failure, if any.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` is a live 2-slot array, exactly what pipe2
        // writes.
        cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The readable end, for epoll registration.
    #[must_use]
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Interrupts the owning event loop. Safe from any thread; errors
    /// (pipe full — a wake is already pending) are deliberately
    /// ignored.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one byte from a live stack slot; O_NONBLOCK means
        // this cannot block, and a short/failed write is fine.
        unsafe { write(self.write_fd, (&raw const byte).cast::<c_void>(), 1) };
    }

    /// Swallows every pending wake byte (call on each `read_fd` event —
    /// the pipe is registered edge-triggered).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reads into a live buffer; 0/negative both end the
            // drain.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: both fds are owned and closed exactly once.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_interrupts_an_epoll_wait() {
        let poller = Poller::new().expect("epoll_create1");
        let pipe = WakePipe::new().expect("pipe2");
        poller
            .add(pipe.read_fd(), EPOLLIN | EPOLLET, 7)
            .expect("add");
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing pending: times out empty.
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);
        pipe.wake();
        pipe.wake(); // coalesces
        let n = poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 7);
        pipe.drain();
        // Edge-triggered and drained: quiet again.
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);
    }

    #[test]
    fn delete_stops_events() {
        let poller = Poller::new().expect("epoll_create1");
        let pipe = WakePipe::new().expect("pipe2");
        poller
            .add(pipe.read_fd(), EPOLLIN | EPOLLET, 1)
            .expect("add");
        poller.delete(pipe.read_fd()).expect("delete");
        pipe.wake();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(poller.wait(&mut events, 0).expect("wait"), 0);
    }
}
