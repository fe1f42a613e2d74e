//! `epoll` bindings for the event loop — zero dependencies: the three
//! calls the loop needs are declared `extern "C"` against the libc that
//! `std` already links, exactly as `cbir_core`'s `mmap` module declares
//! `mmap`/`munmap`. Everything else the loop touches (nonblocking
//! sockets, the waker pipe, fd lifetimes) comes from `std`.

use std::ffi::c_int;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// Readable (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`; always reported, never registered).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`; always reported, never registered).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

/// One readiness event, in the kernel's ABI layout: packed on x86-64
/// (the 64-bit data field is *not* 8-byte aligned there), natural
/// `repr(C)` alignment on every other architecture.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Readiness bits (`EPOLLIN` | …).
    pub events: u32,
    /// The caller's token for the fd, returned verbatim.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// Map libc's `-1`-and-`errno` convention onto `io::Error`.
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance; the fd is closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: the call just returned `fd` as a fresh descriptor that
        // nothing else owns.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; DEL ignores the pointer.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with interest `events`, tagged `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change a registered fd's interest set.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Remove a registered fd.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block for up to `timeout_ms` (-1 = forever) and fill `events`;
    /// returns how many fired. `EINTR` retries internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        loop {
            // SAFETY: the pointer is valid for `max <= events.len()`
            // entries for the duration of the call.
            let n =
                unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) };
            match cvt(n) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_reports_readiness_on_a_pipe() {
        let ep = Epoll::new().unwrap();
        let (mut a, mut b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        ep.add(b.as_raw_fd(), EPOLLIN, 7).unwrap();

        // Nothing readable yet: a zero-timeout wait returns no events.
        let mut evs = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        let n = ep.wait(&mut evs, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ evs[0].data }, 7);
        assert_ne!({ evs[0].events } & EPOLLIN, 0);

        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 1);

        // Interest can be switched to write-readiness and removed.
        ep.modify(b.as_raw_fd(), EPOLLOUT, 7).unwrap();
        let n = ep.wait(&mut evs, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!({ evs[0].events } & EPOLLOUT, 0);
        ep.del(b.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);
    }
}
