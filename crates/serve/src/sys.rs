//! Raw Linux syscall bindings for the reactor: `epoll` and `eventfd`.
//!
//! The workspace rule is zero external dependencies, and std exposes
//! neither `epoll` nor any generic syscall entry point — so this module
//! issues the syscalls directly with inline assembly, on the two Linux
//! architectures the project targets (x86_64 and aarch64). Everything
//! here is `pub(crate)`: the only consumer is [`crate::reactor`], which
//! wraps these fds in safe RAII types. On any other platform this module
//! is not compiled at all and the reactor reports `Unsupported`.
//!
//! Safety perimeter: every function passes pointers to live, correctly
//! sized stack or heap buffers owned by the caller for the duration of
//! the call, and file descriptors that the wrapping RAII types own.
//! Negative kernel returns are mapped to [`io::Error`] — nothing here
//! panics or leaks a raw fd on the error path.
#![allow(unsafe_code)]

use std::arch::asm;
use std::io;

/// Raw file descriptor (matches `std::os::fd::RawFd` on Linux).
pub(crate) type RawFd = i32;

// -- syscall numbers -------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: i64 = 0;
    pub const WRITE: i64 = 1;
    pub const CLOSE: i64 = 3;
    pub const EPOLL_CTL: i64 = 233;
    pub const EPOLL_PWAIT: i64 = 281;
    pub const EVENTFD2: i64 = 290;
    pub const EPOLL_CREATE1: i64 = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const EPOLL_CREATE1: i64 = 20;
    pub const EPOLL_CTL: i64 = 21;
    pub const EPOLL_PWAIT: i64 = 22;
    pub const CLOSE: i64 = 57;
    pub const READ: i64 = 63;
    pub const WRITE: i64 = 64;
    pub const EVENTFD2: i64 = 19;
}

// -- the syscall instruction -----------------------------------------------

/// Six-argument syscall. The kernel returns a negative errno on
/// failure; [`check`] converts that to `io::Result`.
///
/// # Safety
///
/// The caller must uphold the kernel's contract for syscall `n`:
/// pointer arguments must reference live memory of the required size
/// for the duration of the call.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
    let ret: i64;
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Six-argument syscall (aarch64 flavor).
///
/// # Safety
///
/// Same contract as the x86_64 variant.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
    let ret: i64;
    unsafe {
        asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
    }
    ret
}

/// Maps a raw kernel return to `io::Result`, retag: negative is
/// `-errno`.
fn check(ret: i64) -> io::Result<i64> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret)
    }
}

const EINTR: i32 = 4;

// -- epoll ----------------------------------------------------------------

/// `EPOLLIN`: the fd has bytes to read (or a pending accept/EOF).
pub(crate) const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd's send buffer has room.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition; always reported, never requested.
pub(crate) const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hangup; always reported, never requested.
pub(crate) const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: the peer shut down its write side.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i64 = 0x80000;
const EPOLL_CTL_ADD: i64 = 1;
const EPOLL_CTL_DEL: i64 = 2;
const EPOLL_CTL_MOD: i64 = 3;

/// The kernel's `struct epoll_event`. Packed on x86_64 (the one ABI
/// where the kernel declares it `__attribute__((packed))`), naturally
/// aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    /// Readiness bit set (`EPOLL*` flags).
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim with each event.
    pub data: u64,
}

/// An owned epoll instance; the fd is closed on drop.
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointer arguments.
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Epoll { fd: fd as RawFd })
    }

    fn ctl(&self, op: i64, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly laid out epoll_event for
        // the duration of the call (DEL ignores the pointer but a
        // valid one is passed anyway, as pre-2.6.9 kernels required).
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                i64::from(self.fd),
                op,
                i64::from(fd),
                std::ptr::from_mut(&mut ev) as i64,
                0,
                0,
            )
        })?;
        Ok(())
    }

    /// Registers `fd` for `events`, tagging it with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of a registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// `epoll_pwait` into `events`, blocking up to `timeout_ms`
    /// (`-1` = forever). Returns the number of events filled. Retries
    /// on `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is a live, caller-owned slice; the
            // kernel writes at most `events.len()` entries. The null
            // sigmask leaves the signal mask untouched.
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    i64::from(self.fd),
                    events.as_mut_ptr() as i64,
                    events.len() as i64,
                    i64::from(timeout_ms),
                    0, // sigmask: null
                    8, // sigsetsize (_NSIG / 8); ignored with null mask
                )
            };
            if ret == -i64::from(EINTR) {
                continue;
            }
            return check(ret).map(|n| n as usize);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd; double-close is impossible (drop runs
        // once) and the return value is irrelevant on this path.
        let _ = unsafe { syscall6(nr::CLOSE, i64::from(self.fd), 0, 0, 0, 0, 0) };
    }
}

// -- eventfd (the reactor waker) -------------------------------------------

const EFD_CLOEXEC: i64 = 0x80000;
const EFD_NONBLOCK: i64 = 0x800;

/// An owned nonblocking eventfd; the fd is closed on drop. Writing
/// increments the kernel counter (waking an epoll that watches it for
/// `EPOLLIN`); reading drains the counter back to zero.
#[derive(Debug)]
pub(crate) struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: no pointer arguments.
        let fd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        Ok(EventFd { fd: fd as RawFd })
    }

    /// The fd to register with epoll.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the counter, waking any epoll watching this fd. A
    /// `WouldBlock` (counter saturated — wakeups already pending) is a
    /// success for our purposes; other errors are ignored too, since a
    /// failed wake at shutdown has no one left to care.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: `one` lives across the call; 8 bytes is the eventfd
        // write contract.
        let _ = unsafe {
            syscall6(
                nr::WRITE,
                i64::from(self.fd),
                std::ptr::from_ref(&one) as i64,
                8,
                0,
                0,
                0,
            )
        };
    }

    /// Drains the counter so the next `wake` edge is observable again.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: `buf` lives across the call; 8 bytes is the eventfd
        // read contract. EAGAIN (already drained) is fine.
        let _ = unsafe {
            syscall6(
                nr::READ,
                i64::from(self.fd),
                std::ptr::from_mut(&mut buf) as i64,
                8,
                0,
                0,
                0,
            )
        };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd (see Epoll::drop).
        let _ = unsafe { syscall6(nr::CLOSE, i64::from(self.fd), 0, 0, 0, 0, 0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().expect("epoll_create1");
        let ev = EventFd::new().expect("eventfd2");
        ep.add(ev.raw(), EPOLLIN, 7).expect("epoll_ctl add");

        let mut events = [EpollEvent::default(); 4];
        // Nothing pending: a zero timeout returns no events.
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);

        ev.wake();
        let n = ep.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let data = events[0].data; // copy out (packed on x86_64)
        assert_eq!(data, 7);

        // Drain resets the edge; level-triggered epoll goes quiet.
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);

        ep.delete(ev.raw()).expect("epoll_ctl del");
    }

    #[test]
    fn epoll_reports_tcp_readability() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut tx = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (rx, _) = listener.accept().expect("accept");
        rx.set_nonblocking(true).expect("nonblocking");

        let ep = Epoll::new().expect("epoll_create1");
        ep.add(rx.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 42)
            .expect("add");

        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0, "idle socket");

        tx.write_all(b"ping").expect("write");
        tx.flush().expect("flush");
        let n = ep.wait(&mut events, 2000).expect("wait");
        assert_eq!(n, 1);
        let data = events[0].data;
        let bits = events[0].events;
        assert_eq!(data, 42);
        assert_ne!(bits & EPOLLIN, 0, "readable after peer write");
    }
}
