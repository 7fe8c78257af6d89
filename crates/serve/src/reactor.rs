//! The in-tree readiness poller behind the event-loop server.
//!
//! On Linux (x86_64 / aarch64) this is a thin safe wrapper over raw
//! `epoll` + `eventfd` syscalls (the `sys` module) — level-triggered,
//! one instance per event-loop thread, zero external dependencies.
//! Those are the targets sitm-serve runs on: no readiness syscall is
//! reachable without libc anywhere else, so there the crate still
//! builds (the workspace facade depends on it) but [`Poller::new`]
//! returns [`io::ErrorKind::Unsupported`] and `Server::start` reports
//! why (DESIGN.md §17).
//!
//! The [`Poller`] API is deliberately tiny: register/modify/remove a
//! TCP stream with a `u64` token and an [`Interest`] (readable and/or
//! writable), block in [`Poller::wait`] for events, and wake the
//! blocked loop from any thread with its [`Waker`]. Waker wakeups are
//! internal: `wait` may return an empty event list, which callers must
//! treat as "check your queues" (the event-loop drains its completion
//! and handoff queues after every wait, so a wake is never lost).

use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// What a registered stream wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when bytes (or EOF) can be read.
    pub readable: bool,
    /// Report when the send buffer has room.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Readable and writable — a connection with queued output.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Writable only — a connection under read backpressure that
    /// still has output to flush.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };

    /// Nothing — a connection under read backpressure with an empty
    /// write buffer (completions will resume it).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the stream was registered with.
    pub token: u64,
    /// The stream is readable (includes EOF, peer shutdown and error
    /// conditions — a `read` will surface whichever it is).
    pub readable: bool,
    /// The stream is writable (includes error conditions — a `write`
    /// will surface them).
    pub writable: bool,
}

// ---------------------------------------------------------------------------
// Linux: epoll + eventfd.
// ---------------------------------------------------------------------------

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::{Event, Interest};
    use crate::sys;
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::Duration;

    /// Token reserved for the internal eventfd waker.
    const WAKER_TOKEN: u64 = u64::MAX;

    /// Upper bound on events drained per `wait` call (level-triggered
    /// epoll re-reports anything still pending on the next call).
    const MAX_EVENTS: usize = 1024;

    pub struct Poller {
        epoll: sys::Epoll,
        waker_fd: Arc<sys::EventFd>,
        buf: std::cell::RefCell<Vec<sys::EpollEvent>>,
    }

    #[derive(Clone)]
    pub struct Waker {
        fd: Arc<sys::EventFd>,
    }

    fn bits_of(interest: Interest) -> u32 {
        let mut bits = sys::EPOLLRDHUP; // always watch for peer shutdown
        if interest.readable {
            bits |= sys::EPOLLIN;
        }
        if interest.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epoll = sys::Epoll::new()?;
            let waker_fd = Arc::new(sys::EventFd::new()?);
            epoll.add(waker_fd.raw(), sys::EPOLLIN, WAKER_TOKEN)?;
            Ok(Poller {
                epoll,
                waker_fd,
                buf: std::cell::RefCell::new(vec![sys::EpollEvent::default(); MAX_EVENTS]),
            })
        }

        pub fn waker(&self) -> Waker {
            Waker {
                fd: Arc::clone(&self.waker_fd),
            }
        }

        pub fn add(&self, stream: &TcpStream, token: u64, interest: Interest) -> io::Result<()> {
            self.epoll.add(stream.as_raw_fd(), bits_of(interest), token)
        }

        pub fn modify(&self, stream: &TcpStream, token: u64, interest: Interest) -> io::Result<()> {
            self.epoll
                .modify(stream.as_raw_fd(), bits_of(interest), token)
        }

        pub fn remove(&self, stream: &TcpStream, _token: u64) -> io::Result<()> {
            self.epoll.delete(stream.as_raw_fd())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let timeout_ms = match timeout {
                None => -1,
                Some(d) => i32::try_from(d.as_millis()).unwrap_or(i32::MAX).max(0),
            };
            let mut buf = self.buf.borrow_mut();
            let n = self.epoll.wait(&mut buf, timeout_ms)?;
            for ev in &buf[..n] {
                // Copy the (possibly packed) fields out before use.
                let token = ev.data;
                let bits = ev.events;
                if token == WAKER_TOKEN {
                    self.waker_fd.drain();
                    continue;
                }
                let err = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
                events.push(Event {
                    token,
                    readable: err || bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: err || bits & sys::EPOLLOUT != 0,
                });
            }
            Ok(())
        }
    }

    impl Waker {
        pub fn wake(&self) {
            self.fd.wake();
        }
    }
}

// ---------------------------------------------------------------------------
// Everywhere else: unsupported.
// ---------------------------------------------------------------------------

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::net::TcpStream;
    use std::time::Duration;

    /// Uninhabited: `new` never succeeds, so no method below can run.
    pub enum Poller {}

    #[derive(Clone)]
    pub enum Waker {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "sitm-serve runs on Linux x86_64/aarch64 only (epoll + eventfd)",
            ))
        }

        pub fn waker(&self) -> Waker {
            match *self {}
        }

        pub fn add(&self, _: &TcpStream, _: u64, _: Interest) -> io::Result<()> {
            match *self {}
        }

        pub fn modify(&self, _: &TcpStream, _: u64, _: Interest) -> io::Result<()> {
            match *self {}
        }

        pub fn remove(&self, _: &TcpStream, _: u64) -> io::Result<()> {
            match *self {}
        }

        pub fn wait(&self, _: &mut Vec<Event>, _: Option<Duration>) -> io::Result<()> {
            match *self {}
        }
    }

    impl Waker {
        pub fn wake(&self) {
            match *self {}
        }
    }
}

// ---------------------------------------------------------------------------
// The public facade.
// ---------------------------------------------------------------------------

/// A readiness poller over epoll (Linux x86_64/aarch64; construction
/// fails elsewhere). One per event-loop thread; `wait` blocks until a registered stream
/// is ready or the [`Waker`] fires.
pub struct Poller(imp::Poller);

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").finish_non_exhaustive()
    }
}

/// Wakes a [`Poller`] blocked in [`Poller::wait`] from any thread.
/// Cheap to clone; waking an already-woken (or already-dead) poller is
/// harmless.
#[derive(Clone)]
pub struct Waker(imp::Waker);

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").finish_non_exhaustive()
    }
}

impl Poller {
    /// A fresh poller instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1`/`eventfd` failure;
    /// [`io::ErrorKind::Unsupported`] off Linux x86_64/aarch64.
    pub fn new() -> io::Result<Poller> {
        imp::Poller::new().map(Poller)
    }

    /// A handle that wakes this poller from other threads.
    pub fn waker(&self) -> Waker {
        Waker(self.0.waker())
    }

    /// Registers `stream` under `token` with the given interest. The
    /// stream should already be in nonblocking mode.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn add(&self, stream: &TcpStream, token: u64, interest: Interest) -> io::Result<()> {
        self.0.add(stream, token, interest)
    }

    /// Updates the interest set of a registered stream.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, stream: &TcpStream, token: u64, interest: Interest) -> io::Result<()> {
        self.0.modify(stream, token, interest)
    }

    /// Deregisters a stream.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn remove(&self, stream: &TcpStream, token: u64) -> io::Result<()> {
        self.0.remove(stream, token)
    }

    /// Blocks until at least one registered stream is ready, the
    /// optional timeout elapses, or a [`Waker`] fires — the latter two
    /// return an **empty** event list, which callers must treat as
    /// "re-check your queues".
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.0.wait(events, timeout)
    }
}

impl Waker {
    /// Wakes the poller. Never blocks, never fails.
    pub fn wake(&self) {
        self.0.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_unblocks_wait_from_another_thread() {
        let poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Vec::new();
        // Blocks until the wake; a 5s cap turns a lost wakeup into a
        // test failure rather than a hang.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        handle.join().expect("waker thread");
    }

    #[test]
    fn readable_stream_is_reported_with_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("poller");
        poller.add(&stream, 5, Interest::READ).expect("add");

        peer.write_all(b"x").expect("peer write");
        peer.flush().expect("peer flush");

        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .expect("wait");
            if events.iter().any(|e| e.token == 5 && e.readable) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "readable event never arrived"
            );
        }
        poller.remove(&stream, 5).expect("remove");
    }
}
