//! Readiness polling: an epoll set with an eventfd in it, over a
//! hand-declared FFI (no `libc` crate; Linux only).
//!
//! A [`Poller`] is one epoll instance plus one eventfd registered in it.
//! Sockets and other pollers are added under a `u64` token, level-triggered;
//! [`Poller::wait`] waits with microsecond precision (`epoll_pwait2` takes a
//! `timespec`, where `epoll_wait` rounds to milliseconds) and hands back the
//! ready tokens; [`Poller::notify`] writes the eventfd, which cuts a wait
//! short — or, written before it, makes the next wait return at once. The
//! eventfd's token never reaches the caller: a wait that sees it reads the
//! count back to zero.
//!
//! Two things are built from it. The tcp transport keeps one for its
//! listener and connections; a reactor worker parks in one of its own, in
//! which the transport's poller sits nested once the reactor has adopted
//! the transport (an epoll fd is itself pollable: it reads ready while it
//! holds a ready event), so a socket becoming readable and a wake from
//! another thread end the same park.
//!
//! This is the one module of the workspace outside `planet-bench`'s
//! counting allocator with `unsafe` code: four system calls, each with its
//! `SAFETY` argument. Descriptors are owned by [`OwnedFd`]s, so nothing here
//! closes one by hand.

#![allow(unsafe_code)]

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

use std::os::raw::{c_int, c_long, c_uint, c_void};

/// `struct epoll_event`. The kernel packs it on x86-64 (12 bytes), and
/// lays it out naturally elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec` on a 64-bit target.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// The eventfd's token; callers' tokens are anything else.
const KICK: u64 = u64::MAX;

/// Most events one wait hands back. A busier set reports the rest on the
/// next wait (level-triggered, nothing is lost).
const MAX_EVENTS: usize = 64;

/// What a registration waits for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Interest {
    /// Readable (for a listener: a connection to accept).
    Read,
    /// Readable or writable: a socket with writes queued behind it.
    ReadWrite,
}

impl Interest {
    fn bits(self) -> u32 {
        match self {
            Interest::Read => EPOLLIN | EPOLLRDHUP,
            Interest::ReadWrite => EPOLLIN | EPOLLRDHUP | EPOLLOUT,
        }
    }
}

/// One ready registration, as a wait reports it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ready {
    /// The token it was registered under.
    pub(crate) token: u64,
    bits: u32,
}

impl Ready {
    /// A read would not block: data, a peer's close, or an error to read.
    pub(crate) fn readable(&self) -> bool {
        self.bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0
    }

    /// A write would not block, or would fail at once.
    pub(crate) fn writable(&self) -> bool {
        self.bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }
}

/// The events of one wait, on the caller's stack: a wait allocates nothing.
pub(crate) struct Events {
    buf: [EpollEvent; MAX_EVENTS],
    len: usize,
}

impl Events {
    pub(crate) fn new() -> Self {
        Events {
            buf: [EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            len: 0,
        }
    }

    /// The ready registrations of the last wait.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Ready> + '_ {
        self.buf.iter().take(self.len).map(|ev| {
            // Copied out of the packed struct, never borrowed in it.
            let (events, data) = (ev.events, ev.data);
            Ready {
                token: data,
                bits: events,
            }
        })
    }
}

/// An epoll set with an eventfd in it (see the module docs).
pub(crate) struct Poller {
    epoll: OwnedFd,
    kick: File,
}

/// Turn a `-1` return into the thread's `errno`.
fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl Poller {
    /// A new epoll set holding its eventfd.
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; a non-negative return is
        // a fresh descriptor that nothing else owns.
        let epoll = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: as above; owned from here on, so it is closed on drop.
        let epoll = unsafe { OwnedFd::from_raw_fd(epoll) };
        // SAFETY: `eventfd` takes no pointers; a non-negative return is a
        // fresh descriptor that nothing else owns.
        let kick = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: as above; owned from here on, so it is closed on drop.
        let kick = File::from(unsafe { OwnedFd::from_raw_fd(kick) });
        let poller = Poller { epoll, kick };
        poller.ctl(EPOLL_CTL_ADD, poller.kick.as_raw_fd(), KICK, EPOLLIN)?;
        Ok(poller)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live, properly laid out `epoll_event` for the
        // length of the call (the kernel copies it; `EPOLL_CTL_DEL` ignores
        // it), and both descriptors are open: `self.epoll` is owned here and
        // `fd` is borrowed from a live owner by every caller.
        check(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) })?;
        Ok(())
    }

    /// Watch `fd` for `interest` under `token` (not `u64::MAX`, which is
    /// the eventfd's). The registration lasts until [`delete`](Self::delete)
    /// or until `fd` is closed.
    pub(crate) fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), token, interest.bits())
    }

    /// Change what `fd`'s registration waits for.
    pub(crate) fn modify(
        &self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), token, interest.bits())
    }

    /// Stop watching `fd`.
    pub(crate) fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Wait up to `timeout` (`None`: not at all, just collect what is ready)
    /// for a registration to be ready or for a [`notify`](Self::notify).
    /// A notify is consumed here and not reported in `events`. An
    /// interrupted wait returns with no events, as a spurious wake.
    pub(crate) fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let timeout = timeout.unwrap_or(Duration::ZERO);
        let spec = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `events.buf` is a writable array of `MAX_EVENTS` properly
        // laid out `epoll_event`s, borrowed mutably for the call, and the
        // kernel writes at most `maxevents` of them; `spec` is a live
        // `timespec`; a null `sigmask` leaves the signal mask alone, as
        // `epoll_wait` does.
        let n = unsafe {
            epoll_pwait2(
                self.epoll.as_raw_fd(),
                events.buf.as_mut_ptr(),
                MAX_EVENTS as c_int,
                &spec,
                std::ptr::null(),
            )
        };
        events.len = 0;
        let n = match check(n) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut kicked = false;
        for i in 0..n.min(MAX_EVENTS) {
            let Some(&ev) = events.buf.get(i) else { break };
            if ev.data == KICK {
                kicked = true;
            } else if let Some(slot) = events.buf.get_mut(events.len) {
                *slot = ev;
                events.len += 1;
            }
        }
        if kicked {
            // Back to zero; `WouldBlock` means another waiter took it first.
            let mut count = [0u8; 8];
            let _ = (&self.kick).read(&mut count);
        }
        Ok(())
    }

    /// End a wait in progress, or the next one if none is.
    pub(crate) fn notify(&self) {
        // A full counter (`WouldBlock`) already reads ready.
        let _ = (&self.kick).write(&1u64.to_ne_bytes());
    }
}

/// A worker's park: a wait cut short by [`rouse`](Self::rouse), in a poller
/// that the sockets of an adopted transport can end too
/// ([`attach`](Self::attach)). `crate::sync` names it `Waiter`, and swaps
/// in a stand-in under `--cfg loom`.
#[cfg(not(loom))]
pub(crate) struct Waiter {
    poller: Poller,
}

/// The token an attached transport's poller sits under in a [`Waiter`].
#[cfg(not(loom))]
const NESTED: u64 = 0;

#[cfg(not(loom))]
impl Waiter {
    /// A waiter of its own poller.
    ///
    /// # Panics
    ///
    /// When the process is out of file descriptors.
    pub(crate) fn new() -> Self {
        Waiter {
            // A worker that cannot park cannot run: check:allow(panic)
            poller: Poller::new().expect("create a worker's poller"),
        }
    }

    /// End the owner's park, or its next one.
    pub(crate) fn rouse(&self) {
        self.poller.notify();
    }

    /// Park up to `timeout`: until it passes, a [`rouse`](Self::rouse), or a
    /// socket of an attached transport has something to do.
    pub(crate) fn wait(&self, timeout: Duration) {
        let mut events = Events::new();
        let _ = self.poller.wait(&mut events, Some(timeout));
    }

    /// Let the sockets of `io`'s poller end this waiter's parks: `io`'s
    /// epoll set sits nested in this one, and reads ready while it holds a
    /// ready event (which `io`'s own wait then takes).
    pub(crate) fn attach(&self, io: &Poller) -> io::Result<()> {
        self.poller
            .ctl(EPOLL_CTL_ADD, io.epoll.as_raw_fd(), NESTED, EPOLLIN)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use super::{EpollEvent, Events, Interest, Poller, Waiter};

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_event_struct_is_packed_to_twelve_bytes() {
        assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
    }

    #[test]
    fn a_notify_cuts_a_wait_short() {
        let poller = Arc::new(Poller::new().expect("poller"));
        let notifier = {
            let poller = Arc::clone(&poller);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                poller.notify();
            })
        };
        let began = Instant::now();
        let mut events = Events::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .expect("wait");
        assert!(
            began.elapsed() < Duration::from_secs(5),
            "the notify ended it"
        );
        assert_eq!(events.iter().count(), 0, "the eventfd is not reported");
        notifier.join().expect("notifier");
        // Consumed: the next wait runs its course.
        let began = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert!(began.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn a_registered_socket_reports_readable_and_a_deregistered_one_does_not() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let poller = Poller::new().expect("poller");
        poller.add(&server, 7, Interest::Read).expect("add");
        client.write_all(b"hi").expect("write");
        let mut events = Events::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        let ready: Vec<_> = events.iter().collect();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].token, 7);
        assert!(ready[0].readable());
        poller.delete(&server).expect("delete");
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert_eq!(events.iter().count(), 0, "no longer watched");
    }

    /// A waiter's park ends when a socket of the poller attached to it
    /// turns readable.
    #[test]
    fn an_attached_poller_ends_a_park() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let io = Poller::new().expect("poller");
        io.add(&server, 3, Interest::Read).expect("add");
        let waiter = Waiter::new();
        waiter.attach(&io).expect("attach");
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            client.write_all(b"x").expect("write");
            client
        });
        let began = Instant::now();
        waiter.wait(Duration::from_secs(10));
        assert!(
            began.elapsed() < Duration::from_secs(5),
            "the socket ended it"
        );
        drop(writer.join().expect("writer"));
    }

    /// The wait keeps sub-millisecond precision: a 300 µs timeout returns
    /// after at least 300 µs and, on most tries, before 1 ms (a shared host
    /// may deschedule any one try).
    #[test]
    fn a_300_us_timeout_is_kept_to_the_microsecond() {
        let poller = Poller::new().expect("poller");
        let mut events = Events::new();
        let timeout = Duration::from_micros(300);
        let tries = 50;
        let mut prompt = 0;
        for _ in 0..tries {
            let began = Instant::now();
            poller.wait(&mut events, Some(timeout)).expect("wait");
            let took = began.elapsed();
            assert!(took >= timeout, "returned after {took:?}");
            if took < Duration::from_millis(1) {
                prompt += 1;
            }
        }
        assert!(prompt * 2 > tries, "{prompt} of {tries} under 1 ms");
    }
}
