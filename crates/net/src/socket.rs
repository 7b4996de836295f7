//! A real socket transport: TCP and Unix-domain streams behind the
//! [`Transport`] seam.
//!
//! Layering, bottom to top:
//!
//! 1. **Stream** — a TCP or Unix-domain byte pipe. One connection per
//!    (dialer, peer) pair, owned by that peer's writer thread and
//!    redialed on failure.
//! 2. **Frames** — [`crate::frame`] varint length framing cuts the pipe
//!    back into discrete records; malformed prefixes surface as typed
//!    errors and close the connection, never panic.
//! 3. **Secure channel** — every connection starts with the
//!    [`crate::secure`] mutual-authentication handshake (dialer
//!    initiates); each subsequent frame is sealed with the session
//!    keys. The channel is split into independently owned send/receive
//!    halves so the writer path and the reader thread never contend.
//! 4. **Channel frames** — the sealed plaintext is a [`ChannelFrame`]:
//!    claimed origin, destination endpoint, payload — the same triple
//!    [`Delivery`] carries on the simulation. The receiver stamps the
//!    arrival instant from its own clock.
//!
//! The transport clock is *wall-clock nanoseconds since the UNIX
//! epoch*, advanced by a ticker thread and at every send/receive: all
//! processes on one machine therefore share a clock epoch, which keeps
//! cross-process hop latencies and the sealed-datagram replay window
//! meaningful. (The [`crate::datagram::ReplayGuard`] only rejects
//! *stale* timestamps, so a receiver whose clock trails a sender's by
//! a tick never false-positives.) The wall is sampled **once**, at
//! bind, and extended by the monotonic clock thereafter ([`WallAnchor`]
//! internally) — a backwards NTP step after bind therefore cannot stall
//! the transport clock or freeze frame timestamps.
//!
//! **The outbound data plane is batched.** `send_as` never touches a
//! socket: it encodes the frame body into the destination peer's
//! outbound lane (pooled, grow-only buffers — zero heap allocation at
//! steady state) and wakes that peer's writer thread. The writer seals
//! everything queued since its last wakeup — each frame's varint
//! length header is written up front from [`SecureChannel::sealed_len`],
//! so encode → seal → frame is one pass over one buffer — and pushes
//! the whole batch through a single `write_all`. A burst of N frames
//! costs one syscall instead of N; the frames-per-write distribution is
//! observable via [`Transport::on_write_batch`] and the
//! `frames_coalesced` / `write_syscalls` counters in [`NetStats`].
//!
//! What the simulation models that a real wire cannot: [`LinkModel`]
//! latency/loss shaping (`set_link` is a no-op here — the wire is its
//! own link model) and adversaries between hosts. The [`Adversary`]
//! hook still applies on the send path, before sealing, so
//! `Drop`/`Tamper` fault injection behaves identically over sockets.
//!
//! [`LinkModel`]: crate::link::LinkModel

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};

use ajanta_crypto::{DetRng, RootOfTrust};
use ajanta_naming::Urn;
use ajanta_wire::{write_varint, Decoder, Wire};

use crate::adversary::{Adversary, TransitAction};
use crate::frame::{encode_channel_frame_into, encode_frame, ChannelFrame, FrameBuffer};
use crate::secure::{ChannelIdentity, SecureChannel};
use crate::sim::{Delivery, NetError, NetStats};
use crate::time::VClock;
use crate::transport::{FrameRejectHook, NetEndpoint, Transport, TransportKind, WriteBatchHook};

/// Clock-ticker cadence while traffic is flowing.
const TICK: Duration = Duration::from_millis(1);
/// Parked ticker / idle writer backstop wakeup, bounding how stale the
/// stop flag can go unnoticed.
const PARK_BACKSTOP: Duration = Duration::from_millis(250);
/// Blocked reads wake this often to check for shutdown.
const READ_POLL: Duration = Duration::from_millis(100);
/// Bound on waiting for a handshake message.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Wall-clock nanoseconds since the UNIX epoch — sampled exactly once,
/// when a [`WallAnchor`] is created.
fn wall_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// A monotonic extension of one wall-clock sample.
///
/// The transport stamps every frame with "wall nanoseconds", but
/// `SystemTime` is not monotone: an NTP step (or a VM resume) can move
/// it backwards, and a naive `advance_to(wall_now_ns())` would then pin
/// the transport clock for the whole regression window — freezing hop
/// latencies at zero and aging every outbound datagram toward the
/// receiver's replay horizon. So the wall is read once, here, and all
/// later "wall" reads are `epoch + Instant::elapsed()`: same epoch, but
/// immune to steps in either direction.
struct WallAnchor {
    epoch_wall_ns: u64,
    epoch: std::time::Instant,
}

impl WallAnchor {
    fn new() -> Self {
        Self::at(wall_now_ns())
    }

    /// Anchors at an explicit epoch (tests simulate clock steps with
    /// this; production code uses [`WallAnchor::new`]).
    fn at(epoch_wall_ns: u64) -> Self {
        WallAnchor {
            epoch_wall_ns,
            epoch: std::time::Instant::now(),
        }
    }

    /// Wall nanoseconds now: the bind-time epoch plus monotonic elapsed
    /// time. Never decreases between calls.
    fn now_ns(&self) -> u64 {
        self.epoch_wall_ns
            .saturating_add(self.epoch.elapsed().as_nanos() as u64)
    }
}

// ---------------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------------

/// A socket address a transport binds or dials: TCP or Unix-domain.
/// `Display`/`FromStr` round-trip (`tcp:127.0.0.1:4000`,
/// `uds:/tmp/a.sock`) so addresses travel through the multi-process
/// bootstrap exchange as plain text.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum NetAddr {
    /// A TCP address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

impl std::fmt::Display for NetAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetAddr::Tcp(a) => write!(f, "tcp:{a}"),
            NetAddr::Uds(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

impl std::str::FromStr for NetAddr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            rest.parse()
                .map(NetAddr::Tcp)
                .map_err(|e| format!("bad tcp address {rest:?}: {e}"))
        } else if let Some(rest) = s.strip_prefix("uds:") {
            Ok(NetAddr::Uds(PathBuf::from(rest)))
        } else {
            Err(format!("address {s:?} must start with tcp: or uds:"))
        }
    }
}

// ---------------------------------------------------------------------------
// Streams and listeners
// ---------------------------------------------------------------------------

/// One connected byte pipe, TCP or Unix-domain.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Stream {
    fn connect(addr: &NetAddr) -> std::io::Result<Stream> {
        match addr {
            NetAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            NetAddr::Uds(p) => Ok(Stream::Uds(UnixStream::connect(p)?)),
            #[cfg(not(unix))]
            NetAddr::Uds(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix-domain sockets unavailable on this platform",
            )),
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Uds(s) => s.try_clone().map(Stream::Uds),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Stream::Uds(s) => s.set_read_timeout(t),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Uds(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

impl Listener {
    fn bind(addr: &NetAddr) -> std::io::Result<(Listener, NetAddr)> {
        match addr {
            NetAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let bound = NetAddr::Tcp(l.local_addr()?);
                l.set_nonblocking(true)?;
                Ok((Listener::Tcp(l), bound))
            }
            #[cfg(unix)]
            NetAddr::Uds(p) => {
                let l = UnixListener::bind(p)?;
                l.set_nonblocking(true)?;
                Ok((Listener::Uds(l, p.clone()), NetAddr::Uds(p.clone())))
            }
            #[cfg(not(unix))]
            NetAddr::Uds(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix-domain sockets unavailable on this platform",
            )),
        }
    }

    /// Non-blocking accept: `Ok(None)` when no connection is pending.
    fn accept(&self) -> std::io::Result<Option<Stream>> {
        let res = match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Uds(l, _) => l.accept().map(|(s, _)| Stream::Uds(s)),
        };
        match res {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// The outbound data plane
// ---------------------------------------------------------------------------

/// Lock-free traffic counters, bumped on every frame. A `Mutex<NetStats>`
/// here would be taken once per frame on the hottest path in the
/// transport; plain relaxed atomics make the accounting free.
#[derive(Default)]
struct TransportStats {
    messages_delivered: AtomicU64,
    messages_dropped: AtomicU64,
    messages_injected: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_delivered: AtomicU64,
    frames_coalesced: AtomicU64,
    write_syscalls: AtomicU64,
}

impl TransportStats {
    fn snapshot(&self) -> NetStats {
        NetStats {
            messages_delivered: self.messages_delivered.load(Ordering::Relaxed),
            messages_dropped: self.messages_dropped.load(Ordering::Relaxed),
            messages_injected: self.messages_injected.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_delivered: self.bytes_delivered.load(Ordering::Relaxed),
            frames_coalesced: self.frames_coalesced.load(Ordering::Relaxed),
            write_syscalls: self.write_syscalls.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.messages_delivered.store(0, Ordering::Relaxed);
        self.messages_dropped.store(0, Ordering::Relaxed);
        self.messages_injected.store(0, Ordering::Relaxed);
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_delivered.store(0, Ordering::Relaxed);
        self.frames_coalesced.store(0, Ordering::Relaxed);
        self.write_syscalls.store(0, Ordering::Relaxed);
    }
}

/// Pending outbound traffic for one peer: `varint-length ‖ plaintext
/// channel-frame body` records appended by senders, drained in order by
/// the peer's writer thread. Bodies stay plaintext in the queue so a
/// redial can re-seal them on the fresh session — sealed bytes are
/// bound to one channel's keys and sequence space.
#[derive(Default)]
struct PeerTx {
    queue: Vec<u8>,
    frames: u64,
    /// Scratch for one encoded body (reused per enqueue, grow-only).
    scratch: Vec<u8>,
    /// Set when the writer has exited; late enqueues error instead of
    /// parking bytes nobody will ever drain.
    closed: bool,
}

/// One peer's outbound lane: the queue plus the condvar its writer
/// thread parks on. Created on first send to the peer, lives for the
/// transport's lifetime (connections come and go underneath it).
struct PeerLink {
    peer: Urn,
    tx: Mutex<PeerTx>,
    wake: Condvar,
}

/// What the transport keeps about a writer's established connection —
/// enough for `drop_connections` to kill it from outside.
struct ConnHandle {
    dead: Arc<AtomicBool>,
    raw: Stream,
}

/// The writer thread's view of its established connection.
struct WriterConn {
    /// Send half of the secure channel (the recv half lives on the
    /// connection's reader thread).
    chan: SecureChannel,
    stream: Stream,
    /// Set by the reader thread on EOF/error, by `drop_connections`,
    /// or by the writer itself on a failed write.
    dead: Arc<AtomicBool>,
}

// ---------------------------------------------------------------------------
// The transport
// ---------------------------------------------------------------------------

/// Configuration for [`SocketTransport::bind`].
pub struct SocketConfig {
    /// The identity every connection handshakes as (for a world
    /// server: that server's certified identity).
    pub identity: ChannelIdentity,
    /// Trust roots peer certificates must chain to.
    pub roots: RootOfTrust,
    /// Seed for handshake nonces and ephemerals.
    pub seed: u64,
}

struct SockInner {
    kind: TransportKind,
    clock: VClock,
    /// The one wall-clock sample this transport ever takes, extended
    /// monotonically — see [`WallAnchor`].
    wall: WallAnchor,
    identity: ChannelIdentity,
    roots: RootOfTrust,
    rng: Mutex<DetRng>,
    local: NetAddr,
    endpoints: Mutex<BTreeMap<Urn, Sender<Delivery>>>,
    routes: Mutex<BTreeMap<Urn, NetAddr>>,
    /// Per-peer outbound lanes (queue + writer thread), keyed by peer.
    links: Mutex<BTreeMap<Urn, Arc<PeerLink>>>,
    /// Established outbound connections, for `drop_connections`.
    conns: Mutex<BTreeMap<Urn, ConnHandle>>,
    adversary: Mutex<Option<Arc<dyn Adversary>>>,
    stats: TransportStats,
    reject: Mutex<Option<FrameRejectHook>>,
    write_hook: Mutex<Option<WriteBatchHook>>,
    /// `false` switches writers to one-frame-per-write — the pre-batching
    /// wire path, kept as the X18 bench baseline.
    coalesce: AtomicBool,
    stop: AtomicBool,
    /// Bumped by every send/receive; the ticker parks when it stops
    /// moving instead of spinning the clock forward for nobody.
    activity: AtomicU64,
    ticker_parked: AtomicBool,
    tick_lock: Mutex<()>,
    tick_cv: Condvar,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SockInner {
    /// Counts and reports an inbound frame that never became a
    /// [`Delivery`].
    fn reject_frame(&self, reason: &str) {
        self.stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
        let hook = self.reject.lock().clone();
        if let Some(hook) = hook {
            hook(reason);
        }
    }

    /// Counts one coalesced write of `frames` frames in the atomic
    /// counters. Called before the bytes leave, so a receiver holding a
    /// frame already sees its write counted; a write that then fails
    /// takes its count back with [`Self::uncount_write_batch`].
    fn count_write_batch(&self, frames: u64) {
        self.stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .frames_coalesced
            .fetch_add(frames, Ordering::Relaxed);
    }

    /// Withdraws the count of a write that failed (its frames are
    /// redialled, or counted as dropped).
    fn uncount_write_batch(&self, frames: u64) {
        self.stats.write_syscalls.fetch_sub(1, Ordering::Relaxed);
        self.stats
            .frames_coalesced
            .fetch_sub(frames, Ordering::Relaxed);
    }

    /// Reports one completed coalesced write to the installed observer,
    /// if any.
    fn report_write_batch(&self, frames: u64) {
        let hook = self.write_hook.lock().clone();
        if let Some(hook) = hook {
            hook(frames);
        }
    }

    /// Advances the clock to the wall instant and returns it. Also
    /// marks the transport active, unparking the ticker if it idled.
    fn touch_clock(&self) -> u64 {
        self.clock.advance_to(self.wall.now_ns());
        self.activity.fetch_add(1, Ordering::Release);
        if self.ticker_parked.load(Ordering::Acquire) {
            // Notify under the ticker's lock so the wakeup can't slip
            // between its activity re-check and its wait.
            let _guard = self.tick_lock.lock();
            self.tick_cv.notify_all();
        }
        self.clock.now()
    }

    /// Tracks a spawned thread for join-at-shutdown, reaping handles of
    /// threads that already finished so connection churn cannot grow
    /// the list without bound.
    fn track_thread(&self, handle: std::thread::JoinHandle<()>) {
        let mut threads = self.threads.lock();
        threads.retain(|h| !h.is_finished());
        threads.push(handle);
    }

    /// Delivers one decoded channel frame to its local endpoint.
    fn route(&self, frame: ChannelFrame) {
        let sender = self.endpoints.lock().get(&frame.to).cloned();
        match sender {
            Some(tx) => {
                let arrival_ns = self.touch_clock();
                let size = frame.payload.len() as u64;
                // Count before the handoff so a receiver that already
                // holds the delivery never reads a stale counter; the
                // rare failed send undoes it.
                self.stats
                    .messages_delivered
                    .fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_delivered
                    .fetch_add(size, Ordering::Relaxed);
                if tx
                    .send(Delivery {
                        from: frame.from,
                        arrival_ns,
                        payload: frame.payload,
                    })
                    .is_err()
                {
                    self.stats
                        .messages_delivered
                        .fetch_sub(1, Ordering::Relaxed);
                    self.stats
                        .bytes_delivered
                        .fetch_sub(size, Ordering::Relaxed);
                    self.stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => self.reject_frame(&format!("no local endpoint {}", frame.to)),
        }
    }

    /// Dials `peer` through the route table, runs the handshake as
    /// initiator, and spawns the connection's reader thread. Called
    /// only from the peer's writer thread.
    fn connect(self: &Arc<Self>, peer: &Urn) -> Result<WriterConn, NetError> {
        let addr = self
            .routes
            .lock()
            .get(peer)
            .cloned()
            .ok_or_else(|| NetError::UnknownEndpoint(peer.clone()))?;
        let io = |e: std::io::Error| NetError::Io(format!("dial {addr}: {e}"));
        let mut stream = Stream::connect(&addr).map_err(io)?;

        let (hello, pending) = {
            let mut rng = self.rng.lock();
            SecureChannel::initiate(&self.identity, peer, &mut rng)
        };
        stream.write_all(&encode_frame(&hello)).map_err(io)?;
        let ack = read_one_frame(self, &mut stream, HANDSHAKE_TIMEOUT)
            .map_err(|e| NetError::Io(format!("handshake with {peer}: {e}")))?;
        let chan = pending
            .finish(&self.roots, &ack, self.touch_clock())
            .map_err(|e| NetError::Io(format!("handshake with {peer} failed: {e}")))?;
        let (send_half, recv_half) = chan.split();

        let reader = stream.try_clone().map_err(io)?;
        let raw = stream.try_clone().map_err(io)?;
        let dead = Arc::new(AtomicBool::new(false));
        if self.stop.load(Ordering::Acquire) {
            stream.shutdown();
            return Err(NetError::Disconnected);
        }
        let inner = Arc::clone(self);
        let reader_dead = Arc::clone(&dead);
        let handle = std::thread::Builder::new()
            .name("ajanta-conn".into())
            .spawn(move || reader_loop(inner, reader, recv_half, Some(reader_dead)))
            .expect("spawn reader thread");
        self.track_thread(handle);
        self.conns.lock().insert(
            peer.clone(),
            ConnHandle {
                dead: Arc::clone(&dead),
                raw,
            },
        );
        Ok(WriterConn {
            chan: send_half,
            stream,
            dead,
        })
    }

    /// The outbound lane for `peer`, creating it (and its writer
    /// thread) on first use.
    fn link_for(self: &Arc<Self>, peer: &Urn) -> Arc<PeerLink> {
        let mut links = self.links.lock();
        if let Some(link) = links.get(peer) {
            return Arc::clone(link);
        }
        let link = Arc::new(PeerLink {
            peer: peer.clone(),
            tx: Mutex::new(PeerTx::default()),
            wake: Condvar::new(),
        });
        links.insert(peer.clone(), Arc::clone(&link));
        drop(links);
        let inner = Arc::clone(self);
        let writer_link = Arc::clone(&link);
        let handle = std::thread::Builder::new()
            .name("ajanta-writer".into())
            .spawn(move || writer_loop(inner, writer_link))
            .expect("spawn writer thread");
        self.track_thread(handle);
        link
    }

    /// Queues one frame body on `to`'s outbound lane. The sender never
    /// touches the socket: it encodes the body into the lane's pooled
    /// buffers (zero heap allocation at steady state) and wakes the
    /// writer, which seals and coalesces everything queued into one
    /// stream write.
    fn enqueue_remote(
        self: &Arc<Self>,
        from: &Urn,
        to: &Urn,
        payload: &[u8],
    ) -> Result<(), NetError> {
        if !self.routes.lock().contains_key(to) {
            return Err(NetError::UnknownEndpoint(to.clone()));
        }
        let link = self.link_for(to);
        let mut tx = link.tx.lock();
        if tx.closed {
            return Err(NetError::Disconnected);
        }
        let PeerTx {
            queue,
            frames,
            scratch,
            ..
        } = &mut *tx;
        scratch.clear();
        encode_channel_frame_into(from, to, payload, scratch);
        write_varint(queue, scratch.len() as u64);
        queue.extend_from_slice(scratch);
        *frames += 1;
        drop(tx);
        link.wake.notify_one();
        Ok(())
    }

    /// Routes one frame: local endpoints short-circuit in-process,
    /// everything else goes through the peer's outbound lane.
    fn dispatch(self: &Arc<Self>, from: &Urn, to: &Urn, payload: Vec<u8>) -> Result<(), NetError> {
        if self.endpoints.lock().contains_key(to) {
            self.route(ChannelFrame {
                from: from.clone(),
                to: to.clone(),
                payload,
            });
            return Ok(());
        }
        self.enqueue_remote(from, to, &payload)
    }

    /// Full send path: stats, adversary, local short-circuit, lane
    /// enqueue. Mirrors `SimNet::transmit` stage for stage.
    fn send_as(self: &Arc<Self>, from: &Urn, to: &Urn, payload: Vec<u8>) -> Result<(), NetError> {
        if self.stop.load(Ordering::Acquire) {
            return Err(NetError::Disconnected);
        }
        self.stats
            .bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.touch_clock();

        // The adversary sits on the (conceptual) wire, before sealing —
        // the same position it occupies on the simulation.
        let adversary = self.adversary.lock().clone();
        match adversary.as_ref().map(|a| a.on_transit(from, to, &payload)) {
            None | Some(TransitAction::Pass) => self.dispatch(from, to, payload),
            Some(TransitAction::Tamper(modified)) => self.dispatch(from, to, modified),
            Some(TransitAction::Drop) => {
                self.stats.messages_dropped.fetch_add(1, Ordering::Relaxed);
                Ok(()) // silently lost, as on a real network
            }
            Some(TransitAction::InjectAfter(extra)) => {
                self.stats
                    .messages_injected
                    .fetch_add(extra.len() as u64, Ordering::Relaxed);
                let sent = self.dispatch(from, to, payload);
                for (claimed_from, bytes) in extra {
                    // Injected frames share the primary's route; their
                    // failures surface identically, so the primary's
                    // result is the one reported.
                    let _ = self.dispatch(&claimed_from, to, bytes);
                }
                sent
            }
        }
    }
}

/// Splits the next `varint-length ‖ body` record off a lane queue. The
/// queue format is produced solely by `enqueue_remote`, so a malformed
/// record is a bug, not input.
fn split_next_body(buf: &[u8]) -> (&[u8], &[u8]) {
    let mut d = Decoder::new(buf);
    let len = d.get_varint().expect("lane queue varint") as usize;
    let consumed = buf.len() - d.remaining();
    (&buf[consumed..consumed + len], &buf[consumed + len..])
}

/// Drains one peer's outbound lane: waits for queued frame bodies,
/// seals each on the connection's channel with the outer frame header
/// written up front (one pass, no copies), and pushes the whole batch
/// through a single `write_all`. Owns the connection lifecycle — dials
/// lazily, redials once per batch on a failed write and re-seals on
/// the fresh session (reconnect-on-drop); a batch that still cannot be
/// written counts as dropped datagrams, which the runtime's ack/retry
/// layer recovers.
fn writer_loop(inner: Arc<SockInner>, link: Arc<PeerLink>) {
    let mut conn: Option<WriterConn> = None;
    // Swapped-in queue of length-prefixed plaintext bodies.
    let mut pending: Vec<u8> = Vec::new();
    let mut pending_frames: u64 = 0;
    // Sealed-and-framed bytes for one coalesced write.
    let mut out: Vec<u8> = Vec::new();

    loop {
        // Pull the next batch (or a single frame in baseline mode).
        {
            let mut tx = link.tx.lock();
            loop {
                if inner.stop.load(Ordering::Acquire) {
                    tx.closed = true;
                    let orphaned = tx.frames + pending_frames;
                    if orphaned > 0 {
                        inner
                            .stats
                            .messages_dropped
                            .fetch_add(orphaned, Ordering::Relaxed);
                    }
                    return;
                }
                if !tx.queue.is_empty() {
                    break;
                }
                tx = link.wake.wait_timeout(tx, PARK_BACKSTOP).0;
            }
            if inner.coalesce.load(Ordering::Relaxed) {
                std::mem::swap(&mut pending, &mut tx.queue);
                pending_frames = tx.frames;
                tx.frames = 0;
            } else {
                // Baseline (pre-batching) mode: one frame per write.
                let take = {
                    let (_, rest) = split_next_body(&tx.queue);
                    tx.queue.len() - rest.len()
                };
                pending.extend_from_slice(&tx.queue[..take]);
                tx.queue.drain(..take);
                tx.frames -= 1;
                pending_frames = 1;
            }
        }

        // Seal and write the batch; redial once on failure.
        let mut attempt = 0;
        loop {
            attempt += 1;
            if attempt > 2 {
                inner
                    .stats
                    .messages_dropped
                    .fetch_add(pending_frames, Ordering::Relaxed);
                break;
            }
            if conn
                .as_ref()
                .is_some_and(|c| c.dead.load(Ordering::Acquire))
            {
                conn = None;
            }
            let c = match &mut conn {
                Some(c) => c,
                None => match inner.connect(&link.peer) {
                    Ok(c) => conn.insert(c),
                    Err(_) => continue,
                },
            };
            out.clear();
            let mut rest: &[u8] = &pending;
            while !rest.is_empty() {
                let (body, tail) = split_next_body(rest);
                write_varint(&mut out, c.chan.sealed_len(body.len()) as u64);
                c.chan.seal_into(body, &mut out);
                rest = tail;
            }
            inner.count_write_batch(pending_frames);
            match c.stream.write_all(&out) {
                Ok(()) => {
                    inner.report_write_batch(pending_frames);
                    break;
                }
                Err(_) => {
                    inner.uncount_write_batch(pending_frames);
                    // The plaintext batch is still in `pending`: a
                    // redial re-seals it on the fresh channel (sealed
                    // bytes cannot cross sessions).
                    c.dead.store(true, Ordering::Release);
                    c.stream.shutdown();
                    conn = None;
                }
            }
        }
        pending.clear();
        pending_frames = 0;
    }
}

/// Reads frames from `stream`, opens them on the receive half of the
/// channel, and routes the decoded channel frames. Exits on EOF,
/// stream error, framing error, or channel error (once a stream
/// misbehaves its sequence integrity is gone — the dialer reconnects).
fn reader_loop(
    inner: Arc<SockInner>,
    mut stream: Stream,
    mut chan: SecureChannel,
    dead: Option<Arc<AtomicBool>>,
) {
    // All three buffers are grow-only and reused across frames: the
    // receive path allocates nothing per frame until the decoded
    // `ChannelFrame` itself (whose payload the Delivery must own).
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 64 * 1024];
    let mut plain: Vec<u8> = Vec::new();
    'conn: loop {
        if inner.stop.load(Ordering::Acquire) {
            break;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        fb.extend(&buf[..n]);
        loop {
            match fb.next_frame_ref() {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    plain.clear();
                    match chan.open_into(frame, &mut plain) {
                        Ok(()) => match ChannelFrame::from_bytes(&plain) {
                            Ok(cf) => inner.route(cf),
                            Err(e) => inner.reject_frame(&format!(
                                "undecodable channel frame from {}: {e}",
                                chan.peer()
                            )),
                        },
                        Err(e) => {
                            inner.reject_frame(&format!("channel error from {}: {e}", chan.peer()));
                            break 'conn;
                        }
                    }
                }
                Err(e) => {
                    inner.reject_frame(&format!("bad framing from {}: {e}", chan.peer()));
                    break 'conn;
                }
            }
        }
    }
    stream.shutdown();
    if let Some(dead) = dead {
        // Tell the peer's writer its connection is gone; the next batch
        // redials instead of writing into a dead socket.
        dead.store(true, Ordering::Release);
    }
}

/// The inbound side of an accepted connection: respond to the
/// handshake, then read frames until the peer goes away. Handshake
/// failures are rejected (journaled via the hook) and the stream is
/// closed — an unauthenticated peer never reaches the frame loop.
fn inbound_loop(inner: Arc<SockInner>, mut stream: Stream) {
    let hello = match read_one_frame(&inner, &mut stream, HANDSHAKE_TIMEOUT) {
        Ok(h) => h,
        Err(e) => {
            inner.reject_frame(&format!("inbound handshake never arrived: {e}"));
            stream.shutdown();
            return;
        }
    };
    let now = inner.touch_clock();
    let respond = {
        let mut rng = inner.rng.lock();
        SecureChannel::respond(&inner.identity, &inner.roots, &hello, now, &mut rng)
    };
    let (ack, chan) = match respond {
        Ok(x) => x,
        Err(e) => {
            inner.reject_frame(&format!("inbound handshake rejected: {e}"));
            stream.shutdown();
            return;
        }
    };
    if stream.write_all(&encode_frame(&ack)).is_err() {
        stream.shutdown();
        return;
    }
    // Inbound connections are receive-only: replies dial back through
    // the route table, so no send half is kept.
    let (_send_half, recv_half) = chan.split();
    reader_loop(inner, stream, recv_half, None);
}

fn accept_loop(inner: Arc<SockInner>, listener: Listener) {
    while !inner.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(Some(stream)) => {
                let _ = stream.set_read_timeout(Some(READ_POLL));
                if inner.stop.load(Ordering::Acquire) {
                    stream.shutdown();
                    break;
                }
                let conn_inner = Arc::clone(&inner);
                let handle = std::thread::Builder::new()
                    .name("ajanta-conn".into())
                    .spawn(move || inbound_loop(conn_inner, stream))
                    .expect("spawn inbound thread");
                inner.track_thread(handle);
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => break,
        }
    }
}

/// Reads exactly one frame (handshake phase), bounded by `timeout` and
/// by transport shutdown (the read timeout doubles as the stop poll).
fn read_one_frame(
    inner: &SockInner,
    stream: &mut Stream,
    timeout: Duration,
) -> std::io::Result<Vec<u8>> {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let deadline = std::time::Instant::now() + timeout;
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = fb
            .next_frame()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
        {
            return Ok(frame);
        }
        if inner.stop.load(Ordering::Acquire) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "transport shut down",
            ));
        }
        if std::time::Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "handshake timed out",
            ));
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed during handshake",
                ))
            }
            Ok(n) => fb.extend(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

/// A [`Transport`] over real TCP or Unix-domain sockets.
///
/// Bind one per process (or per server identity), register peer
/// listening addresses with [`SocketTransport::add_route`], then hand
/// it to the runtime as `Arc<dyn Transport>`. Sends enqueue on a
/// per-peer outbound lane; the lane's writer thread dials lazily on
/// the first batch, coalesces queued frames into single writes, and
/// redials once per batch when a write fails (reconnect-on-drop),
/// re-sealing the still-plaintext batch on the fresh session. A batch
/// that cannot be written counts as dropped — exactly a lost
/// datagram, which the runtime's retry layer already recovers.
pub struct SocketTransport {
    inner: Arc<SockInner>,
}

impl SocketTransport {
    /// Binds a listener on `addr` (`tcp:127.0.0.1:0` picks an
    /// ephemeral port; a `uds:` path must not exist yet) and starts
    /// the accept and clock-ticker threads.
    pub fn bind(addr: &NetAddr, config: SocketConfig) -> std::io::Result<SocketTransport> {
        let (listener, local) = Listener::bind(addr)?;
        let kind = match local {
            NetAddr::Tcp(_) => TransportKind::Tcp,
            NetAddr::Uds(_) => TransportKind::Uds,
        };
        let clock = VClock::new();
        let wall = WallAnchor::new();
        clock.advance_to(wall.now_ns());
        let inner = Arc::new(SockInner {
            kind,
            clock,
            wall,
            identity: config.identity,
            roots: config.roots,
            rng: Mutex::new(DetRng::new(config.seed)),
            local,
            endpoints: Mutex::new(BTreeMap::new()),
            routes: Mutex::new(BTreeMap::new()),
            links: Mutex::new(BTreeMap::new()),
            conns: Mutex::new(BTreeMap::new()),
            adversary: Mutex::new(None),
            stats: TransportStats::default(),
            reject: Mutex::new(None),
            write_hook: Mutex::new(None),
            coalesce: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            activity: AtomicU64::new(0),
            ticker_parked: AtomicBool::new(false),
            tick_lock: Mutex::new(()),
            tick_cv: Condvar::new(),
            threads: Mutex::new(Vec::new()),
        });

        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("ajanta-accept".into())
            .spawn(move || accept_loop(accept_inner, listener))
            .expect("spawn accept thread");
        let tick_inner = Arc::clone(&inner);
        let ticker = std::thread::Builder::new()
            .name("ajanta-clock".into())
            .spawn(move || {
                // Tick the clock forward while traffic flows; park when
                // the activity counter stops moving (every send/receive
                // advances the clock itself, so an idle transport needs
                // no ticking — and no 1 ms wakeups).
                let mut last = u64::MAX;
                while !tick_inner.stop.load(Ordering::Acquire) {
                    let seen = tick_inner.activity.load(Ordering::Acquire);
                    if seen == last {
                        tick_inner.ticker_parked.store(true, Ordering::Release);
                        let guard = tick_inner.tick_lock.lock();
                        if tick_inner.activity.load(Ordering::Acquire) == last
                            && !tick_inner.stop.load(Ordering::Acquire)
                        {
                            let _ = tick_inner.tick_cv.wait_timeout(guard, PARK_BACKSTOP);
                        }
                        tick_inner.ticker_parked.store(false, Ordering::Release);
                        continue;
                    }
                    last = seen;
                    tick_inner.clock.advance_to(tick_inner.wall.now_ns());
                    std::thread::sleep(TICK);
                }
            })
            .expect("spawn ticker thread");
        {
            let mut threads = inner.threads.lock();
            threads.extend([accept, ticker]);
        }
        Ok(SocketTransport { inner })
    }

    /// The address the listener actually bound (resolves ephemeral
    /// ports) — what peers must `add_route` to reach this transport.
    pub fn local_addr(&self) -> NetAddr {
        self.inner.local.clone()
    }

    /// Registers where `peer` (a peer transport's identity name, i.e.
    /// its server URN) listens. Sends to that name dial this address.
    pub fn add_route(&self, peer: Urn, addr: NetAddr) {
        self.inner.routes.lock().insert(peer, addr);
    }

    /// Drops every cached connection; subsequent sends redial. Useful
    /// when peers are known to have restarted.
    pub fn drop_connections(&self) {
        let conns = std::mem::take(&mut *self.inner.conns.lock());
        for conn in conns.values() {
            conn.dead.store(true, Ordering::Release);
            conn.raw.shutdown();
        }
    }

    /// Enables or disables write coalescing. With `false`, each writer
    /// drains one frame per stream write — the pre-batching wire path —
    /// which is what the X18 bench measures the data plane against.
    /// Defaults to enabled.
    pub fn set_coalescing(&self, enabled: bool) {
        self.inner.coalesce.store(enabled, Ordering::Relaxed);
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        Transport::shutdown(self);
    }
}

impl Transport for SocketTransport {
    fn kind(&self) -> TransportKind {
        self.inner.kind
    }

    fn clock(&self) -> &VClock {
        &self.inner.clock
    }

    fn attach(&self, name: Urn) -> Result<Box<dyn NetEndpoint>, NetError> {
        let (tx, rx) = unbounded();
        let mut eps = self.inner.endpoints.lock();
        if eps.contains_key(&name) {
            return Err(NetError::NameInUse(name));
        }
        eps.insert(name.clone(), tx);
        Ok(Box::new(SocketEndpoint {
            name,
            inner: Arc::clone(&self.inner),
            rx,
        }))
    }

    fn detach(&self, name: &Urn) {
        self.inner.endpoints.lock().remove(name);
    }

    fn send_as(&self, from: &Urn, to: &Urn, payload: Vec<u8>) -> Result<(), NetError> {
        self.inner.send_as(from, to, payload)
    }

    fn stats(&self) -> NetStats {
        self.inner.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.inner.stats.reset();
    }

    fn set_adversary(&self, adversary: Option<Arc<dyn Adversary>>) {
        *self.inner.adversary.lock() = adversary;
    }

    fn on_frame_reject(&self, hook: FrameRejectHook) {
        *self.inner.reject.lock() = Some(hook);
    }

    fn on_write_batch(&self, hook: WriteBatchHook) {
        *self.inner.write_hook.lock() = Some(hook);
    }

    fn shutdown(&self) {
        if self.inner.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unpark the ticker and every lane writer so they observe the
        // stop flag now instead of at their next backstop timeout.
        {
            let _guard = self.inner.tick_lock.lock();
            self.inner.tick_cv.notify_all();
        }
        for link in self.inner.links.lock().values() {
            let _guard = link.tx.lock();
            link.wake.notify_all();
        }
        self.drop_connections();
        loop {
            // Threads can spawn threads (accept → inbound), so drain
            // until the list is empty.
            let handles: Vec<_> = self.inner.threads.lock().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

/// An endpoint attached to a [`SocketTransport`].
struct SocketEndpoint {
    name: Urn,
    inner: Arc<SockInner>,
    rx: Receiver<Delivery>,
}

impl NetEndpoint for SocketEndpoint {
    fn name(&self) -> &Urn {
        &self.name
    }

    fn send(&self, to: &Urn, payload: Vec<u8>) -> Result<(), NetError> {
        self.inner.send_as(&self.name, to, payload)
    }

    fn receiver(&self) -> &Receiver<Delivery> {
        &self.rx
    }

    fn recv(&self) -> Result<Delivery, NetError> {
        let d = self.rx.recv().map_err(|_| NetError::Disconnected)?;
        self.inner.clock.advance_to(d.arrival_ns);
        Ok(d)
    }

    fn try_recv(&self) -> Result<Delivery, NetError> {
        match self.rx.try_recv() {
            Ok(d) => {
                self.inner.clock.advance_to(d.arrival_ns);
                Ok(d)
            }
            Err(TryRecvError::Empty) => Err(NetError::Empty),
            Err(TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Delivery, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(d) => {
                self.inner.clock.advance_to(d.arrival_ns);
                Ok(d)
            }
            Err(_) => Err(NetError::Empty),
        }
    }
}

impl Drop for SocketEndpoint {
    fn drop(&mut self) {
        self.inner.endpoints.lock().remove(&self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajanta_crypto::cert::Certificate;
    use ajanta_crypto::KeyPair;

    fn identity(name: &Urn, ca: &KeyPair, rng: &mut DetRng, serial: u64) -> ChannelIdentity {
        let keys = KeyPair::generate(rng);
        let cert = Certificate::issue(
            name.to_string(),
            keys.public,
            "ca",
            ca,
            u64::MAX,
            serial,
            rng,
        );
        ChannelIdentity {
            name: name.clone(),
            keys,
            chain: vec![cert],
        }
    }

    /// Connection churn must not grow the thread-handle list without
    /// bound: finished reader/inbound handles are reaped whenever a new
    /// thread is tracked.
    #[test]
    fn thread_handles_are_reaped_under_connection_churn() {
        let mut rng = DetRng::new(41);
        let ca = KeyPair::generate(&mut rng);
        let mut roots = RootOfTrust::new();
        roots.trust("ca", ca.public);
        let a_name = Urn::server("churn-a.test", ["s"]).unwrap();
        let b_name = Urn::server("churn-b.test", ["s"]).unwrap();
        let addr: NetAddr = "tcp:127.0.0.1:0".parse().unwrap();
        let bind = |name: &Urn, rng: &mut DetRng, serial| {
            let id = identity(name, &ca, rng, serial);
            let seed = rng.next_u64();
            SocketTransport::bind(
                &addr,
                SocketConfig {
                    identity: id,
                    roots: roots.clone(),
                    seed,
                },
            )
            .expect("bind")
        };
        let ta = bind(&a_name, &mut rng, 1);
        let tb = bind(&b_name, &mut rng, 2);
        ta.add_route(b_name.clone(), tb.local_addr());
        let ea = ta.attach(a_name.clone()).unwrap();
        let eb = tb.attach(b_name.clone()).unwrap();

        let cycles: usize = 16;
        for i in 0..cycles {
            ea.send(&b_name, vec![i as u8]).unwrap();
            // Wait until the frame arrives so the connection is up...
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                match eb.recv_timeout(Duration::from_millis(200)) {
                    Ok(_) => break,
                    Err(_) => {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "cycle {i} never delivered"
                        );
                        // Writer may have hit a racing dead connection;
                        // datagram semantics allow the loss — resend.
                        ea.send(&b_name, vec![i as u8]).unwrap();
                    }
                }
            }
            // ...then kill it, stranding one reader thread per side.
            ta.drop_connections();
        }
        // Let the stranded readers notice their sockets died.
        std::thread::sleep(Duration::from_millis(300));
        // One more dial makes track_thread reap everything finished.
        ea.send(&b_name, vec![0xFF]).unwrap();
        let _ = eb.recv_timeout(Duration::from_secs(10));

        let tracked = ta.inner.threads.lock().len();
        assert!(
            tracked < cycles,
            "thread list grew with churn: {tracked} handles after {cycles} cycles"
        );
        ta.shutdown();
        tb.shutdown();
    }

    /// The regression the anchor exists for: before it, every
    /// `touch_clock` resampled `SystemTime`, so an NTP step backwards
    /// pinned the transport clock (`advance_to` is monotone) for the
    /// whole regression window — frames all stamped identically, hop
    /// latencies zero, outbound datagrams aging toward the peer's
    /// replay horizon. The anchored clock takes one wall sample and
    /// extends it monotonically, so a post-bind step in either
    /// direction is invisible.
    #[test]
    fn transport_clock_survives_backwards_wall_step() {
        // Bind-time wall reading: T0 = 10 s after the epoch.
        let t0 = 10 * crate::time::SECONDS;
        let anchor = WallAnchor::at(t0);
        let clock = VClock::new();
        clock.advance_to(anchor.now_ns());
        let at_bind = clock.now();
        assert!(at_bind >= t0);

        // NTP now steps the wall back 5 s. A resampling implementation
        // would feed this into advance_to and pin the clock until the
        // wall catches back up.
        let stepped_wall = t0 - 5 * crate::time::SECONDS;
        clock.advance_to(stepped_wall); // monotone: pins, never regresses
        assert_eq!(clock.now(), at_bind, "advance_to must never go back");

        // The anchored clock keeps moving through the regression window.
        std::thread::sleep(Duration::from_millis(5));
        let after = clock.advance_to(anchor.now_ns());
        assert!(
            after > at_bind,
            "anchored transport clock froze across a wall regression"
        );
        // And it stays on the bind-time epoch, not the stepped one.
        assert!(after > stepped_wall + 4 * crate::time::SECONDS);
    }

    /// Two samples of the same anchor never run backwards, regardless
    /// of what `SystemTime` does in between (it is never re-read).
    #[test]
    fn wall_anchor_is_monotone() {
        let anchor = WallAnchor::new();
        let mut last = anchor.now_ns();
        for _ in 0..1000 {
            let next = anchor.now_ns();
            assert!(next >= last);
            last = next;
        }
    }
}
