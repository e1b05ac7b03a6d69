//! Pluggable message transports.
//!
//! All displaydb protocols (client↔server, client↔DLM) speak through the
//! [`Channel`] trait, so the same server code runs over:
//!
//! * [`TcpChannel`] — real sockets, proving the system is a genuine
//!   networked client-server DBMS like the paper's ObjectStore deployment;
//! * [`local_pair`] — an in-process pair over crossbeam channels, used by
//!   unit tests and overhead benchmarks where network cost must be zero;
//! * [`sim_pair`] — an in-process pair that injects a configurable one-way
//!   delay per message. The propagation experiment (paper § 4.3: 1–2 s
//!   commit-to-screen latency, three messages on the refresh path) uses it
//!   to turn *message counts* into deterministic, measurable latency.
//!
//! ## Receiving over TCP: one read per frame, timeouts consume nothing
//!
//! A [`TcpChannel`]'s reader half owns a receive buffer
//! ([`crate::frame::FrameBuf`]). A receive first hands out a frame that
//! is already complete in the buffer; failing that, it `read`s as much as
//! the socket has — usually exactly one frame, sometimes several, which
//! then cost no system call of their own — and repeats until a frame is
//! whole. `SO_RCVTIMEO` is set only when the timeout asked for differs
//! from the one in force, so a reader that always calls `recv` (the
//! server's session threads, the client's reader thread) pays one `read`
//! per frame and nothing else.
//!
//! [`Channel::recv_timeout`] returning [`DbError::Timeout`] never
//! consumes bytes: whatever part of a frame had arrived stays in the
//! buffer and the next receive completes it. Pollers that time out as a
//! matter of course ([`FaultyChannel`], the DLM agent's `Ready` wait)
//! depend on this — a timeout that dropped half a frame would leave every
//! later frame parsed from the wrong offset. The timeout bounds each wait
//! for more bytes, not the whole frame.

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use displaydb_common::sync::{ranks, OrderedMutex};
use displaydb_common::{DbError, DbResult};
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::frame::{read_frame, write_frame, FrameBuf};

/// A bidirectional, message-oriented, thread-safe byte channel.
///
/// `send` may be called concurrently from many threads; `recv` is intended
/// for a single demultiplexing reader thread (concurrent `recv` is safe but
/// messages are distributed arbitrarily).
pub trait Channel: Send + Sync {
    /// Send one message. Never blocks on the peer's processing (only on
    /// local socket buffers for TCP).
    fn send(&self, payload: Bytes) -> DbResult<()>;

    /// Whether a `send` now may wait for more than a local copy: behind
    /// another thread's frame, or on an injected delay. Best effort — a
    /// full TCP buffer with no other sender is not seen. The default, for
    /// an unbounded in-process queue, is `false`.
    fn congested(&self) -> bool {
        false
    }

    /// Block until a message arrives, the peer disconnects
    /// ([`DbError::Disconnected`]) or the channel is closed.
    fn recv(&self) -> DbResult<Bytes>;

    /// Like [`Channel::recv`] with a deadline; [`DbError::Timeout`] on
    /// expiry.
    fn recv_timeout(&self, timeout: Duration) -> DbResult<Bytes>;

    /// Shut the channel down; pending and future `recv` calls fail with
    /// [`DbError::Disconnected`].
    fn close(&self);
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// A [`Channel`] over a TCP stream with length-prefixed frames.
pub struct TcpChannel {
    reader: OrderedMutex<TcpReader>,
    writer: OrderedMutex<BufWriter<TcpStream>>,
    /// Separate handle to the same socket, so `close()` can shut it down
    /// without taking `reader` — which a blocked `recv()` holds.
    shutdown: TcpStream,
}

/// The receiving half of a [`TcpChannel`], owned by whoever holds the
/// `wire.reader` latch.
struct TcpReader {
    stream: TcpStream,
    /// Bytes read off `stream` and not yet handed out as frames.
    pending: FrameBuf,
    /// The receive timeout `stream` is set to right now.
    timeout: Option<Duration>,
}

impl TcpChannel {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> DbResult<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wrap an accepted stream.
    pub fn from_stream(stream: TcpStream) -> DbResult<Self> {
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        let shutdown = stream.try_clone()?;
        Ok(Self {
            reader: OrderedMutex::new(
                ranks::WIRE_READER,
                TcpReader {
                    stream,
                    pending: FrameBuf::new(),
                    // A fresh socket blocks without limit.
                    timeout: None,
                },
            ),
            writer: OrderedMutex::new(ranks::WIRE_WRITER, writer),
            shutdown,
        })
    }

    /// Local socket address.
    pub fn local_addr(&self) -> DbResult<SocketAddr> {
        Ok(self.shutdown.local_addr()?)
    }

    /// The next frame, waiting at most `timeout` (forever on `None`) for
    /// each read it takes (module doc: receiving over TCP).
    fn recv_within(&self, timeout: Option<Duration>) -> DbResult<Bytes> {
        let mut guard = self.reader.lock();
        let r = &mut *guard;
        if r.timeout != timeout {
            r.stream.set_read_timeout(timeout)?;
            r.timeout = timeout;
        }
        match read_frame(&mut r.stream, &mut r.pending) {
            Err(DbError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(DbError::Timeout("tcp recv".into()))
            }
            other => other,
        }
    }
}

impl Channel for TcpChannel {
    fn send(&self, payload: Bytes) -> DbResult<()> {
        let mut w = self.writer.lock();
        write_frame(&mut *w, &payload)
    }

    fn congested(&self) -> bool {
        self.writer.try_lock().is_none()
    }

    fn recv(&self) -> DbResult<Bytes> {
        self.recv_within(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> DbResult<Bytes> {
        self.recv_within(Some(timeout))
    }

    fn close(&self) {
        let _ = self.shutdown.shutdown(std::net::Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// In-process channels
// ---------------------------------------------------------------------------

/// One endpoint of an in-process channel pair.
pub struct LocalChannel {
    tx: OrderedMutex<Option<Sender<Msg>>>,
    rx: Receiver<Msg>,
    /// One-way latency applied to *sent* messages (zero for plain pairs).
    latency: Option<SimNetConfig>,
}

struct Msg {
    deliver_at: Instant,
    payload: Bytes,
}

/// Latency model for the simulated network.
#[derive(Clone, Copy, Debug)]
pub struct SimNetConfig {
    /// Fixed one-way delay applied to every message.
    pub one_way: Duration,
}

impl SimNetConfig {
    /// A network with the given fixed one-way latency.
    pub fn with_latency(one_way: Duration) -> Self {
        Self { one_way }
    }
}

fn channel_endpoints(latency: Option<SimNetConfig>) -> (LocalChannel, LocalChannel) {
    let (tx_a, rx_b) = unbounded::<Msg>();
    let (tx_b, rx_a) = unbounded::<Msg>();
    (
        LocalChannel {
            tx: OrderedMutex::new(ranks::WIRE_LOCAL_TX, Some(tx_a)),
            rx: rx_a,
            latency,
        },
        LocalChannel {
            tx: OrderedMutex::new(ranks::WIRE_LOCAL_TX, Some(tx_b)),
            rx: rx_b,
            latency,
        },
    )
}

/// Create a connected pair of zero-latency in-process channels.
pub fn local_pair() -> (LocalChannel, LocalChannel) {
    channel_endpoints(None)
}

/// Create a connected pair of latency-simulated channels.
pub fn sim_pair(config: SimNetConfig) -> (LocalChannel, LocalChannel) {
    channel_endpoints(Some(config))
}

impl LocalChannel {
    fn deliver_at(&self) -> Instant {
        match self.latency {
            Some(cfg) => Instant::now() + cfg.one_way,
            None => Instant::now(),
        }
    }

    fn finish_recv(msg: Msg) -> Bytes {
        let now = Instant::now();
        if msg.deliver_at > now {
            std::thread::sleep(msg.deliver_at - now);
        }
        msg.payload
    }
}

impl Channel for LocalChannel {
    fn send(&self, payload: Bytes) -> DbResult<()> {
        let guard = self.tx.lock();
        let tx = guard.as_ref().ok_or(DbError::Disconnected)?;
        tx.send(Msg {
            deliver_at: self.deliver_at(),
            payload,
        })
        .map_err(|_| DbError::Disconnected)
    }

    fn recv(&self) -> DbResult<Bytes> {
        self.rx
            .recv()
            .map(Self::finish_recv)
            .map_err(|_| DbError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> DbResult<Bytes> {
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => Ok(Self::finish_recv(msg)),
            Err(RecvTimeoutError::Timeout) => Err(DbError::Timeout("local recv".into())),
            Err(RecvTimeoutError::Disconnected) => Err(DbError::Disconnected),
        }
    }

    fn close(&self) {
        self.tx.lock().take();
        // Drain anything already queued so a blocked peer recv fails fast
        // once our sender is dropped. (Receiver side disconnect happens when
        // the peer's sender to us is dropped; closing is symmetric when both
        // ends close.)
        while self.rx.try_recv().is_ok() {}
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Scripted fault state shared by one or more [`FaultyChannel`]s.
///
/// A plan is the test's remote control for a connection: it can delay
/// every send to model a slow consumer or congested link, open and heal
/// partition windows (frames silently discarded in both directions), or
/// kill the channel on demand. All methods are safe to call from the test
/// thread while the channel is in active use.
#[derive(Debug)]
pub struct FaultPlan {
    /// Delay applied to every sent frame, in microseconds (0 = none). The
    /// *sender* sleeps: this models a consumer whose inbound path has
    /// slowed down, which is exactly what server-side outbox backpressure
    /// must absorb.
    delay_micros: std::sync::atomic::AtomicU64,
    /// While set, frames are silently discarded in both directions.
    partitioned: std::sync::atomic::AtomicBool,
    /// Once set, the channel behaves as closed forever.
    killed: std::sync::atomic::AtomicBool,
    /// Total send attempts observed.
    sends: std::sync::atomic::AtomicU64,
    /// Frames silently discarded by a partition.
    dropped: std::sync::atomic::AtomicU64,
    /// Frames that were delay-injected.
    delayed: std::sync::atomic::AtomicU64,
    /// Inner channels to close on kill.
    channels: OrderedMutex<Vec<std::sync::Weak<dyn Channel>>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// A plan with no faults armed.
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        Self {
            delay_micros: AtomicU64::new(0),
            partitioned: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            sends: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            channels: OrderedMutex::new(ranks::WIRE_HUB, Vec::new()),
        }
    }

    /// Delay every sent frame by sleeping `delay` *in the sender*: the
    /// injected latency consumes sender-side throughput exactly like a
    /// congested link or a consumer that stopped draining its socket.
    pub fn set_delay(&self, delay: Duration) {
        self.delay_micros.store(
            delay.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// Disarm delay injection.
    pub fn clear_delay(&self) {
        self.delay_micros.store(0, Ordering::Relaxed);
    }

    /// Frames delay-injected so far.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Open a partition window: frames vanish in both directions but the
    /// channel stays "up" (no disconnect observed by either side).
    pub fn partition(&self) {
        self.partitioned
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Heal the partition window.
    pub fn heal(&self) {
        self.partitioned
            .store(false, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether a partition window is open.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Kill the channel now: mark it dead and close every wrapped inner
    /// channel so blocked peers observe the disconnect.
    pub fn kill_now(&self) {
        self.killed
            .store(true, std::sync::atomic::Ordering::Relaxed);
        // Upgrade under the registry lock, close outside it: a channel's
        // close() takes its own (lower-ranked) lock and may touch the OS
        // socket, neither of which belongs under the registry guard.
        let live: Vec<_> = self
            .channels
            .lock()
            .iter()
            .filter_map(std::sync::Weak::upgrade)
            .collect();
        for ch in live {
            ch.close();
        }
    }

    /// Whether the channel has been killed.
    pub fn is_killed(&self) -> bool {
        self.killed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total send attempts observed so far.
    pub fn sends(&self) -> u64 {
        self.sends.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Frames silently discarded by a partition so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn register(&self, ch: std::sync::Weak<dyn Channel>) {
        self.channels.lock().push(ch);
    }

    /// How long this frame's send should stall, if a delay is armed.
    fn send_delay(&self) -> Option<Duration> {
        let micros = self.delay_micros.load(Ordering::Relaxed);
        (micros > 0).then(|| Duration::from_micros(micros))
    }

    fn note_dropped(&self) {
        self.dropped
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// A [`Channel`] decorator that injects faults according to a shared
/// [`FaultPlan`].
///
/// `recv` is implemented as a short polling loop over the inner channel so
/// that [`FaultPlan::kill_now`] unblocks a parked reader within one poll
/// interval even if the inner transport cannot be interrupted.
pub struct FaultyChannel {
    inner: Arc<dyn Channel>,
    plan: Arc<FaultPlan>,
}

/// Poll grain for interruptible receive.
const FAULT_POLL: Duration = Duration::from_millis(20);

impl FaultyChannel {
    /// Wrap `inner`, attaching it to `plan` (killing the plan closes it).
    pub fn wrap(inner: Box<dyn Channel>, plan: Arc<FaultPlan>) -> Self {
        let inner: Arc<dyn Channel> = Arc::from(inner);
        plan.register(Arc::downgrade(&inner));
        Self { inner, plan }
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl Channel for FaultyChannel {
    fn send(&self, payload: Bytes) -> DbResult<()> {
        if self.plan.is_killed() {
            return Err(DbError::Disconnected);
        }
        self.plan.sends.fetch_add(1, Ordering::Relaxed);
        if self.plan.is_partitioned() {
            // The frame vanishes on the wire; the sender cannot tell.
            self.plan.note_dropped();
            return Ok(());
        }
        if let Some(delay) = self.plan.send_delay() {
            // Stall the *sender*: injected latency eats the calling
            // thread's throughput, which is what makes a per-client
            // writer thread (vs. in-line fan-out sends) observable.
            self.plan
                .delayed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(delay);
        }
        self.inner.send(payload)
    }

    fn congested(&self) -> bool {
        self.plan.send_delay().is_some() || self.inner.congested()
    }

    fn recv(&self) -> DbResult<Bytes> {
        loop {
            if self.plan.is_killed() {
                return Err(DbError::Disconnected);
            }
            match self.inner.recv_timeout(FAULT_POLL) {
                Ok(frame) => {
                    if self.plan.is_partitioned() {
                        self.plan.note_dropped();
                        continue; // lost on the wire
                    }
                    return Ok(frame);
                }
                Err(DbError::Timeout(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> DbResult<Bytes> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.plan.is_killed() {
                return Err(DbError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(DbError::Timeout("faulty recv".into()));
            }
            let step = FAULT_POLL.min(deadline - now);
            match self.inner.recv_timeout(step) {
                Ok(frame) => {
                    if self.plan.is_partitioned() {
                        self.plan.note_dropped();
                        continue;
                    }
                    return Ok(frame);
                }
                Err(DbError::Timeout(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// A [`Listener`] decorator that wraps every *accepted* channel in a
/// [`FaultyChannel`] sharing one [`FaultPlan`].
///
/// This is the server-side counterpart of wrapping a client's outbound
/// channel: faults injected here hit the server's sends to that client
/// (notification pushes, responses), which is where slow-consumer
/// isolation must hold. All connections accepted through one listener
/// share the plan, so give each simulated client population its own
/// listener.
pub struct FaultyListener {
    inner: Box<dyn Listener>,
    plan: Arc<FaultPlan>,
}

impl FaultyListener {
    /// Wrap `inner`; every accepted channel joins `plan`.
    pub fn wrap(inner: Box<dyn Listener>, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl Listener for FaultyListener {
    fn accept(&self) -> DbResult<Box<dyn Channel>> {
        let ch = self.inner.accept()?;
        Ok(Box::new(FaultyChannel::wrap(ch, Arc::clone(&self.plan))))
    }

    fn accept_timeout(&self, timeout: Duration) -> DbResult<Box<dyn Channel>> {
        let ch = self.inner.accept_timeout(timeout)?;
        Ok(Box::new(FaultyChannel::wrap(ch, Arc::clone(&self.plan))))
    }
}

// ---------------------------------------------------------------------------
// Listeners
// ---------------------------------------------------------------------------

/// Accepts inbound connections as boxed channels.
pub trait Listener: Send {
    /// Block until a connection arrives.
    fn accept(&self) -> DbResult<Box<dyn Channel>>;

    /// Like accept, with a deadline.
    fn accept_timeout(&self, timeout: Duration) -> DbResult<Box<dyn Channel>>;
}

/// TCP listener adapter.
pub struct TcpListenerWrapper {
    inner: std::net::TcpListener,
}

impl TcpListenerWrapper {
    /// Bind to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> DbResult<Self> {
        Ok(Self {
            inner: std::net::TcpListener::bind(addr)?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> DbResult<SocketAddr> {
        Ok(self.inner.local_addr()?)
    }
}

impl Listener for TcpListenerWrapper {
    fn accept(&self) -> DbResult<Box<dyn Channel>> {
        let (stream, _) = self.inner.accept()?;
        Ok(Box::new(TcpChannel::from_stream(stream)?))
    }

    fn accept_timeout(&self, timeout: Duration) -> DbResult<Box<dyn Channel>> {
        self.inner.set_nonblocking(false)?;
        // std TcpListener has no accept timeout; emulate with nonblocking
        // polling at a coarse grain. Good enough for orderly shutdown.
        let deadline = Instant::now() + timeout;
        self.inner.set_nonblocking(true)?;
        let result = loop {
            match self.inner.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    break Ok(Box::new(TcpChannel::from_stream(stream)?) as Box<dyn Channel>);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        break Err(DbError::Timeout("tcp accept".into()));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => break Err(e.into()),
            }
        };
        let _ = self.inner.set_nonblocking(false);
        result
    }
}

/// An in-process "network": clients call [`LocalHub::connect`], servers
/// accept the matching endpoints. Supports optional simulated latency for
/// every accepted connection.
#[derive(Clone)]
pub struct LocalHub {
    tx: Sender<LocalChannel>,
    rx: Receiver<LocalChannel>,
    latency: Option<SimNetConfig>,
}

impl LocalHub {
    /// Create a hub with no latency.
    pub fn new() -> Self {
        Self::with_config(None)
    }

    /// Create a hub whose connections simulate the given latency.
    pub fn with_latency(config: SimNetConfig) -> Self {
        Self::with_config(Some(config))
    }

    fn with_config(latency: Option<SimNetConfig>) -> Self {
        let (tx, rx) = bounded(1024);
        Self { tx, rx, latency }
    }

    /// Open a new connection; the peer endpoint is queued for `accept`.
    pub fn connect(&self) -> DbResult<LocalChannel> {
        let (client_end, server_end) = channel_endpoints(self.latency);
        self.tx
            .send(server_end)
            .map_err(|_| DbError::Disconnected)?;
        Ok(client_end)
    }
}

impl Default for LocalHub {
    fn default() -> Self {
        Self::new()
    }
}

impl Listener for LocalHub {
    fn accept(&self) -> DbResult<Box<dyn Channel>> {
        self.rx
            .recv()
            .map(|c| Box::new(c) as Box<dyn Channel>)
            .map_err(|_| DbError::Disconnected)
    }

    fn accept_timeout(&self, timeout: Duration) -> DbResult<Box<dyn Channel>> {
        match self.rx.recv_timeout(timeout) {
            Ok(c) => Ok(Box::new(c)),
            Err(RecvTimeoutError::Timeout) => Err(DbError::Timeout("local accept".into())),
            Err(RecvTimeoutError::Disconnected) => Err(DbError::Disconnected),
        }
    }
}

// ---------------------------------------------------------------------------
// Byte metering
// ---------------------------------------------------------------------------

/// Shared frame/byte counters for one or more [`MeteredChannel`]s.
///
/// The counters are plain atomics so a single meter can be shared across
/// every connection a client (or a whole fleet of clients) opens — the
/// R4 mass-reconnect experiment hangs one meter over all viewers and
/// reads the total recovery traffic off it.
#[derive(Debug, Default)]
pub struct WireMeter {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
}

impl WireMeter {
    /// A fresh meter with all counters at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Total payload bytes sent through metered channels.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total payload bytes received through metered channels.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Frames sent.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Frames received.
    pub fn frames_received(&self) -> u64 {
        self.frames_received.load(Ordering::Relaxed)
    }

    /// Bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent() + self.bytes_received()
    }

    /// Zero every counter (phase boundary: meter only what follows).
    pub fn reset(&self) {
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_received.store(0, Ordering::Relaxed);
        self.frames_sent.store(0, Ordering::Relaxed);
        self.frames_received.store(0, Ordering::Relaxed);
    }
}

/// A [`Channel`] wrapper that counts payload bytes and frames in both
/// directions on a shared [`WireMeter`]. Purely observational: frames
/// pass through untouched, errors propagate verbatim.
pub struct MeteredChannel {
    inner: Box<dyn Channel>,
    meter: Arc<WireMeter>,
}

impl MeteredChannel {
    /// Wrap `inner`, accounting its traffic on `meter`.
    pub fn wrap(inner: Box<dyn Channel>, meter: Arc<WireMeter>) -> Self {
        Self { inner, meter }
    }

    /// The shared meter.
    pub fn meter(&self) -> &Arc<WireMeter> {
        &self.meter
    }
}

impl Channel for MeteredChannel {
    fn send(&self, payload: Bytes) -> DbResult<()> {
        let len = payload.len() as u64;
        self.inner.send(payload)?;
        self.meter.bytes_sent.fetch_add(len, Ordering::Relaxed);
        self.meter.frames_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn congested(&self) -> bool {
        self.inner.congested()
    }

    fn recv(&self) -> DbResult<Bytes> {
        let frame = self.inner.recv()?;
        self.meter
            .bytes_received
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.meter.frames_received.fetch_add(1, Ordering::Relaxed);
        Ok(frame)
    }

    fn recv_timeout(&self, timeout: Duration) -> DbResult<Bytes> {
        let frame = self.inner.recv_timeout(timeout)?;
        self.meter
            .bytes_received
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.meter.frames_received.fetch_add(1, Ordering::Relaxed);
        Ok(frame)
    }

    fn close(&self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn local_pair_roundtrip() {
        let (a, z) = local_pair();
        a.send(b("ping")).unwrap();
        assert_eq!(z.recv().unwrap(), b("ping"));
        z.send(b("pong")).unwrap();
        assert_eq!(a.recv().unwrap(), b("pong"));
    }

    #[test]
    fn local_recv_timeout() {
        let (a, _z) = local_pair();
        let err = a.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, DbError::Timeout(_)));
    }

    #[test]
    fn local_close_disconnects_peer() {
        let (a, z) = local_pair();
        a.close();
        assert!(matches!(a.send(b("x")), Err(DbError::Disconnected)));
        // The peer's receiver observes disconnection once our sender drops.
        assert!(matches!(z.recv(), Err(DbError::Disconnected)));
    }

    #[test]
    fn sim_pair_delays_delivery() {
        let cfg = SimNetConfig::with_latency(Duration::from_millis(30));
        let (a, z) = sim_pair(cfg);
        let start = Instant::now();
        a.send(b("slow")).unwrap();
        assert_eq!(z.recv().unwrap(), b("slow"));
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(28),
            "message arrived too fast: {elapsed:?}"
        );
    }

    #[test]
    fn sim_latency_is_pipelined_not_serialized() {
        // Two messages sent back-to-back both arrive ~one latency later,
        // not 2x: the delay models wire time, not channel occupancy.
        let cfg = SimNetConfig::with_latency(Duration::from_millis(40));
        let (a, z) = sim_pair(cfg);
        let start = Instant::now();
        a.send(b("m1")).unwrap();
        a.send(b("m2")).unwrap();
        z.recv().unwrap();
        z.recv().unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(75),
            "not pipelined: {elapsed:?}"
        );
    }

    #[test]
    fn hub_connect_accept() {
        let hub = LocalHub::new();
        let client = hub.connect().unwrap();
        let server = hub.accept().unwrap();
        client.send(b("hello")).unwrap();
        assert_eq!(server.recv().unwrap(), b("hello"));
        server.send(b("welcome")).unwrap();
        assert_eq!(client.recv().unwrap(), b("welcome"));
    }

    #[test]
    fn hub_accept_timeout() {
        let hub = LocalHub::new();
        assert!(matches!(
            hub.accept_timeout(Duration::from_millis(10)),
            Err(DbError::Timeout(_))
        ));
    }

    #[test]
    fn faulty_passthrough_when_no_faults() {
        let (a, z) = local_pair();
        let plan = Arc::new(FaultPlan::new());
        let a = FaultyChannel::wrap(Box::new(a), Arc::clone(&plan));
        a.send(b("hi")).unwrap();
        assert_eq!(z.recv().unwrap(), b("hi"));
        z.send(b("yo")).unwrap();
        assert_eq!(a.recv().unwrap(), b("yo"));
        assert_eq!(plan.sends(), 1);
        assert_eq!(plan.dropped(), 0);
    }

    #[test]
    fn faulty_kill_now_unblocks_parked_reader() {
        let (a, _z) = local_pair();
        let plan = Arc::new(FaultPlan::new());
        let a = Arc::new(FaultyChannel::wrap(Box::new(a), Arc::clone(&plan)));
        let reader = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || a.recv())
        };
        std::thread::sleep(Duration::from_millis(30));
        plan.kill_now();
        let got = reader.join().unwrap();
        assert!(matches!(got, Err(DbError::Disconnected)));
    }

    #[test]
    fn faulty_partition_drops_both_directions_then_heals() {
        let (a, z) = local_pair();
        let plan = Arc::new(FaultPlan::new());
        let a = FaultyChannel::wrap(Box::new(a), Arc::clone(&plan));
        plan.partition();
        a.send(b("lost")).unwrap(); // silently dropped
        z.send(b("also lost")).unwrap();
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(60)),
            Err(DbError::Timeout(_))
        ));
        assert_eq!(plan.dropped(), 2);
        plan.heal();
        a.send(b("through")).unwrap();
        assert_eq!(z.recv().unwrap(), b("through"));
        z.send(b("back")).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(1)).unwrap(), b("back"));
    }

    #[test]
    fn faulty_delay_stalls_the_sender() {
        let (a, z) = local_pair();
        let plan = Arc::new(FaultPlan::new());
        plan.set_delay(Duration::from_millis(25));
        let a = FaultyChannel::wrap(Box::new(a), Arc::clone(&plan));
        let start = Instant::now();
        a.send(b("slow")).unwrap();
        let send_cost = start.elapsed();
        assert!(
            send_cost >= Duration::from_millis(20),
            "send returned too fast: {send_cost:?}"
        );
        assert_eq!(plan.delayed(), 1);
        assert_eq!(z.recv().unwrap(), b("slow"));

        plan.clear_delay();
        let start = Instant::now();
        a.send(b("fast")).unwrap();
        assert!(start.elapsed() < Duration::from_millis(20));
        assert_eq!(plan.delayed(), 1);
    }

    #[test]
    fn faulty_listener_wraps_accepted_channels() {
        let hub = LocalHub::new();
        let plan = Arc::new(FaultPlan::new());
        plan.set_delay(Duration::from_millis(25));
        let listener = FaultyListener::wrap(Box::new(hub.clone()), Arc::clone(&plan));

        let client = hub.connect().unwrap();
        let server_side = listener.accept().unwrap();

        // Server→client sends go through the plan...
        let start = Instant::now();
        server_side.send(b("notify")).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(client.recv().unwrap(), b("notify"));
        assert_eq!(plan.delayed(), 1);

        // ...while the client's own sends (a different, unwrapped
        // endpoint) do not.
        let start = Instant::now();
        client.send(b("request")).unwrap();
        assert!(start.elapsed() < Duration::from_millis(20));
        assert_eq!(server_side.recv().unwrap(), b("request"));
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpListenerWrapper::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let ch = listener.accept().unwrap();
            let msg = ch.recv().unwrap();
            ch.send(msg).unwrap(); // echo
            let big = ch.recv().unwrap();
            assert_eq!(big.len(), 100_000);
            ch.send(b("done")).unwrap();
        });
        let ch = TcpChannel::connect(addr).unwrap();
        ch.send(b("echo me")).unwrap();
        assert_eq!(ch.recv().unwrap(), b("echo me"));
        ch.send(Bytes::from(vec![0u8; 100_000])).unwrap();
        assert_eq!(ch.recv().unwrap(), b("done"));
        srv.join().unwrap();
    }

    #[test]
    fn tcp_recv_timeout_then_recovers() {
        let listener = TcpListenerWrapper::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let ch = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(50));
            ch.send(b("late")).unwrap();
        });
        let ch = TcpChannel::connect(addr).unwrap();
        assert!(matches!(
            ch.recv_timeout(Duration::from_millis(5)),
            Err(DbError::Timeout(_))
        ));
        assert_eq!(ch.recv_timeout(Duration::from_secs(5)).unwrap(), b("late"));
        srv.join().unwrap();
    }

    /// A connected pair: a raw stream to put arbitrary bytes on the wire
    /// with, and the channel that reads them.
    fn raw_tcp_pair() -> (TcpStream, TcpChannel) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (raw, TcpChannel::from_stream(accepted).unwrap())
    }

    /// The peer stalls half-way through a frame for longer than the
    /// receive timeout: the timed-out receive must not consume the half
    /// it saw, or every later frame is parsed from the wrong offset.
    fn timeout_mid_frame_keeps_the_stream_in_step(raw: &mut TcpStream, ch: &dyn Channel) {
        use std::io::Write;
        // As a misread length prefix these bytes exceed MAX_FRAME_LEN.
        let payload = [0xabu8; 64];
        raw.write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        raw.write_all(&payload[..32]).unwrap();
        assert!(matches!(
            ch.recv_timeout(3 * FAULT_POLL),
            Err(DbError::Timeout(_))
        ));
        raw.write_all(&payload[32..]).unwrap();
        write_frame(raw, b"following").unwrap();
        assert_eq!(
            ch.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            payload
        );
        assert_eq!(
            ch.recv_timeout(Duration::from_secs(5)).unwrap(),
            b("following")
        );
    }

    #[test]
    fn tcp_recv_timeout_mid_frame_does_not_desynchronise() {
        let (mut raw, ch) = raw_tcp_pair();
        timeout_mid_frame_keeps_the_stream_in_step(&mut raw, &ch);
    }

    #[test]
    fn faulty_poll_expiring_mid_frame_does_not_desynchronise() {
        // FaultyChannel polls its inner channel every FAULT_POLL, so any
        // frame that takes longer than that to arrive straddles a timeout.
        let (mut raw, ch) = raw_tcp_pair();
        let faulty = FaultyChannel::wrap(Box::new(ch), Arc::new(FaultPlan::new()));
        timeout_mid_frame_keeps_the_stream_in_step(&mut raw, &faulty);
    }

    #[test]
    fn tcp_eof_at_a_boundary_disconnects_and_mid_frame_is_corrupt() {
        use std::io::Write;
        let (mut raw, ch) = raw_tcp_pair();
        write_frame(&mut raw, b"last").unwrap();
        drop(raw);
        assert_eq!(ch.recv().unwrap(), b("last"));
        assert!(matches!(ch.recv(), Err(DbError::Disconnected)));

        let (mut raw, ch) = raw_tcp_pair();
        raw.write_all(&8u32.to_le_bytes()).unwrap();
        raw.write_all(b"half").unwrap();
        drop(raw);
        assert!(matches!(ch.recv(), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn concurrent_senders_do_not_interleave_frames() {
        let listener = TcpListenerWrapper::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let ch = listener.accept().unwrap();
            let mut seen = Vec::new();
            for _ in 0..40 {
                let msg = ch.recv().unwrap();
                // Each frame must be homogeneous: all bytes identical.
                assert!(msg.iter().all(|&x| x == msg[0]), "interleaved frame");
                seen.push(msg[0]);
            }
            seen
        });
        let ch = Arc::new(TcpChannel::connect(addr).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let ch = Arc::clone(&ch);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    ch.send(Bytes::from(vec![t; 1000])).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let seen = srv.join().unwrap();
        assert_eq!(seen.len(), 40);
    }
}
