//! The link scaffold both deployments share (paper fig. 3): an accept
//! loop that starts one session thread per accepted channel, and a
//! reader thread that hands every frame of one channel to a closure.
//! The server and the DLM agent accept through [`serve`]; the client's
//! server connection and its agent connection read through [`Reader`].
//!
//! A link's death is its reader's exit. The reader thread owns the only
//! sender of a death channel and never sends on it, so every receiver
//! [`Reader::died`] hands out disconnects when the thread ends — whether
//! it was taken before the death or after it.

use crate::transport::{Channel, Listener};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use displaydb_common::DbError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one accept waits before the loop looks at its stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(100);

/// Start an accept loop over `listener` on a thread named `names.0`. It
/// runs until `stop` is set or the listener fails. For each accepted
/// channel, `accept` runs on the accept thread and returns the channel's
/// session, which runs on a thread of its own named `names.1`. Once the
/// returned handle is joined, `accept` is not called again.
pub fn serve<S>(
    listener: Box<dyn Listener>,
    stop: Arc<AtomicBool>,
    names: (&str, &'static str),
    accept: impl Fn(Arc<dyn Channel>) -> S + Send + 'static,
) -> JoinHandle<()>
where
    S: FnOnce() + Send + 'static,
{
    let session_name = names.1;
    std::thread::Builder::new()
        .name(names.0.into())
        .spawn(move || {
            while !stop.load(Ordering::Acquire) {
                match listener.accept_timeout(ACCEPT_POLL) {
                    Ok(channel) => {
                        let session = accept(Arc::from(channel));
                        std::thread::Builder::new()
                            .name(session_name.into())
                            .spawn(session)
                            .expect("spawn session thread");
                    }
                    Err(DbError::Timeout(_)) => continue,
                    Err(_) => break,
                }
            }
        })
        .expect("spawn accept thread")
}

/// A thread receiving every frame of one channel. Dropping it closes the
/// channel and joins the thread.
pub struct Reader {
    channel: Arc<dyn Channel>,
    dead: Arc<AtomicBool>,
    died: Receiver<()>,
    thread: Option<JoinHandle<()>>,
}

impl Reader {
    /// Start a reader thread named `name` over `channel`. It hands each
    /// frame to `on_frame` until the channel fails or `on_frame` returns
    /// `false`; then it marks the link dead, runs `on_exit` and ends.
    pub fn spawn(
        channel: Arc<dyn Channel>,
        name: &str,
        mut on_frame: impl FnMut(Bytes) -> bool + Send + 'static,
        on_exit: impl FnOnce() + Send + 'static,
    ) -> Self {
        let dead = Arc::new(AtomicBool::new(false));
        let (alive, died) = crossbeam::channel::bounded::<()>(0);
        let thread = {
            let (channel, dead) = (Arc::clone(&channel), Arc::clone(&dead));
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    // Dropped when the thread ends, unwinding included.
                    let _alive = alive;
                    while let Ok(frame) = channel.recv() {
                        if !on_frame(frame) {
                            break;
                        }
                    }
                    dead.store(true, Ordering::Release);
                    on_exit();
                })
                .expect("spawn reader thread")
        };
        Self {
            channel,
            dead,
            died,
            thread: Some(thread),
        }
    }

    /// The channel this reader receives from (send on it freely).
    pub fn channel(&self) -> &Arc<dyn Channel> {
        &self.channel
    }

    /// Whether the reader has stopped receiving.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// A receiver that disconnects when the reader thread ends (at once,
    /// if it already has). Nothing is ever sent on it.
    pub fn died(&self) -> Receiver<()> {
        self.died.clone()
    }
}

impl Drop for Reader {
    fn drop(&mut self) {
        self.channel.close();
        // Dropped by its own thread (the last handle released inside a
        // frame closure), it must not join itself: that panics.
        match self.thread.take() {
            Some(thread) if thread.thread().id() != std::thread::current().id() => {
                let _ = thread.join();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{local_pair, LocalHub, TcpChannel, TcpListenerWrapper};
    use crossbeam::channel::{RecvTimeoutError, TryRecvError};

    /// A connected loopback TCP pair: closing either end ends both
    /// ends' receives (an in-process channel's own close does not end
    /// its own receive).
    fn tcp_pair() -> (TcpChannel, Box<dyn Channel>) {
        let listener = TcpListenerWrapper::bind("127.0.0.1:0").unwrap();
        let mine = TcpChannel::connect(listener.local_addr().unwrap()).unwrap();
        (mine, listener.accept().unwrap())
    }

    fn reader(channel: Arc<dyn Channel>) -> (Reader, Receiver<Bytes>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let reader = Reader::spawn(
            channel,
            "test-reader",
            move |frame| tx.send(frame).is_ok(),
            || {},
        );
        (reader, rx)
    }

    fn disconnects(died: &Receiver<()>) -> bool {
        died.recv_timeout(Duration::from_secs(10)) == Err(RecvTimeoutError::Disconnected)
    }

    #[test]
    fn died_disconnects_when_the_peer_closes() {
        let (mine, peer) = local_pair();
        let (reader, frames) = reader(Arc::new(mine));
        let died = reader.died();
        peer.send(Bytes::copy_from_slice(b"x")).unwrap();
        assert_eq!(frames.recv().unwrap(), Bytes::copy_from_slice(b"x"));
        assert!(!reader.is_dead());
        peer.close();
        assert!(disconnects(&died));
        assert!(reader.is_dead());
        // Taken after the death, it returns at once.
        assert_eq!(reader.died().try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn died_disconnects_when_our_end_closes() {
        let (mine, _peer) = tcp_pair();
        let (reader, _frames) = reader(Arc::new(mine));
        let died = reader.died();
        reader.channel().close();
        assert!(disconnects(&died));
        assert!(reader.is_dead());
    }

    #[test]
    fn on_exit_runs_before_died_disconnects() {
        let (mine, peer) = local_pair();
        let exited = Arc::new(AtomicBool::new(false));
        let reader = {
            let exited = Arc::clone(&exited);
            Reader::spawn(
                Arc::new(mine),
                "test-reader",
                |_| false,
                move || exited.store(true, Ordering::Release),
            )
        };
        let died = reader.died();
        // A frame the closure refuses ends the reader too.
        peer.send(Bytes::copy_from_slice(b"stop")).unwrap();
        assert!(disconnects(&died));
        assert!(exited.load(Ordering::Acquire));
    }

    #[test]
    fn a_dropped_reader_joins_its_thread() {
        let (mine, _peer) = tcp_pair();
        let (reader, frames) = reader(Arc::new(mine));
        let died = reader.died();
        drop(reader);
        // Joined: the thread is gone, and the closure with it.
        assert_eq!(died.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(frames.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn a_reader_dropped_by_its_own_thread_does_not_join_itself() {
        let (mine, peer) = local_pair();
        let slot: Arc<std::sync::Mutex<Option<Reader>>> = Arc::default();
        let (exited, exits) = crossbeam::channel::bounded(1);
        let reader = {
            let slot = Arc::clone(&slot);
            Reader::spawn(
                Arc::new(mine),
                "test-reader",
                move |_| {
                    drop(slot.lock().unwrap().take());
                    true
                },
                move || exited.send(()).unwrap(),
            )
        };
        let died = reader.died();
        *slot.lock().unwrap() = Some(reader);
        peer.send(Bytes::copy_from_slice(b"drop")).unwrap();
        drop(peer);
        assert!(disconnects(&died));
        // A panic in the frame closure would have skipped the exit.
        assert_eq!(exits.try_recv(), Ok(()));
    }

    #[test]
    fn serve_starts_one_session_per_channel_and_stops() {
        let hub = LocalHub::new();
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, sessions) = crossbeam::channel::unbounded();
        let accept = serve(
            Box::new(hub.clone()),
            Arc::clone(&stop),
            ("test-accept", "test-session"),
            move |channel| {
                let tx = tx.clone();
                move || {
                    let name = std::thread::current().name().map(str::to_string);
                    let _ = tx.send((name, channel.recv().map(|f| f.to_vec()).ok()));
                }
            },
        );
        for payload in [b"a", b"b"] {
            hub.connect()
                .unwrap()
                .send(Bytes::copy_from_slice(payload))
                .unwrap();
        }
        let mut seen: Vec<_> = (0..2)
            .map(|_| sessions.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        seen.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(
            seen,
            vec![
                (Some("test-session".into()), Some(b"a".to_vec())),
                (Some("test-session".into()), Some(b"b".to_vec())),
            ]
        );
        stop.store(true, Ordering::Release);
        accept.join().unwrap();
    }
}
