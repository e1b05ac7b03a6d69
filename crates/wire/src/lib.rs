//! Binary wire format and transports for displaydb.
//!
//! The paper's system is a client-server OODBMS with two extra protocol
//! participants: the Display Lock Manager agent and the Display Lock Client
//! embedded in each application (§ 4). All of them exchange messages over
//! this crate's primitives:
//!
//! * [`codec`] — a compact hand-rolled binary encoding (`Encode`/`Decode`
//!   traits, LEB128 varints, zigzag integers, length-prefixed strings).
//! * [`frame`] — length-prefixed message frames over any `Read`/`Write`.
//! * [`transport`] — the [`transport::Channel`] abstraction with three
//!   implementations: real TCP (`std::net`), an in-process pair backed by
//!   crossbeam channels, and a latency-injecting simulated network used by
//!   the propagation experiments (paper § 4.3 measured 1–2 s propagation on
//!   a mid-90s LAN; the simulator lets us reproduce the *shape* of that
//!   result deterministically).
//! * [`link`] — the accept loop and the frame reader both fig.-3 links
//!   run on.

pub mod codec;
pub mod frame;
pub mod link;
pub mod transport;

pub use codec::{fnv1a, Decode, Encode, WireReader, WireWriter};
pub use frame::{read_frame, write_frame, FrameBuf};
pub use link::{serve, Reader};
pub use transport::{
    local_pair, sim_pair, Channel, FaultPlan, FaultyChannel, FaultyListener, Listener,
    LocalChannel, LocalHub, MeteredChannel, SimNetConfig, TcpChannel, TcpListenerWrapper,
    WireMeter,
};
