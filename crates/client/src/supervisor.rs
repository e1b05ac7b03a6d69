//! Connection supervision: reconnect with backoff, session resume, and
//! display-lock re-registration.
//!
//! [`DbClient::connect_supervised`] (or the agent variant) calls
//! `spawn`, which starts a detached monitor thread per supervised
//! connection. The thread waits for the current connection generation
//! to die — on [`Connection::died`](crate::conn::Connection::died), the
//! receiver that disconnects when the generation's reader exits; no
//! polling — and on death:
//!
//! 1. broadcasts [`DlcEvent::Degraded`] so displays keep serving their
//!    pinned objects marked *stale* instead of going blank;
//! 2. reconnects under a [`ReconnectPolicy`] (exponential backoff with
//!    jitter, bounded attempts/deadline), presenting the stored resume
//!    token and a cached-object manifest so the server can rebuild
//!    copy-table entries and report which copies went stale;
//! 3. in the integrated deployment, re-registers every live
//!    display-lock registration and replays the missed log suffix if
//!    the server admits the cursor; short of a replay (always in the
//!    agent deployment) forces refreshes of every watched object with
//!    no cached copy;
//! 4. broadcasts [`DlcEvent::Restored`], after which displays clear any
//!    remaining stale marks.
//!
//! The thread holds only a [`Weak`] handle to the client, so supervision
//! never keeps a dropped client alive; it exits when the client is
//! dropped, deliberately closed, or the policy gives up. Nothing joins it.

use crate::client::DbClient;
use crate::dlc::DlcEvent;
use displaydb_common::backoff::ReconnectPolicy;
use displaydb_common::DbResult;
use displaydb_wire::Channel;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Produces a fresh channel per reconnect attempt (e.g. a TCP dial, or a
/// handle to the current in-process hub in tests).
pub type ChannelFactory = Arc<dyn Fn() -> DbResult<Box<dyn Channel>> + Send + Sync>;

/// Which connection a supervisor watches.
pub(crate) enum Target {
    /// The main server connection: resume the session on reconnect.
    Server,
    /// The DLM agent connection: replay lock registrations on reconnect.
    Agent,
}

/// Start a detached thread supervising `client`'s `target` connection.
pub(crate) fn spawn(
    client: &Arc<DbClient>,
    factory: ChannelFactory,
    policy: ReconnectPolicy,
    target: Target,
) {
    let weak = Arc::downgrade(client);
    let name = match target {
        Target::Server => "db-supervisor",
        Target::Agent => "dlm-supervisor",
    };
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || monitor_loop(weak, factory, policy, target))
        .expect("spawn supervisor thread");
}

fn monitor_loop(
    weak: Weak<DbClient>,
    factory: ChannelFactory,
    policy: ReconnectPolicy,
    target: Target,
) {
    loop {
        // Take the current generation's death receiver, then drop every
        // strong handle before blocking: the monitor must not keep a
        // dropped client (or its connection) alive while it waits.
        let died = {
            let Some(client) = weak.upgrade() else { return };
            match target {
                Target::Server => client.conn().died(),
                Target::Agent => match client.agent_cell().and_then(|c| c.get()) {
                    Some(agent) => agent.died(),
                    None => return,
                },
            }
        };
        // Nothing is ever sent: this returns when the reader exits.
        let _ = died.recv();

        let Some(client) = weak.upgrade() else { return };
        if client.is_closed() {
            return;
        }
        client.dlc().broadcast(DlcEvent::Degraded);
        if !reconnect(&client, &factory, &policy, &target) {
            return;
        }
        client.dlc().broadcast(DlcEvent::Restored);
        // Loop around and watch the new generation.
    }
}

/// The backoff loop. Returns whether a new connection generation is live.
fn reconnect(
    client: &Arc<DbClient>,
    factory: &ChannelFactory,
    policy: &ReconnectPolicy,
    target: &Target,
) -> bool {
    let started = Instant::now();
    let recovery = client.conn_stats().recovery.clone();
    // Jitter seed: stable per session, so concurrent clients desynchronize
    // their retry storms but a single client's schedule is deterministic.
    let seed = client.session().token;
    let mut attempt: u32 = 1;
    // `Overloaded` is the server's reconnect admission gate saying "try
    // again later", not a failure of this client's session: sheds back
    // off (with growing delay) but do not consume reconnect attempts.
    // Their own generous budget — and the policy deadline, when set —
    // keeps a permanently overloaded server from pinning the thread.
    let mut sheds: u32 = 0;
    let max_sheds = policy.max_attempts.saturating_mul(8).max(8);
    loop {
        if client.is_closed() || !policy.allows(attempt, started.elapsed()) || sheds > max_sheds {
            return false;
        }
        std::thread::sleep(policy.delay_for(attempt.saturating_add(sheds), seed));
        recovery.reconnect_attempts.inc();
        let connected = factory().and_then(|channel| match target {
            Target::Server => client.try_resume(channel).map(|_| ()),
            Target::Agent => client.try_reconnect_agent(channel),
        });
        match connected {
            Ok(()) => return true,
            Err(displaydb_common::DbError::Overloaded) => {
                recovery.overload_sheds.inc();
                sheds += 1;
            }
            Err(_) => attempt += 1,
        }
    }
}
